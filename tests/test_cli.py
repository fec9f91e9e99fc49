import csv
import json
import shutil

import numpy as np

import pytest

from staininv import classifier, dataset, mcae
from staininv.cli import load_config, main, UsageError


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "ds"
    assert main(["synth", "--triplets", "6", "--size", "32", "--seed", "3",
                 "--out-dir", str(out)]) == 0
    return out


def test_synth_outputs_and_manifest(tiny_dataset):
    manifest = json.loads((tiny_dataset / "manifest.json").read_text())
    assert manifest["domains"] == ["A", "B", "C"]
    assert len(manifest["triplets"]) == 6
    assert manifest["triplets"][0]["paths"]["A"] == "triplet_00000_A.ppm"
    assert "clamp_count" in manifest["generator"]

    run = json.loads((tiny_dataset / "run_manifest.json").read_text())
    assert run["command"] == "synth"
    assert run["seed"] == 3
    assert "duration_s" in run and "versions" in run
    assert "manifest.json" in run["outputs"]


def test_config_file_and_flag_override(tiny_dataset, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 3, "synth": {"triplets": 6, "size": 32}}))
    out = tmp_path / "ds2"
    assert main(["synth", "--config", str(config), "--out-dir", str(out)]) == 0
    # same effective parameters as the fixture run -> identical dataset bytes
    assert (out / "manifest.json").read_bytes() == (
        tiny_dataset / "manifest.json"
    ).read_bytes()
    assert (out / "triplet_00000_B.ppm").read_bytes() == (
        tiny_dataset / "triplet_00000_B.ppm"
    ).read_bytes()

    # a flag must win over the config file
    out3 = tmp_path / "ds3"
    assert main(["synth", "--config", str(config), "--triplets", "2",
                 "--out-dir", str(out3)]) == 0
    assert len(json.loads((out3 / "manifest.json").read_text())["triplets"]) == 2


def test_unknown_config_keys_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"seeed": 1}))
    assert main(["synth", "--config", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
    bad.write_text(json.dumps({"mcae": {"epoch": 5}}))
    assert main(["synth", "--config", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
    with pytest.raises(UsageError):
        load_config(str(bad))


def test_malformed_config_and_missing_paths(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["synth", "--config", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"]["type"] == "UsageError"

    code = main(["train-mcae", "--dataset", str(tmp_path / "nope"),
                 "--out-dir", str(tmp_path / "o")])
    assert code == 2


def test_runtime_failure_exit_code(tmp_path, capsys):
    # a dataset directory with a corrupt image triggers a runtime error (1)
    ds = tmp_path / "ds"
    ds.mkdir()
    (ds / "manifest.json").write_text(json.dumps({
        "domains": ["A"],
        "triplets": [{"id": 0, "paths": {"A": "img.ppm"}}],
    }))
    (ds / "img.ppm").write_bytes(b"P6\n4 4\n255\n\x00")
    code = main(["train-mcae", "--dataset", str(ds), "--epochs", "1",
                 "--out-dir", str(tmp_path / "o")])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert "truncated" in record["error"]["message"]


def test_eval_nfmse_schema_with_untrained_model(tiny_dataset, tmp_path):
    # an untrained (freshly initialised, zero-epoch) model still evaluates
    out = tmp_path / "mcae"
    assert main(["train-mcae", "--dataset", str(tiny_dataset), "--epochs", "0",
                 "--k", "2", "--seed", "4", "--out-dir", str(out)]) == 0
    nf = tmp_path / "nfmse"
    assert main(["eval-nfmse", "--dataset", str(tiny_dataset),
                 "--model", str(out / "mcae_model.json"), "--split", "all",
                 "--seed", "4", "--out-dir", str(nf)]) == 0
    with open(nf / "nfmse_mcae.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6 * 3  # one row per triplet per pair
    assert {r["pair"] for r in rows} == {"A-B", "A-C", "B-C"}
    summary = json.loads((nf / "nfmse_summary.json").read_text())
    assert summary["models"]["mcae"]["A-B"]["mean"] > 0.0


def test_eval_hsd_outputs(tiny_dataset, tmp_path):
    out = tmp_path / "hsd"
    assert main(["eval-hsd", "--dataset", str(tiny_dataset), "--pixels", "50",
                 "--seed", "3", "--out-dir", str(out)]) == 0
    with open(out / "cxcy_samples.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["domain"] for r in rows} == {"A", "B", "C"}
    with open(out / "density_ssim.csv") as fh:
        table = list(csv.DictReader(fh))
    assert [r["pair"] for r in table] == ["A-B", "A-C", "B-C"]
    assert all(float(r["mean"]) > 0.99 for r in table)


def test_grad_check_writes_report(tmp_path):
    out = tmp_path / "gc"
    assert main(["grad-check", "--out-dir", str(out)]) == 0
    with open(out / "grad_check.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["status"] == "pass" for r in rows)
    assert {r["check"] for r in rows} >= {
        "dense/tanh", "conv2d/linear", "mcae/combined_loss",
        "cyclegan/generator_objective", "classifier/head",
    }


def test_dataset_without_manifest_is_usage_error(tmp_path):
    code = main(["eval-nfmse", "--dataset", str(tmp_path), "--out-dir",
                 str(tmp_path / "o")])
    assert code == 2


def test_eval_nfmse_without_model_is_usage_error(tiny_dataset, tmp_path, capsys):
    code = main(["eval-nfmse", "--dataset", str(tiny_dataset), "--out-dir",
                 str(tmp_path / "o")])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert "--model" in record["error"]["message"]


def _first_layer(doc):
    return doc["layers"][0] if "layers" in doc else doc["conv1"]


def _drop_first_output(doc):
    layer = _first_layer(doc)
    layer["shape"][0] -= 1
    layer["weights"] = layer["weights"][: int(np.prod(layer["shape"]))]
    layer["bias"].pop()


#: fault name -> edit of a saved model or head document
MODEL_FAULTS = {
    "wrong-format": lambda doc: doc.update(
        format="clf-head-v1" if "layers" in doc else "mcae-v1"),
    "no-layers": lambda doc: doc.pop("layers" if "layers" in doc else "conv2"),
    "short-weights": lambda doc: _first_layer(doc)["weights"].pop(),
    "long-bias": lambda doc: _first_layer(doc)["bias"].append(0.0),
    "nan-weight": lambda doc: _first_layer(doc)["weights"].__setitem__(0, float("nan")),
    "unchained": _drop_first_output,
}


def _write_model_file(path, save, content):
    """No file (None), raw text, or a saved document with a named fault."""
    if content is None:
        return
    if content not in MODEL_FAULTS:
        path.write_text(content)
        return
    save(path)
    doc = json.loads(path.read_text())
    MODEL_FAULTS[content](doc)
    path.write_text(json.dumps(doc))


def _assert_usage_error_naming(code, capsys, path):
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"]["type"] == "UsageError"
    assert str(path) in record["error"]["message"]


def _save_model(path):
    mcae.save_mcae(mcae.mcae_init(["A", "B", "C"], seed=0), path)


def _save_head(path):
    classifier.save_head(classifier.head_init(3, seed=0), path)


@pytest.mark.parametrize("content", [None, "{not json", "[]", *MODEL_FAULTS])
def test_unreadable_model_is_usage_error(tiny_dataset, tmp_path, capsys, content):
    model = tmp_path / "model.json"
    _write_model_file(model, _save_model, content)
    code = main(["eval-nfmse", "--dataset", str(tiny_dataset), "--model", str(model),
                 "--out-dir", str(tmp_path / "o")])
    _assert_usage_error_naming(code, capsys, model)

    # the same fault in the classifier head given to eval-clf
    good = tmp_path / "good.json"
    _save_model(good)
    head = tmp_path / "head.json"
    _write_model_file(head, _save_head, content)
    code = main(["eval-clf", "--model", str(good), "--head", str(head), "--per-class", "2",
                 "--out-dir", str(tmp_path / "c")])
    _assert_usage_error_naming(code, capsys, head)


def test_head_for_other_feature_dim_is_usage_error(tmp_path, capsys):
    model, head = tmp_path / "model.json", tmp_path / "head.json"
    _save_model(model)
    classifier.save_head(classifier.head_init(3, seed=0, in_channels=7), head)
    code = main(["eval-clf", "--model", str(model), "--head", str(head), "--per-class", "2",
                 "--out-dir", str(tmp_path / "c")])
    _assert_usage_error_naming(code, capsys, head)


def test_train_clf_without_validation_split_leaves_cell_empty(tmp_path):
    model = tmp_path / "model.json"
    _save_model(model)
    out = tmp_path / "clf"
    # 9 images: round(9 * 0.05) = 0 validation images
    assert main(["train-clf", "--model", str(model), "--per-class", "3", "--epochs", "1",
                 "--out-dir", str(out)]) == 0
    with open(out / "clf_loss.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "loss", "val_accuracy"]
    assert rows[1][0] == "1" and float(rows[1][1]) > 0 and rows[1][2] == ""
    assert len(rows) == 2


def _truncated_ppm_dataset(tmp_path):
    """A dataset that fails with exit 1 as soon as it is loaded."""
    ds = tmp_path / "bad_ds"
    ds.mkdir()
    (ds / "manifest.json").write_text(json.dumps({
        "domains": ["A"],
        "triplets": [{"id": 0, "paths": {"A": "img.ppm"}}],
    }))
    (ds / "img.ppm").write_bytes(b"P6\n4 4\n255\n\x00")
    return ds


@pytest.mark.parametrize("flags, config", [
    (["--pixels", "0"], None),
    ([], {"hsd": {"pixels": 2.5}}),
    ([], {"hsd": {"pixels": "many"}}),
])
def test_eval_hsd_bad_pixels_is_usage_error(tmp_path, capsys, flags, config):
    extra = []
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        extra = ["--config", str(path)]
    # checked before the (unloadable) dataset is read
    code = main(["eval-hsd", "--dataset", str(_truncated_ppm_dataset(tmp_path)),
                 *flags, *extra, "--out-dir", str(tmp_path / "o")])
    assert code == 2
    message = json.loads(capsys.readouterr().err.strip())["error"]["message"]
    assert "hsd.pixels" in message and "--pixels" in message


def test_train_mcae_kmeans_sample_below_k_is_usage_error(tmp_path, capsys):
    code = main(["train-mcae", "--dataset", str(_truncated_ppm_dataset(tmp_path)),
                 "--kmeans-sample", "5", "--k", "10", "--out-dir", str(tmp_path / "o")])
    assert code == 2
    message = json.loads(capsys.readouterr().err.strip())["error"]["message"]
    assert "mcae.kmeans_sample" in message


@pytest.mark.parametrize("fault", ["missing", "resized"])
def test_broken_dataset_image_is_usage_error(tiny_dataset, tmp_path, capsys, fault):
    ds = tmp_path / "ds"
    shutil.copytree(tiny_dataset, ds)
    image = ds / "triplet_00002_B.ppm"
    if fault == "missing":
        image.unlink()
    else:
        dataset.save_image(dataset.Image(np.zeros((16, 16, 3), np.uint8)), image)
    code = main(["eval-hsd", "--dataset", str(ds), "--pixels", "50",
                 "--out-dir", str(tmp_path / "o")])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"]["type"] == "UsageError"
    assert str(image) in record["error"]["message"]
