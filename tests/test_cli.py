import argparse
import csv
import importlib.util
import json
import os
import shutil
import weakref
from pathlib import Path

import numpy as np

import pytest
from hypothesis import given, settings, strategies as st

from staininv import classifier, dataset, gradcheck, mcae, persist, stanosa
from staininv.cli import (
    COMMANDS, SETTINGS, UsageError, build_parser, describe, flag, load_config, main, resolve,
)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "ds"
    assert main(["synth", "--triplets", "6", "--size", "32", "--seed", "3",
                 "--out-dir", str(out)]) == 0
    return out


def test_synth_outputs_and_manifest(tiny_dataset):
    manifest = json.loads((tiny_dataset / "manifest.json").read_text())
    assert manifest["domains"] == ["A", "B", "C"]
    assert manifest["triplets"] == 6
    assert manifest["paths"] == {"A": "domain_A.ppm", "B": "domain_B.ppm", "C": "domain_C.ppm"}
    assert "clamp_count" in manifest["generator"]

    run = json.loads((tiny_dataset / "run_manifest.json").read_text())
    assert run["command"] == "synth"
    assert run["seed"] == 3
    assert "duration_s" in run and "versions" in run
    assert run["outputs"] == ["domain_A.ppm", "domain_B.ppm", "domain_C.ppm", "manifest.json"]


def test_config_file_and_flag_override(tiny_dataset, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 3, "synth": {"triplets": 6, "size": 32}}))
    out = tmp_path / "ds2"
    assert main(["synth", "--config", str(config), "--out-dir", str(out)]) == 0
    # same effective parameters as the fixture run -> identical dataset bytes
    assert (out / "manifest.json").read_bytes() == (
        tiny_dataset / "manifest.json"
    ).read_bytes()
    assert (out / "domain_B.ppm").read_bytes() == (tiny_dataset / "domain_B.ppm").read_bytes()

    # a flag must win over the config file
    out3 = tmp_path / "ds3"
    assert main(["synth", "--config", str(config), "--triplets", "2",
                 "--out-dir", str(out3)]) == 0
    assert json.loads((out3 / "manifest.json").read_text())["triplets"] == 2


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


def test_runtime_failure_exit_code(tmp_path, capsys, monkeypatch):
    # a failure of the run itself, not of its input, exits 1 with the exception's type
    monkeypatch.setattr(gradcheck, "run_grad_checks", lambda seed: [("dense/tanh", 1.0)])
    assert main(["grad-check", "--out-dir", str(tmp_path / "gc")]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == {"type": "RuntimeError",
                               "message": "gradient check failed; see grad_check.csv"}


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
        "dense/tanh", "conv2d/linear", "mcae/combined_loss", "stanosa/reconstruction",
        "cyclegan/generator_objective", "cyclegan/discriminator_objective", "classifier/head",
    }


@pytest.mark.parametrize("inside", [False, True])
def test_out_dir_that_cannot_be_made_is_usage_error(tmp_path, capsys, inside):
    # a regular file is no directory, and none can be made inside one
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "sub" if inside else blocker
    code = main(["synth", "--triplets", "1", "--size", "8", "--out-dir", str(out)])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"]["type"] == "UsageError"
    assert f"--out-dir {out}" in record["error"]["message"]


@pytest.mark.parametrize("target", ["manifest", "labels", "config", "out-dir"])
def test_nul_in_a_file_name_is_usage_error(tiny_dataset, tmp_path, capsys, target):
    # open and os.makedirs refuse a name holding a NUL character with a ValueError
    out, name = str(tmp_path / "o"), "a\x00b"
    if target == "manifest":
        ds = tmp_path / "ds"
        shutil.copytree(tiny_dataset, ds)
        manifest = json.loads((ds / "manifest.json").read_text())
        manifest["paths"]["A"] = name
        (ds / "manifest.json").write_text(json.dumps(manifest))
        argv = ["eval-hsd", "--dataset", str(ds)]
        named = f"cannot read image file {os.path.join(ds, name)}"
    elif target == "labels":
        model, labeled = tmp_path / "model.json", tmp_path / "labeled"
        _save_model(model)
        classifier.save_labeled_set(classifier.generate_labeled_set(2, size=16, seed=1), labeled)
        labels = json.loads((labeled / "labels.json").read_text())
        labels["path"] = name
        (labeled / "labels.json").write_text(json.dumps(labels))
        argv = ["train-clf", "--model", str(model), "--labeled-dir", str(labeled)]
        named = f"cannot read image file {os.path.join(labeled, name)}"
    elif target == "config":
        config = os.path.join(tmp_path, "c\x00.json")
        argv, named = ["synth", "--config", config], f"cannot read config file {config}"
    else:
        out = os.path.join(tmp_path, "x\x00y")
        argv, named = ["grad-check"], f"--out-dir {out} cannot be made a directory"
    assert main([*argv, "--out-dir", out]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"]["type"] == "UsageError"
    assert named in record["error"]["message"]
    assert record["error"]["message"].endswith("embedded null byte")


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


def test_second_model_of_a_kind_is_usage_error(tiny_dataset, tmp_path, capsys):
    # a second baseline would overwrite the first's nfmse_stanosa.csv and summary entry
    first = tmp_path / "st" / "stanosa_model.json"
    assert main(["train-stanosa", "--dataset", str(tiny_dataset), "--epochs", "0",
                 "--out-dir", str(first.parent)]) == 0
    second = tmp_path / "second.json"
    shutil.copy(first, second)
    out = tmp_path / "o"
    code = main(["eval-nfmse", "--dataset", str(tiny_dataset), "--model", str(first),
                 "--model", str(second), "--split", "all", "--out-dir", str(out)])
    assert code == 2
    message = json.loads(capsys.readouterr().err.strip())["error"]["message"]
    assert str(first) in message and str(second) in message
    assert not out.exists() or not any(out.iterdir())


def test_empty_nfmse_test_split_is_usage_error(tmp_path, capsys):
    # 0.8 * 2 rounds to 2 train triplets, leaving the test split empty
    ds = tmp_path / "ds"
    assert main(["synth", "--triplets", "2", "--size", "8", "--out-dir", str(ds)]) == 0
    model = tmp_path / "model.json"
    _save_model(model)
    out = tmp_path / "o"
    code = main(["eval-nfmse", "--dataset", str(ds), "--model", str(model),
                 "--out-dir", str(out)])
    assert code == 2
    message = json.loads(capsys.readouterr().err.strip())["error"]["message"]
    assert str(ds) in message and "'test'" in message and "2 triplet(s)" in message
    assert not out.exists() or not any(out.iterdir())


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
        format="clf-head-v2" if "layers" in doc else "mcae-v1"),
    "no-layers": lambda doc: doc.pop("layers" if "layers" in doc else "conv2"),
    "short-weights": lambda doc: _first_layer(doc)["weights"].pop(),
    "long-bias": lambda doc: _first_layer(doc)["bias"].append(0.0),
    "nan-weight": lambda doc: _first_layer(doc)["weights"].__setitem__(0, float("nan")),
    "unchained": _drop_first_output,
    "leaky-slope": lambda doc: _first_layer(doc).__setitem__("leaky_slope", 0.02),
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


def test_head_v1_file_is_usage_error(tmp_path, capsys):
    # clf-head-v1 held (out, in, 3, 3) conv2d records and a pooling key; v2 holds dense ones
    model, head = tmp_path / "model.json", tmp_path / "head.json"
    _save_model(model)
    _save_head(head)
    doc = json.loads(head.read_text())
    doc.update(format="clf-head-v1", pooling="avg")
    for key in ("conv1", "conv2"):
        n_out, n_in = doc[key]["shape"]
        doc[key].update(kind="conv2d", shape=[n_out, n_in // 9, 3, 3], padding=1)
    head.write_text(json.dumps(doc))
    code = main(["eval-clf", "--model", str(model), "--head", str(head), "--per-class", "2",
                 "--out-dir", str(tmp_path / "c")])
    assert code == 2
    message = json.loads(capsys.readouterr().err.strip())["error"]["message"]
    assert message == (f"unrecognised model format 'clf-head-v1' in {head}; "
                       "expected clf-head-v2")


def test_head_for_other_feature_dim_is_usage_error(tmp_path, capsys):
    model, head = tmp_path / "model.json", tmp_path / "head.json"
    _save_model(model)
    classifier.save_head(classifier.head_init(3, seed=0, in_channels=7), head)
    code = main(["eval-clf", "--model", str(model), "--head", str(head), "--per-class", "2",
                 "--out-dir", str(tmp_path / "c")])
    _assert_usage_error_naming(code, capsys, head)


def _save_48_input_model(kind, path):
    """A model file whose encoder takes 48 inputs: a 4x4 RGB patch, not an 8x8 one."""
    if kind == "mcae":
        mcae.save_mcae(mcae.mcae_init(["A", "B", "C"], 0, input_dim=48), path)
    else:
        model = stanosa.stanosa_init(seed=0, input_dim=48)
        model.zca = dataset.ZcaTransform(np.zeros(48), np.eye(48), 1e-5)
        stanosa.save_stanosa(model, path)


@pytest.mark.parametrize("kind", ["mcae", "stanosa"])
@pytest.mark.parametrize("command", ["eval-nfmse", "train-clf"])
def test_model_not_taking_8px_patches_is_usage_error(tiny_dataset, tmp_path, capsys, command,
                                                     kind):
    model = tmp_path / "model.json"
    _save_48_input_model(kind, model)
    inputs = {"eval-nfmse": ["--dataset", str(tiny_dataset)],
              "train-clf": ["--per-class", "2", "--epochs", "1"]}[command]
    code = main([command, *inputs, "--model", str(model), "--out-dir", str(tmp_path / "o")])
    _assert_usage_error_naming(code, capsys, model)


@pytest.mark.parametrize("command", ["eval-nfmse", "train-clf"])
def test_untrained_baseline_file_is_usage_error(tiny_dataset, tmp_path, capsys, command):
    model = tmp_path / "stanosa.json"
    untrained = stanosa.stanosa_init(seed=0)  # written by hand: save_stanosa refuses it
    model.write_text(json.dumps({"format": "stanosa-v1", "zca": None, "layers":
                                 persist.autoencoder_records(untrained.encoder, untrained.decoder)}))
    inputs = {"eval-nfmse": ["--dataset", str(tiny_dataset)],
              "train-clf": ["--per-class", "2", "--epochs", "1"]}[command]
    code = main([command, *inputs, "--model", str(model), "--out-dir", str(tmp_path / "o")])
    _assert_usage_error_naming(code, capsys, model)


def _two_class_set(directory):
    data = classifier.generate_labeled_set(2, seed=1)
    keep = data.labels < 2
    classifier.save_labeled_set(classifier.LabeledImageSet(
        [image for image, k in zip(data.images, keep) if k], data.labels[keep],
        data.class_names[:2]), directory)
    return ["--labeled-dir", str(directory)]


@pytest.mark.parametrize("head_classes, n_classes", [(3, 2), (2, 3)])
def test_head_for_other_class_count_is_usage_error(tmp_path, capsys, head_classes, n_classes):
    model, head = tmp_path / "model.json", tmp_path / "head.json"
    _save_model(model)
    classifier.save_head(classifier.head_init(head_classes, seed=0), head)
    labeled = _two_class_set(tmp_path / "labeled") if n_classes == 2 else ["--per-class", "2"]
    code = main(["eval-clf", "--model", str(model), "--head", str(head), *labeled,
                 "--out-dir", str(tmp_path / "c")])
    assert code == 2
    message = json.loads(capsys.readouterr().err.strip())["error"]["message"]
    assert str(head) in message
    assert f"{head_classes} classes" in message and f"has {n_classes}" in message


def test_empty_labeled_test_split_is_usage_error(tmp_path, capsys):
    # 0.75 * 2 rounds to 2 train items, leaving the test split empty
    model, head = tmp_path / "model.json", tmp_path / "head.json"
    _save_model(model)
    _save_head(head)
    data = classifier.generate_labeled_set(1, seed=1)
    labeled = tmp_path / "labeled"
    classifier.save_labeled_set(classifier.LabeledImageSet(
        data.images[:2], data.labels[:2], data.class_names), labeled)
    out = tmp_path / "c"
    code = main(["eval-clf", "--model", str(model), "--head", str(head),
                 "--labeled-dir", str(labeled), "--out-dir", str(out)])
    assert code == 2
    message = json.loads(capsys.readouterr().err.strip())["error"]["message"]
    assert str(labeled / "labels.json") in message and "test split" in message
    assert "2 item(s)" in message
    assert not out.exists() or not any(out.iterdir())


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
    """A dataset whose one image is truncated: loading it exits 2, naming the image."""
    ds = tmp_path / "bad_ds"
    ds.mkdir()
    (ds / "manifest.json").write_text(json.dumps({
        "domains": ["A"], "paths": {"A": "img.ppm"}, "triplets": 1,
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


def test_synth_below_one_patch_is_usage_error(tmp_path, capsys):
    out = tmp_path / "ds"
    code = main(["synth", "--triplets", "2", "--size", "4", "--out-dir", str(out)])
    assert code == 2
    message = json.loads(capsys.readouterr().err.strip())["error"]["message"]
    assert message == "synth.size (--size) must be an integer >= 8 and a multiple of 8, got 4"
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command, name", [("synth", "synth.size")])
def test_size_off_the_patch_grid_is_usage_error(tmp_path, capsys, command, name):
    # every stage cuts whole 8x8 patches: 12 px would fail later, after work was done
    out = tmp_path / "o"
    code = main([command, "--size", "12", "--out-dir", str(out)])
    assert code == 2
    message = json.loads(capsys.readouterr().err.strip())["error"]["message"]
    assert message == f"{name} (--size) must be an integer >= 8 and a multiple of 8, got 12"
    assert not out.exists() or not any(out.iterdir())


def test_train_mcae_fewer_sub_patches_than_k_is_usage_error(tmp_path, capsys):
    ds = tmp_path / "ds"
    assert main(["synth", "--triplets", "1", "--size", "8", "--out-dir", str(ds)]) == 0
    out = tmp_path / "o"
    code = main(["train-mcae", "--dataset", str(ds), "--epochs", "1", "--out-dir", str(out)])
    assert code == 2
    message = json.loads(capsys.readouterr().err.strip())["error"]["message"]
    assert message == ("mcae.k (--k) must be at most 1, the number of sub-patches in the train "
                       "split (1 triplet(s) at stride 4), got 10")
    assert not any(out.iterdir())
    # with k at the count the same data trains
    assert main(["train-mcae", "--dataset", str(ds), "--epochs", "1", "--k", "1",
                 "--kmeans-sample", "1", "--out-dir", str(out)]) == 0


@pytest.mark.parametrize("module, trainer, command", [
    pytest.param(mcae, "train_mcae", "train-mcae", id="train-mcae"),
    pytest.param(stanosa, "train_stanosa", "train-stanosa", id="train-stanosa"),
])
def test_trainers_start_after_the_loaded_images_are_let_go(tiny_dataset, tmp_path, monkeypatch,
                                                           module, trainer, command):
    # the trainers read only the patch bytes, so no image (nor its pixels) of the
    # loaded set, train or test split, may be alive while they run
    refs, alive_at_start = [], []
    load, train = dataset.load_dataset, getattr(module, trainer)

    def load_and_watch(directory):
        ds = load(directory)
        for image in (image for t in ds.triplets for image in t.values()):
            refs.extend([weakref.ref(image), weakref.ref(image.pixels)])
        return ds

    def train_and_count(*args):
        alive_at_start.append(sum(ref() is not None for ref in refs))
        return train(*args)

    monkeypatch.setattr(dataset, "load_dataset", load_and_watch)
    monkeypatch.setattr(module, trainer, train_and_count)
    assert main([command, "--dataset", str(tiny_dataset), "--epochs", "1",
                 "--out-dir", str(tmp_path / "o")]) == 0
    assert len(refs) == 2 * 6 * 3 and alive_at_start == [0]


def test_train_mcae_on_one_domain_is_usage_error(tiny_dataset, tmp_path, capsys):
    ds = tmp_path / "ds"
    shutil.copytree(tiny_dataset, ds)
    manifest = json.loads((ds / "manifest.json").read_text())
    manifest["domains"] = ["A"]
    (ds / "manifest.json").write_text(json.dumps(manifest))
    code = main(["train-mcae", "--dataset", str(ds), "--epochs", "0",
                 "--out-dir", str(tmp_path / "o")])
    _assert_usage_error_naming(code, capsys, ds)


@pytest.mark.parametrize("command, extra", [
    pytest.param("train-mcae", [], id="train-mcae"),
    pytest.param("train-stanosa", [], id="train-stanosa"),
    pytest.param("eval-nfmse", ["--model", "never-read.json"], id="eval-nfmse"),
    pytest.param("eval-hsd", [], id="eval-hsd"),
])
def test_dataset_of_mixed_image_sizes_is_usage_error(tmp_path, capsys, command, extra):
    # rejected at load, whichever split the odd triplet falls in
    ds = tmp_path / "ds"
    assert main(["synth", "--triplets", "3", "--size", "16", "--out-dir", str(ds)]) == 0
    loaded = dataset.load_dataset(ds)
    paths = json.loads((ds / "manifest.json").read_text())["paths"]
    odd = dataset.Image(np.zeros((24, 24, 3), np.uint8))
    for domain, name in paths.items():  # a whole triplet, each domain the same size
        images = [t[domain] for t in loaded.triplets]
        dataset.save_ppm([*images[:2], odd], ds / name)
    code = main([command, "--dataset", str(ds), *extra, "--out-dir", str(tmp_path / "o")])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"]["type"] == "UsageError"
    message = record["error"]["message"]
    first = ds / paths["A"]
    assert str(ds / "manifest.json") in message
    assert f"image 2 of {first} is 24x24" in message and f"image 0 of {first} is 16x16" in message


@pytest.mark.parametrize("fault", ["missing", "resized"])
def test_broken_dataset_image_is_usage_error(tiny_dataset, tmp_path, capsys, fault):
    ds = tmp_path / "ds"
    shutil.copytree(tiny_dataset, ds)
    image = ds / "domain_B.ppm"
    if fault == "missing":
        image.unlink()
    else:
        dataset.save_ppm([dataset.Image(np.zeros((16, 16, 3), np.uint8))] * 6, image)
    code = main(["eval-hsd", "--dataset", str(ds), "--pixels", "50",
                 "--out-dir", str(tmp_path / "o")])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"]["type"] == "UsageError"
    assert str(image) in record["error"]["message"]


#: fault name -> (writer of a bad listed image, a part of the message it gives)
BAD_IMAGES = {
    "truncated": (lambda path: path.write_bytes(b"P6\n8 8\n255\n\x00"), "truncated payload"),
    "12px": (lambda path: dataset.save_ppm([dataset.Image(np.zeros((12, 12, 3), np.uint8))],
                                           path), "image 0 of"),
}


@pytest.mark.parametrize("fault", BAD_IMAGES)
def test_bad_listed_image_is_usage_error(tiny_dataset, tmp_path, capsys, fault):
    write, expected = BAD_IMAGES[fault]
    model = tmp_path / "model.json"
    _save_model(model)
    ds, labeled = tmp_path / "ds", tmp_path / "labeled"
    shutil.copytree(tiny_dataset, ds)
    classifier.save_labeled_set(classifier.generate_labeled_set(2, size=16, seed=1), labeled)
    for image, command in [
        (ds / "domain_B.ppm", ["eval-nfmse", "--dataset", ds, "--model", model]),
        (labeled / "images.ppm", ["train-clf", "--model", model, "--labeled-dir", labeled]),
    ]:
        write(image)
        assert main([*map(str, command), "--out-dir", str(tmp_path / "o")]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"]["type"] == "UsageError"
        assert str(image) in record["error"]["message"]
        assert expected in record["error"]["message"]


def test_model_lacking_a_dataset_domain_is_usage_error(tiny_dataset, tmp_path, capsys):
    model = tmp_path / "model.json"
    mcae.save_mcae(mcae.mcae_init(["A", "B", "D"], seed=0), model)
    code = main(["eval-nfmse", "--dataset", str(tiny_dataset), "--model", str(model),
                 "--out-dir", str(tmp_path / "o")])
    assert code == 2
    message = json.loads(capsys.readouterr().err.strip())["error"]["message"]
    assert str(model) in message and "['A', 'B', 'D']" in message
    assert "['A', 'B', 'C']" in message


#: the flags of each subcommand besides -h, --config, --seed and --out-dir
FLAGS = {
    "synth": {"--triplets", "--size"},
    "train-mcae": {"--dataset", "--epochs", "--batch", "--stride", "--k", "--kmeans-sample",
                   "--lr"},
    "train-stanosa": {"--dataset", "--epochs", "--batch", "--stride", "--lr", "--domain"},
    "eval-nfmse": {"--dataset", "--model", "--split"},
    "eval-hsd": {"--dataset", "--pixels"},
    "train-clf": {"--model", "--labeled-dir", "--domain", "--epochs", "--batch", "--per-class",
                  "--lr"},
    "eval-clf": {"--model", "--head", "--labeled-dir", "--domain", "--per-class"},
    "train-cyclegan-toy": {"--epochs", "--batch", "--patches"},
    "grad-check": set(),
}

#: the flags each subcommand requires besides --out-dir
REQUIRED = {
    **{c: {"--dataset"} for c in ("train-mcae", "train-stanosa", "eval-nfmse", "eval-hsd")},
    "train-clf": {"--model"},
    "eval-clf": {"--model", "--head"},
}

#: every accepted config key
CONFIG_KEYS = {
    "seed",
    "synth.triplets", "synth.size",
    "mcae.epochs", "mcae.lr", "mcae.batch", "mcae.stride", "mcae.k", "mcae.kmeans_sample",
    "stanosa.epochs", "stanosa.lr", "stanosa.batch", "stanosa.stride", "stanosa.domain",
    "nfmse.split",
    "hsd.pixels",
    "classifier.epochs", "classifier.lr", "classifier.batch", "classifier.per_class",
    "classifier.domain",
    "cyclegan.epochs", "cyclegan.batch", "cyclegan.patches",
}


def _nested(flat):
    config = {}
    for name, value in flat.items():
        block, _, key = name.rpartition(".")
        (config.setdefault(block, {}) if block else config)[key] = value
    return config


def test_flags_and_config_keys_are_pinned(tmp_path):
    subparsers = next(a for a in build_parser()._actions if a.dest == "command").choices
    assert set(subparsers) == set(FLAGS)
    choices = {}
    for command, parser in subparsers.items():
        flags = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        assert flags == FLAGS[command] | {"--config", "--seed", "--out-dir"}, command
        choices.update(((command, a.option_strings[0]), tuple(a.choices))
                       for a in parser._actions if a.choices)
        required = {a.option_strings[0] for a in parser._actions if a.required}
        assert required == {"--out-dir"} | REQUIRED.get(command, set()), command
    assert choices == {("eval-nfmse", "--split"): ("train", "test", "all")}
    assert len(CONFIG_KEYS) == 24 and set(SETTINGS) == CONFIG_KEYS
    # a file naming every key at its default (a first domain for the domains) loads
    every = {n: "A" if SETTINGS[n].default is None else SETTINGS[n].default for n in SETTINGS}
    path = tmp_path / "every.json"
    path.write_text(json.dumps(_nested(every)))
    assert load_config(str(path)) == every


@pytest.mark.parametrize("text, expected", [
    ('{"mcae": {"epochs": true}}', None),
    ('{"mcae": {"epochs": 3.0}}', None),
    ('{"mcae": {"lr": NaN}}', None),
    ('{"mcae": {"lr": Infinity}}', None),
    ('{"mcae": {"lr": 1' + "0" * 400 + '}}', None),
    ('{"nfmse": {"split": ["all"]}}', None),
    ('{"mcae.k": 3}', None),
    ('{"mcae": {"lr": 1}, "seed": -3}', {"mcae.lr": 1.0, "seed": -3}),
], ids=["bool-int", "float-int", "nan", "inf", "huge-int", "list-choice",
        "dotted-top-level", "int-for-float"])
def test_load_config_checks_each_type(tmp_path, text, expected):
    path = tmp_path / "config.json"
    path.write_text(text)
    if expected is None:
        with pytest.raises(UsageError):
            load_config(str(path))
    else:
        config = load_config(str(path))
        assert config == expected and type(config["mcae.lr"]) is float


def _write_config(tmp_path, config):
    if config is None:
        return []
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return ["--config", str(path)]


@pytest.mark.parametrize("command, flags, config, name, flag", [
    pytest.param("train-mcae", [], {"mcae": {"epochs": "many"}}, "mcae.epochs", "--epochs",
                 id="epochs-string"),
    pytest.param("train-mcae", ["--epochs", "-1"], None, "mcae.epochs", "--epochs",
                 id="epochs-negative"),
    pytest.param("synth", [], {"synth": {"triplets": 2.7}}, "synth.triplets", "--triplets",
                 id="triplets-float"),
    pytest.param("train-cyclegan-toy", [], {"cyclegan": {"saturating": True}},
                 "cyclegan.saturating", None, id="saturating-removed"),
    pytest.param("eval-hsd", [], {"seed": "abc"}, "seed", "--seed", id="seed-string"),
    pytest.param("eval-nfmse", [], {"nfmse": {"split": "val"}}, "nfmse.split", "--split",
                 id="split-unknown"),
    pytest.param("train-mcae", ["--batch", "0"], None, "mcae.batch", "--batch", id="batch-zero"),
    pytest.param("train-stanosa", [], {"stanosa": {"stride": 0}}, "stanosa.stride", "--stride",
                 id="stride-zero"),
    pytest.param("train-stanosa", [], {"stanosa": {"lr": -1}}, "stanosa.lr", "--lr",
                 id="lr-negative"),
    pytest.param("train-clf", [], {"classifier": {"pooling": "avg"}}, "classifier.pooling",
                 None, id="pooling-removed"),
    pytest.param("synth", [], {"synth": {"perturbations": {}}}, "synth.perturbations", None,
                 id="perturbations-removed"),
])
def test_bad_setting_is_usage_error_before_any_work(tmp_path, capsys, command, flags, config,
                                                    name, flag):
    # the dataset and model given would fail to load, with messages naming them: a message
    # naming the setting proves the check came first
    unloadable = ["--dataset", _truncated_ppm_dataset(tmp_path)]
    inputs = {
        "train-mcae": unloadable,
        "train-stanosa": unloadable,
        "eval-nfmse": [*unloadable, "--model", tmp_path / "missing.json"],
        "eval-hsd": unloadable,
        "train-clf": ["--model", tmp_path / "missing.json"],
    }.get(command, [])
    out = tmp_path / "o"
    code = main([command, *map(str, inputs), *flags, *_write_config(tmp_path, config),
                 "--out-dir", str(out)])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"]["type"] == "UsageError"
    # flag None: a key the settings table no longer has
    expected = f"unknown config key {name!r}" if flag is None else f"{name} ({flag})"
    assert expected in record["error"]["message"]
    assert not out.exists() or not any(out.iterdir())


def test_manifest_records_resolved_settings(tiny_dataset, tmp_path):
    out = tmp_path / "st"
    assert main(["train-stanosa", "--dataset", str(tiny_dataset), "--epochs", "1",
                 "--batch", "64", "--out-dir", str(out)]) == 0
    config = json.loads((out / "run_manifest.json").read_text())["config"]
    assert config == {"seed": 0, "stanosa": {
        "epochs": 1, "lr": 0.0002, "batch": 64, "stride": 8, "domain": "A"}}
    # the recorded settings are a config file that repeats the run bit for bit
    again = tmp_path / "again"
    assert main(["train-stanosa", "--dataset", str(tiny_dataset),
                 *_write_config(tmp_path, config), "--out-dir", str(again)]) == 0
    for name in ("stanosa_model.json", "stanosa_loss.csv"):
        assert (again / name).read_bytes() == (out / name).read_bytes()


@pytest.mark.parametrize("fault", ["no-labels", "missing-image", "malformed-labels"])
def test_broken_labeled_set_is_usage_error(tmp_path, capsys, fault):
    model = tmp_path / "model.json"
    _save_model(model)
    labeled = tmp_path / "labeled"
    classifier.save_labeled_set(classifier.generate_labeled_set(2, seed=1), labeled)
    broken = labeled / "labels.json"
    if fault == "no-labels":
        broken.unlink()
    elif fault == "missing-image":
        broken = labeled / json.loads(broken.read_text())["path"]
        broken.unlink()
    else:
        broken.write_text("{bad")
    code = main(["train-clf", "--model", str(model), "--labeled-dir", str(labeled),
                 "--epochs", "1", "--out-dir", str(tmp_path / "o")])
    _assert_usage_error_naming(code, capsys, broken)


def test_labeled_set_of_mixed_sizes_is_usage_error(tmp_path, capsys):
    model = tmp_path / "model.json"
    _save_model(model)
    labeled = tmp_path / "labeled"
    data = classifier.generate_labeled_set(2, size=16, seed=1)
    classifier.save_labeled_set(data, labeled)
    path = labeled / json.loads((labeled / "labels.json").read_text())["path"]
    images = list(data.images)
    images[3] = dataset.Image(np.zeros((24, 24, 3), np.uint8))
    dataset.save_ppm(images, path)
    code = main(["train-clf", "--model", str(model), "--labeled-dir", str(labeled),
                 "--epochs", "1", "--out-dir", str(tmp_path / "o")])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"]["type"] == "UsageError"
    message = record["error"]["message"]
    assert str(labeled / "labels.json") in message
    assert f"image 3 of {path} is 24x24" in message and f"image 0 of {path} is 16x16" in message


def test_malformed_dataset_manifest_is_usage_error(tiny_dataset, tmp_path, capsys):
    ds = tmp_path / "ds"
    shutil.copytree(tiny_dataset, ds)
    (ds / "manifest.json").write_text("{bad")
    code = main(["eval-hsd", "--dataset", str(ds), "--out-dir", str(tmp_path / "o")])
    _assert_usage_error_naming(code, capsys, ds / "manifest.json")


def _assert_listing_error(code, capsys, listing, key):
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"]["type"] == "UsageError"
    assert str(listing) in record["error"]["message"] and key in record["error"]["message"]


#: a one-domain manifest but for the key a case leaves out or changes
_PATHS = {"paths": {"A": "domain_A.ppm"}}


@pytest.mark.parametrize("document, key", [
    pytest.param([], "object", id="root-list"),
    pytest.param({"domains": ["A"], **_PATHS}, "'triplets'", id="no-triplets"),
    pytest.param({**_PATHS, "triplets": 1}, "'domains'", id="no-domains"),
    pytest.param({"domains": "A", **_PATHS, "triplets": 1}, "'domains'", id="domains-string"),
    pytest.param({"domains": ["A"], "triplets": 1}, "'paths'", id="no-paths"),
    pytest.param({"domains": ["A"], **_PATHS, "triplets": [{"id": 0}]}, "'triplets'",
                 id="triplet-number"),
    pytest.param({"domains": ["A", "B"], **_PATHS, "triplets": 1}, "'B' of 'paths'",
                 id="no-path-for-domain"),
    pytest.param({"domains": ["A"], **_PATHS, "triplets": 0}, "'triplets' of the root must "
                 "be an integer >= 1", id="no-triplet"),
    pytest.param({"domains": [], **_PATHS, "triplets": 1}, "'domains'", id="domains-empty"),
    pytest.param({"domains": ["A", "A", "B"], "paths": {
        "A": "domain_A.ppm", "B": "domain_B.ppm"}, "triplets": 1}, "'domains'",
        id="domains-repeated"),
    pytest.param({"domains": [1, 2], **_PATHS, "triplets": 1}, "'domains'",
                 id="domains-not-strings"),
    pytest.param({"domains": ["A", "B", "C"], "triplets": [{"id": 0, "paths": {
        "A": "triplet_00000_A.ppm", "B": "triplet_00000_B.ppm", "C": "triplet_00000_C.ppm"}}]},
        "'paths'", id="per-image-layout"),
])
def test_malformed_manifest_structure_is_usage_error(tiny_dataset, tmp_path, capsys, document,
                                                     key):
    ds = tmp_path / "ds"
    shutil.copytree(tiny_dataset, ds)
    (ds / "manifest.json").write_text(json.dumps(document))
    code = main(["eval-hsd", "--dataset", str(ds), "--out-dir", str(tmp_path / "o")])
    _assert_listing_error(code, capsys, ds / "manifest.json", key)


#: a one-image labelled set's listing but for the key a case leaves out or changes
_ONE = {"path": "images.ppm", "items": [{"label": 0}]}


@pytest.mark.parametrize("document, key", [
    pytest.param([], "object", id="root-list"),
    pytest.param({"classes": ["a"], "path": "images.ppm"}, "'items'", id="no-items"),
    pytest.param(_ONE, "'classes'", id="no-classes"),
    pytest.param({"classes": ["a"], "items": [{"label": 0}]}, "'path'", id="no-path"),
    pytest.param({"classes": ["a"], **_ONE, "items": [{}]}, "'label'", id="no-label"),
    pytest.param({"classes": ["a"], **_ONE, "items": [{"label": True}]}, "'label'",
                 id="label-bool"),
    pytest.param({"classes": ["a"], **_ONE, "items": [{"label": -1}]}, "class set",
                 id="label-negative"),
    pytest.param({"classes": ["a"], **_ONE, "items": [{"label": 1}]}, "class set",
                 id="label-too-large"),
    pytest.param({"classes": ["a"], **_ONE, "items": []}, "'items' is empty", id="no-item"),
    pytest.param({"classes": [], **_ONE}, "'classes'", id="classes-empty"),
    pytest.param({"classes": [1, 2], **_ONE}, "'classes'", id="classes-not-strings"),
    pytest.param({"classes": ["a", "a"], **_ONE}, "'classes'", id="classes-repeated"),
    pytest.param({"classes": ["a"], "items": [{"path": "image_00000.ppm", "label": 0}]},
                 "'path'", id="per-image-layout"),
])
def test_malformed_labels_structure_is_usage_error(tmp_path, capsys, document, key):
    model = tmp_path / "model.json"
    _save_model(model)
    labeled = tmp_path / "labeled"
    data = classifier.generate_labeled_set(1, seed=1)  # one image, as the listings list
    classifier.save_labeled_set(classifier.LabeledImageSet(
        data.images[:1], data.labels[:1], data.class_names), labeled)
    (labeled / "labels.json").write_text(json.dumps(document))
    code = main(["train-clf", "--model", str(model), "--labeled-dir", str(labeled),
                 "--epochs", "1", "--out-dir", str(tmp_path / "o")])
    _assert_listing_error(code, capsys, labeled / "labels.json", key)


def test_unknown_domain_names_its_setting(tiny_dataset, tmp_path, capsys):
    code = main(["train-stanosa", "--dataset", str(tiny_dataset), "--domain", "Z",
                 "--out-dir", str(tmp_path / "s")])
    assert code == 2
    message = json.loads(capsys.readouterr().err.strip())["error"]["message"]
    assert "stanosa.domain (--domain)" in message and "['A', 'B', 'C']" in message

    model = tmp_path / "model.json"
    _save_model(model)
    for command, extra in (("train-clf", []), ("eval-clf", ["--head", "missing.json"])):
        code = main([command, "--model", str(model), *extra, "--domain", "Z",
                     "--per-class", "2", "--out-dir", str(tmp_path / "c")])
        assert code == 2
        message = json.loads(capsys.readouterr().err.strip())["error"]["message"]
        assert "classifier.domain (--domain)" in message and "['A', 'B', 'C']" in message


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                 max_size=3),
    max_leaves=8,
)
_BLOCK_KEYS = sorted({n.rpartition(".")[2] for n in SETTINGS} | {"seed", "epoch"})
_DOCUMENTS = (
    st.dictionaries(
        st.sampled_from(sorted({n.partition(".")[0] for n in SETTINGS} | {"seeed", "mcae.k"})),
        _JSON | st.dictionaries(st.sampled_from(_BLOCK_KEYS),
                                _JSON | st.integers(-2, 3) | st.floats(-1, 2)),
    )
    | _JSON
)


@settings(max_examples=300, deadline=None)
@given(document=_DOCUMENTS, raw=st.none() | st.binary(max_size=20))
def test_any_json_config_fails_only_as_usage_error(tmp_path_factory, document, raw):
    path = tmp_path_factory.getbasetemp() / "fuzz-config.json"
    path.write_bytes(raw if raw is not None else json.dumps(document).encode())
    try:
        config = load_config(str(path))
        for command in COMMANDS:
            settings_ = resolve(command, argparse.Namespace(), config)
            assert settings_["seed"] == config.get("seed", 0)
    except UsageError:
        pass


def test_readme_lists_every_setting():
    # each row of the README's settings table is exactly its setting's key, flag, accepted
    # values and default, in the order of cli.SETTINGS
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in readme.splitlines() if line.startswith("| `")]
    expected = [
        [f"`{name}`", f"`{flag(name)}`", describe(name),
         "the first domain" if setting.default is None else f"`{json.dumps(setting.default)}`"]
        for name, setting in SETTINGS.items()
    ]
    assert rows == expected


def test_digest_driver_runs_every_command():
    # scripts/digest.py is the byte-identity check of a refactor: no subcommand may escape it
    path = Path(__file__).resolve().parents[1] / "scripts" / "digest.py"
    spec = importlib.util.spec_from_file_location("digest", path)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    runs = digest.stages("out", "labeled")
    assert {name for name, _ in runs} == set(COMMANDS)
    assert all(argv[0] == name for name, argv in runs)
