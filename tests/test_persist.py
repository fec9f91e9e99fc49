import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from staininv import cli, cyclegan, mcae
from staininv.numerics import LEAKY_SLOPE, DenseLayer, derive_seed, mlp_forward
from staininv.persist import (
    UsageError,
    autoencoder_stacks,
    dump_json,
    format_float,
    layer_from_record,
    layer_record,
    load_json,
    read_model,
    write_csv,
    write_json,
)


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_format_roundtrips_exactly(value):
    assert float(format_float(value)) == value


def test_format_has_17_significant_digits():
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(2.0) == "2"


def test_dump_load_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    doc = {
        "format": "test-v1",
        "values": [float(v) for v in rng.normal(size=7)],
        "nested": {"flag": True, "none": None, "n": 42},
        "empty": [],
    }
    path = tmp_path / "doc.json"
    dump_json(doc, path)
    back = load_json(path)
    assert back == doc
    # standard json parsers accept the output
    assert json.loads(path.read_text()) == doc


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
@example([-0.0, 0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1])
def test_dump_json_roundtrips_every_finite_double_bitwise(tmp_path_factory, values):
    path = tmp_path_factory.getbasetemp() / "floats.json"
    dump_json({"values": values, "first": values[0]}, path)
    back = load_json(path)
    assert np.array(back["values"]).view(np.uint64).tolist() == (
        np.array(values).view(np.uint64).tolist())
    assert np.float64(back["first"]).view(np.uint64) == np.float64(values[0]).view(np.uint64)


def _seventeen_digit_text(obj):
    """A document as model files were written before the standard library's encoder:
    every float at 17 significant digits (the indentation aside)."""
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_seventeen_digit_text(v)}"
                               for k, v in obj.items()) + "}"
    if isinstance(obj, list):
        return "[" + ", ".join(map(_seventeen_digit_text, obj)) + "]"
    return format_float(obj) if type(obj) is float else json.dumps(obj)


def test_model_file_in_17_digit_text_loads_to_the_same_weights(tmp_path):
    model = mcae.mcae_init(["A", "B"], seed=0, input_dim=48)
    model.kmeans = mcae.KMeansState(np.random.default_rng(6).normal(size=(3, model.feature_dim)))
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    mcae.save_mcae(model, new)
    old.write_text(_seventeen_digit_text(json.loads(new.read_text())) + "\n")
    assert len(old.read_bytes()) > len(new.read_bytes())
    want = np.concatenate([p.ravel() for p in mcae.mcae_params(model)] +
                          [model.kmeans.centroids.ravel()]).view(np.uint64)
    for path in (new, old):
        back = mcae.load_mcae(path)
        got = np.concatenate([p.ravel() for p in mcae.mcae_params(back)] +
                             [back.kmeans.centroids.ravel()]).view(np.uint64)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("leaf", [float("nan"), float("inf"), -float("inf")])
def test_dump_json_refuses_a_non_finite_float_and_leaves_no_file(tmp_path, leaf):
    path = tmp_path / "model.json"
    with pytest.raises(ValueError):
        dump_json({"format": "test-v1", "weights": [0.5, leaf]}, path)
    assert not path.exists()


@pytest.mark.parametrize("leaf", [np.float32(0.5), np.int64(3)])
def test_dump_json_refuses_a_numpy_scalar_and_leaves_no_file(tmp_path, leaf):
    # every writer hands over tolist() values; np.float64, a float subclass, is written
    path = tmp_path / "model.json"
    with pytest.raises(TypeError):
        dump_json({"format": "test-v1", "leaf": leaf}, path)
    assert not path.exists()


def test_cyclegan_summary_holds_the_means_as_numbers(tmp_path, monkeypatch):
    trained = []
    original = cyclegan.train_cyclegan
    monkeypatch.setattr(cyclegan, "train_cyclegan",
                        lambda *args: trained.append(original(*args)) or trained[-1])
    assert cli.main(["train-cyclegan-toy", "--epochs", "1", "--patches", "64", "--seed", "3",
                     "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "cyclegan_summary.json").read_text())
    domain_a, domain_b = cli._toy_colour_domains(64, derive_seed(3, "cyclegan-data"))
    means = {"mean_colour_a": domain_a, "mean_colour_b": domain_b,
             "mean_colour_f_of_a": mlp_forward(trained[0][0], domain_a)}
    assert set(summary) == set(means)
    for key, patches in means.items():
        assert all(type(v) is float for v in summary[key])
        want = patches.reshape(-1, 16, 3).mean((0, 1))
        assert np.array(summary[key]).view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_dense_record_roundtrip_bitwise():
    rng = np.random.default_rng(1)
    layer = DenseLayer(rng.normal(size=(4, 6)), rng.normal(size=4), "leaky_relu")
    record = json.loads(json.dumps(layer_record(layer)))
    assert record["leaky_slope"] == LEAKY_SLOPE == 0.01  # written for leaky layers only
    back = layer_from_record(record)
    assert np.array_equal(back.weights, layer.weights)
    assert np.array_equal(back.bias, layer.bias)
    assert back.activation == "leaky_relu"


def test_conv_record_roundtrip_bitwise():
    # a 3x3 convolution of 2 channels is a dense layer of 18 inputs, and has its record
    rng = np.random.default_rng(2)
    layer = DenseLayer(rng.normal(size=(3, 2 * 9)), rng.normal(size=3), "tanh")
    record = layer_record(layer)
    assert record["kind"] == "dense" and "leaky_slope" not in record
    assert record["shape"] == [3, 18]
    back = layer_from_record(json.loads(json.dumps(record)))
    assert np.array_equal(back.weights, layer.weights)
    assert np.array_equal(back.bias, layer.bias)
    assert back.activation == "tanh"
    with pytest.raises(ValueError, match="kind must be 'dense'"):
        layer_from_record({**record, "kind": "conv2d", "shape": [3, 2, 3, 3], "padding": 1})


def test_write_csv_formats_only_float_cells(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["id", "name", "value"],
              [[3, "a,b", 0.1], [np.int64(4), "", np.float64(2.0)]])
    assert path.read_bytes() == b'id,name,value\r\n3,"a,b",0.10000000000000001\r\n4,,2\r\n'


def test_write_json_is_sorted_and_indented(tmp_path):
    doc = {"b": [1, 2.5], "a": {"y": None, "x": "s"}}
    write_json(tmp_path / "d.json", doc)
    assert (tmp_path / "d.json").read_text() == (
        json.dumps(doc, indent=2, sort_keys=True) + "\n"
    )


def _dense(rng, n_out, n_in, activation="tanh"):
    return DenseLayer(rng.normal(size=(n_out, n_in)), rng.normal(size=n_out), activation)


def _records(layers, stage):
    return [dict(layer_record(layer), stage=stage, index=i) for i, layer in enumerate(layers)]


def test_autoencoder_stacks_orders_by_index_and_checks_chain():
    rng = np.random.default_rng(3)
    enc = [_dense(rng, 5, 8), _dense(rng, 2, 5)]
    dec = [_dense(rng, 5, 2), _dense(rng, 8, 5, "sigmoid")]
    records = _records(enc, "encoder") + _records(dec, "decoder")
    encoder, decoder = autoencoder_stacks(records[::-1])[None]
    for got, want in zip(encoder + decoder, enc + dec):
        assert np.array_equal(got.weights, want.weights)
    with pytest.raises(ValueError, match="0..n-1"):
        autoencoder_stacks(records[1:])  # encoder index 1 only
    with pytest.raises(ValueError, match="0..n-1"):
        autoencoder_stacks(records + records[:1])  # duplicate index 0
    with pytest.raises(ValueError, match="outputs feed"):
        autoencoder_stacks(_records(enc, "encoder") + _records(dec[1:], "decoder"))


def _model_doc():
    rng = np.random.default_rng(4)
    layers = _records([_dense(rng, 3, 4)], "encoder")
    layers += _records([_dense(rng, 4, 3)], "decoder")
    return {"format": "toy-v1", "layers": layers}


def _read(path):
    return read_model(path, {"toy-v1": lambda doc: autoencoder_stacks(doc["layers"])})


# the command-line tests cover the other faults, through real model files
@pytest.mark.parametrize("fault", ["inf-bias", "conv-kind", "bad-stage"])
def test_read_model_rejects_bad_files_naming_them(tmp_path, fault):
    doc = _model_doc()
    first = doc["layers"][0]
    if fault == "inf-bias":
        first["bias"][0] = float("inf")
    elif fault == "conv-kind":
        first["kind"] = "conv2d"
    else:
        first["stage"] = "middle"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(UsageError, match=str(path)):
        _read(path)


def test_read_model_parses_once(tmp_path, monkeypatch):
    import staininv.persist as persist

    path = tmp_path / "model.json"
    path.write_text(json.dumps(_model_doc()))
    calls = []
    original = persist.load_json
    monkeypatch.setattr(persist, "load_json", lambda p: calls.append(p) or original(p))
    encoder, decoder = _read(path)[None]
    assert calls == [path] and encoder[0].n_out == decoder[0].n_in == 3
