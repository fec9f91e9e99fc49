"""Artifact formats: model files, CSV tables and JSON result documents.

Model files are versioned JSON (``mcae-v1``, ``stanosa-v1``,
``clf-head-v2``) of dense layer records, the one record format.  Every
JSON file is written by the standard library's encoder, whose floats are
the shortest decimals that reload to the same double, so save -> load
reproduces parameters bit-for-bit (a file of 17-digit decimals loads to
the same bits too).  Model files are one line; small result documents
(summaries, manifests) are indented with sorted keys.  CSV cells are
written with 17 significant digits, which identify every finite double
as well.  PPM images keep their own reader and writer (``dataset``).

Every check of outside input goes through this module: it raises the one
error type, UsageError, opens input files with the one opener, and reads
JSON with the one object reader (config files, listings), the one value
check and the model-file reader.
"""

import csv
import json
import math
import sys

import numpy as np

from .numerics import LEAKY_SLOPE, DenseLayer


class UsageError(ValueError):
    """Bad input: a flag, a config key or an input file.  The message names it, and the
    command line exits 2."""


#: what a value of each JSON kind is called in a message
KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string", list: "a list",
              dict: "a JSON object"}

#: a bound on a checked value, by its name in messages
BOUNDS = {
    "": lambda v: True,
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    # every stage cuts an image into 8x8 patches, the classifier into a whole grid of them
    ">= 8 and a multiple of 8": lambda v: v >= 8 and v % 8 == 0,
    "> 0": lambda v: v > 0,
}


def describe(kind, bound=""):
    """What a check accepts, e.g. ``an integer >= 1``; a tuple kind lists allowed strings."""
    if isinstance(kind, tuple):
        return "one of " + ", ".join(kind)
    return f"{KIND_NAMES[kind]} {bound}".rstrip()


def checked(value, kind, what, bound=""):
    """A parsed JSON value as a ``kind`` within ``bound``, or a UsageError ``{what} must be ...``.

    A bool is no integer and a number is finite; an integer stands for the
    float it equals.  A tuple kind lists the strings allowed.
    """
    if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    if isinstance(kind, tuple):
        ok = value in kind
    else:
        ok = isinstance(value, kind) and not isinstance(value, bool)
        ok = ok and (kind is not float or math.isfinite(value))
    if not (ok and BOUNDS[bound](value)):
        raise UsageError(f"{what} must be {describe(kind, bound)}, got {value!r}")
    return value


def open_input(path, what, mode="r"):
    """The input file at ``path``, open; a UsageError names the ``what`` and the file when
    it cannot be opened."""
    try:
        return open(path, mode)
    except (OSError, ValueError) as exc:  # open refuses a name with a NUL by a ValueError
        raise UsageError(f"cannot read {what} {path}: {getattr(exc, 'strerror', exc)}") from None


def read_json_object(path, what):
    """The JSON object in a file; a UsageError names the ``what`` and the file when it
    cannot be read, is not JSON, or holds another kind of value."""
    with open_input(path, what) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise UsageError(f"malformed {what} {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise UsageError(f"malformed {what} {path}: the root must be a JSON object")
    return doc


def format_float(value):
    return format(float(value), ".17g")


def write_csv(path, header, rows):
    """Write a header and rows; float cells get 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [format_float(v) if isinstance(v, (float, np.floating)) else v for v in row]
            )


def write_json(path, doc):
    """Write a result document as indented JSON with sorted keys."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def dump_json(obj, path):
    """Write a model document in the standard library's JSON text: each float in its
    shortest form that reloads to the same double.  A document with a NaN or an
    infinity is refused with a ValueError, and one with a leaf JSON lacks (a numpy
    int64 or float32, say) with a TypeError, before the file is opened."""
    text = json.dumps(obj, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def float_array(values, what, shape):
    """A finite float64 array from a parsed JSON list; None in ``shape`` is any size."""
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, arr.shape)):
        raise ValueError(f"{what} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what}: non-finite value")
    return arr


# --- layer records: the one record format, of a DenseLayer ---


def layer_record(layer):
    """Record (kind "dense") of a DenseLayer."""
    record = {
        "kind": "dense",
        "shape": list(layer.weights.shape),
        "weights": layer.weights.reshape(-1).tolist(),
        "bias": layer.bias.tolist(),
        "activation": layer.activation,
    }
    if layer.activation == "leaky_relu":
        record["leaky_slope"] = LEAKY_SLOPE
    return record


def layer_from_record(record):
    """Rebuild the DenseLayer of a record, checking its kind, sizes, finite values and
    the leaky slope."""
    if record["kind"] != "dense":
        raise ValueError(f"layer kind must be 'dense', got {record['kind']!r}")
    weights = float_array(record["weights"], "layer weights", (None,))
    weights = weights.reshape(record["shape"])
    bias = float_array(record["bias"], "layer bias", weights.shape[:1])
    slope = record.get("leaky_slope", LEAKY_SLOPE)
    if slope != LEAKY_SLOPE:
        raise ValueError(f"leaky_slope must be {LEAKY_SLOPE}, got {slope!r}")
    return DenseLayer(weights, bias, record["activation"])


def layer_chain(records, what):
    """Layers from consecutive records, each fed by the one before."""
    layers = [layer_from_record(record) for record in records]
    for prev, layer in zip(layers, layers[1:]):
        if layer.n_in != prev.n_out:
            raise ValueError(f"{what}: {prev.n_out} outputs feed a layer of {layer.n_in} inputs")
    return layers


def autoencoder_records(encoder, decoder, **fields):
    """Layer records tagged with ``fields``, stage and index; see autoencoder_stacks."""
    return [
        {**layer_record(layer), **fields, "stage": stage, "index": index}
        for stage, stack in (("encoder", encoder), ("decoder", decoder))
        for index, layer in enumerate(stack)
    ]


def autoencoder_stacks(records, group=None):
    """{group value: (encoder, decoder)} from layer records with stage and index.

    Records are grouped by their ``group`` field (one group keyed None when
    ``group`` is None); each stack's indices must run 0..n-1, and dims must
    chain through the encoder and then the decoder.
    """
    stacks = {}
    for record in records:
        stages = stacks.setdefault(record.get(group), {"encoder": [], "decoder": []})
        if record["stage"] not in stages:
            raise ValueError(f"unknown layer stage {record['stage']!r}")
        stages[record["stage"]].append(record)
    result = {}
    for name, stages in stacks.items():
        what = f"{group} {name}" if group else "auto-encoder"
        for stage, stack in stages.items():
            stack.sort(key=lambda record: record["index"])
            if not stack or [r["index"] for r in stack] != list(range(len(stack))):
                raise ValueError(f"{what}: {stage} layer indices must run 0..n-1")
        layers = layer_chain(stages["encoder"] + stages["decoder"], what)
        split = len(stages["encoder"])
        result[name] = (layers[:split], layers[split:])
    return result


def read_model(path, builders):
    """Parse a model file once and build it with the builder for its format.

    ``builders`` maps format tags to functions of the parsed document.  A
    missing or unparsable file, an unknown format tag, or a document the
    builder rejects raises a UsageError naming the file.
    """
    try:
        doc = load_json(path)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read model file {path}: {exc}") from None
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if not isinstance(fmt, str) or fmt not in builders:
        raise UsageError(
            f"unrecognised model format {fmt!r} in {path}; "
            f"expected {' or '.join(builders)}"
        )
    try:
        return builders[fmt](doc)
    except KeyError as exc:
        raise UsageError(f"invalid {fmt} file {path}: missing key {exc}") from None
    except (TypeError, ValueError, IndexError, AttributeError) as exc:
        raise UsageError(f"invalid {fmt} file {path}: {exc}") from None
