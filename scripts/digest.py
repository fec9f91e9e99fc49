#!/usr/bin/env python3
"""Byte-identity driver: run every CLI stage at small shapes and hash each artifact.

A refactor that claims to leave behaviour alone proves it by printing the
same digests before and after the change.  At seed 5 the driver runs
``synth`` (200 triplets), 3-epoch ``train-mcae`` (batch 32, stride 8) and
``train-stanosa`` (on domains A and B), ``eval-nfmse`` on both models (test
split and all triplets), ``eval-hsd``, and ``train-clf`` then ``eval-clf``
(5 epochs) on each model, on the MCAE's domain-B encoder, and on a labelled
set that ``classifier.save_labeled_set`` writes for ``--labeled-dir``; then
a 40-epoch toy CycleGAN and ``grad-check``.  It prints one ``sha256  path``
line per artifact, sorted by path, then the artifact count: 35, of which
the dataset (one multi-image PPM per domain and ``manifest.json``) and the
labelled set (``images.ppm`` and ``labels.json``) are 6 and the stages'
outputs 29.  ``run_manifest.json`` is left out: it records wall time.

    PYTHONPATH=src python scripts/digest.py > before.txt
    # ... change the code ...
    PYTHONPATH=src python scripts/digest.py > after.txt
    diff before.txt after.txt

It takes a few seconds on a 2-core machine.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

from staininv import classifier
from staininv.cli import main as cli

SEED = "5"


def write_labeled_set(out):
    """Write the labelled set that the ``--labeled-dir`` stages read; return its directory."""
    directory = os.path.join(out, "labeled")
    data = classifier.generate_labeled_set(12, size=24, seed=int(SEED))
    classifier.save_labeled_set(data, directory)
    return directory


def stages(out, labeled_dir):
    """(name, argv) of each CLI run, in order; every one writes under ``out``."""
    ds = os.path.join(out, "dataset")
    models = {
        "mcae": os.path.join(out, "mcae", "mcae_model.json"),
        "stanosa": os.path.join(out, "stanosa", "stanosa_model.json"),
    }
    nfmse = ["--dataset", ds, "--model", models["mcae"], "--model", models["stanosa"]]
    runs = [
        ("synth", ["--triplets", "200", "--out-dir", ds]),
        ("train-mcae", ["--dataset", ds, "--epochs", "3", "--batch", "32", "--stride", "8",
                        "--out-dir", os.path.join(out, "mcae")]),
        ("train-stanosa", ["--dataset", ds, "--epochs", "3",
                           "--out-dir", os.path.join(out, "stanosa")]),
        ("train-stanosa", ["--dataset", ds, "--epochs", "3", "--domain", "B",
                           "--out-dir", os.path.join(out, "stanosa-B")]),
        ("eval-nfmse", [*nfmse, "--out-dir", os.path.join(out, "nfmse")]),
        ("eval-nfmse", [*nfmse, "--split", "all", "--out-dir", os.path.join(out, "nfmse-all")]),
        ("eval-hsd", ["--dataset", ds, "--out-dir", os.path.join(out, "hsd")]),
    ]
    classifiers = {  # output directory suffix -> the labelled data and encoder flags
        "mcae": ["--model", models["mcae"], "--per-class", "20"],
        "stanosa": ["--model", models["stanosa"], "--per-class", "20"],
        "mcae-B": ["--model", models["mcae"], "--per-class", "20", "--domain", "B"],
        "labeled": ["--model", models["mcae"], "--labeled-dir", labeled_dir],
    }
    for name, labeled in classifiers.items():
        clf = os.path.join(out, f"clf-{name}")
        runs.append(("train-clf", [*labeled, "--epochs", "5", "--out-dir", clf]))
        runs.append(("eval-clf", [*labeled, "--head", os.path.join(clf, "clf_head.json"),
                                  "--out-dir", os.path.join(clf, "eval")]))
    runs.append(("train-cyclegan-toy", ["--epochs", "40", "--out-dir",
                                        os.path.join(out, "cyclegan")]))
    runs.append(("grad-check", ["--out-dir", os.path.join(out, "grad-check")]))
    return [(name, [name, "--seed", SEED, *argv]) for name, argv in runs]


def digests(out):
    """{relative path: sha256} of every file under ``out`` but the run manifests."""
    result = {}
    for root, _, names in os.walk(out):
        for name in names:
            if name == "run_manifest.json":
                continue
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                result[os.path.relpath(path, out)] = hashlib.sha256(fh.read()).hexdigest()
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", help="keep the artifacts here (default: a temporary "
                        "directory, removed afterwards)")
    args = parser.parse_args()

    with contextlib.ExitStack() as stack:
        out = args.out_dir or stack.enter_context(tempfile.TemporaryDirectory())
        for name, argv in stages(out, write_labeled_set(out)):
            with contextlib.redirect_stdout(io.StringIO()):  # grad-check prints its table
                rc = cli(argv)
            if rc != 0:
                print(f"{name} exited {rc}", file=sys.stderr)
                return rc
        table = digests(out)
    for path in sorted(table):
        print(f"{table[path]}  {path}")
    print(f"{len(table)} artifacts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
