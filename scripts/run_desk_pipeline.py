#!/usr/bin/env python3
"""Desk-scale end-to-end run: synth -> train both models -> evaluate.

Produces, under --out-dir:
    dataset/            one multi-image PPM per domain + manifest
    mcae/               trained multi-channel model + loss log
    stanosa/            trained baseline + loss log
    nfmse/              per-triplet NFMSE tables + summary
    hsd/                chroma scatter samples + density SSIM table

and prints each pair's mean NFMSE and mean density SSIM beside the paper's
values (``metrics.REFERENCE_NFMSE``, ``metrics.REFERENCE_DENSITY_SSIM``).

Defaults finish in a few minutes on one core.  Raising --triplets, --epochs
and --lr gives a longer run but not the full-scale protocol (20,000
triplets, 300 epochs at learning rate 2e-4, sub-patch stride 4, batch 64):
this script always trains the MCAE at --batch 32 --stride 8.  For the full
protocol, run ``staininv train-mcae`` with the defaults of its settings.
"""

import argparse
import csv
import json
import os
import sys

from staininv.cli import main as cli
from staininv.metrics import REFERENCE_DENSITY_SSIM, REFERENCE_NFMSE


def run(args):
    rc = cli(args)
    if rc != 0:
        raise SystemExit(rc)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="runs/desk")
    parser.add_argument("--triplets", type=int, default=2000)
    parser.add_argument("--size", type=int, default=32)
    parser.add_argument("--epochs", type=int, default=50)
    parser.add_argument("--lr", type=float, default=0.001)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()

    out = args.out_dir
    ds = os.path.join(out, "dataset")
    seed = str(args.seed)
    epochs = str(args.epochs)
    lr = str(args.lr)

    run(["synth", "--triplets", str(args.triplets), "--size", str(args.size),
         "--seed", seed, "--out-dir", ds])
    run(["train-mcae", "--dataset", ds, "--epochs", epochs, "--lr", lr,
         "--batch", "32", "--stride", "8", "--seed", seed,
         "--out-dir", os.path.join(out, "mcae")])
    run(["train-stanosa", "--dataset", ds, "--epochs", epochs, "--lr", lr,
         "--seed", seed, "--out-dir", os.path.join(out, "stanosa")])
    run(["eval-nfmse", "--dataset", ds,
         "--model", os.path.join(out, "mcae", "mcae_model.json"),
         "--model", os.path.join(out, "stanosa", "stanosa_model.json"),
         "--seed", seed, "--out-dir", os.path.join(out, "nfmse")])
    run(["eval-hsd", "--dataset", ds, "--pixels", "5000", "--seed", seed,
         "--out-dir", os.path.join(out, "hsd")])

    with open(os.path.join(out, "nfmse", "nfmse_summary.json")) as fh:
        summary = json.load(fh)
    print("\nmean NFMSE on the held-out split (the paper's full-scale value in parentheses):")
    for pair in ("A-B", "A-C", "B-C"):
        key = tuple(pair.split("-"))
        ours = summary["models"]["mcae"][pair]["mean"]
        theirs = summary["models"]["stanosa"][pair]["mean"]
        paper_ours, paper_theirs = REFERENCE_NFMSE["mcae"][key], REFERENCE_NFMSE["stanosa"][key]
        print(f"  {pair}:  mcae {ours:.5f} ({paper_ours:.5f})   "
              f"stanosa {theirs:.5f} ({paper_theirs:.5f})   "
              f"ratio {ours / theirs:.3f} ({paper_ours / paper_theirs:.3f})")

    with open(os.path.join(out, "hsd", "density_ssim.csv"), newline="") as fh:
        ssim = {row["pair"]: float(row["mean"]) for row in csv.DictReader(fh)}
    print("\nmean density SSIM over all triplets (the paper's value in parentheses):")
    for pair in ("A-B", "A-C", "B-C"):
        paper_mean, _ = REFERENCE_DENSITY_SSIM[tuple(pair.split("-"))]
        print(f"  {pair}:  {ssim[pair]:.5f} ({paper_mean:.5f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
