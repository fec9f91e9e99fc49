#!/usr/bin/env python3
"""Criterion 5 at several seeds: MCAE-to-baseline NFMSE ratios per domain pair.

Each seed runs ``staininv.experiment.run_desk(seed)``, the desk experiment
whose seed 2024 is criterion 5: 2,000 chromatic-only 32 px triplets, an 80/20
split, the 50-epoch MCAE and the 50-epoch GCN+ZCA baseline, both evaluated on
the held-out split.  The JSON written to --out, which has no default, holds,
per seed, both models' mean NFMSE and their ratio for each pair, and per pair
the min, median and max ratio over the seeds.  So a sweep writes over the
committed ten-seed ``SEED_SWEEP.json`` only when --out names it.  Criterion
5 needs every ratio below ``experiment.RATIO_BOUND``.  The printed summary
sets each pair's median beside the paper's full-scale ratio
(``metrics.REFERENCE_NFMSE``).

    PYTHONPATH=src python scripts/seed_sweep.py --seeds 2024 2025 2026 2027 \\
        --out sweep.json

A seed takes about 50 s on a 2-core machine.  The arguments are checked
before the first seed runs.
"""

import argparse
import os
import sys
import time

import numpy as np

from staininv import experiment, persist
from staininv.metrics import REFERENCE_NFMSE


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[2024, 2025, 2026, 2027])
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args()
    repeated = sorted({s for s in args.seeds if args.seeds.count(s) > 1})
    if repeated:
        parser.error(f"--seeds: repeated seed {', '.join(map(str, repeated))}")
    if os.path.isdir(args.out) or not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        parser.error(f"--out: {args.out} is not a file in an existing directory")

    per_seed = {}
    for seed in args.seeds:
        t0 = time.perf_counter()
        records = per_seed[str(seed)] = experiment.pair_ratios(experiment.run_desk(seed))
        ratios = ", ".join(f"{p}={r['ratio']:.4f}" for p, r in records.items())
        print(f"seed {seed}: {ratios} ({time.perf_counter() - t0:.0f}s)", flush=True)

    summary = {}
    for pair in records:
        ratios = [per_seed[s][pair]["ratio"] for s in per_seed]
        summary[pair] = {
            "min": min(ratios), "median": float(np.median(ratios)), "max": max(ratios),
        }
    doc = {
        "fixture": "staininv.experiment.run_desk(seed)",
        "bound": experiment.RATIO_BOUND,
        "seeds": per_seed,
        "ratios": summary,
        "holds": all(s["max"] < experiment.RATIO_BOUND for s in summary.values()),
    }
    persist.write_json(args.out, doc)
    print(f"MCAE/baseline NFMSE ratio over {len(per_seed)} seeds (the paper's in parentheses):")
    for pair, s in summary.items():
        key = tuple(pair.split("-"))
        paper = REFERENCE_NFMSE["mcae"][key] / REFERENCE_NFMSE["stanosa"][key]
        print(f"  {pair}:  median {s['median']:.3f} ({paper:.3f})   "
              f"min {s['min']:.3f}   max {s['max']:.3f}")
    return 0 if doc["holds"] else 1


if __name__ == "__main__":
    sys.exit(main())
