#!/usr/bin/env python3
"""Criterion 5 at several seeds: MCAE-to-baseline NFMSE ratios per domain pair.

Each seed runs ``run_desk(seed)`` from ``tests/test_acceptance.py``, the
function behind criterion 5's fixture (which is ``run_desk(2024)``): 2,000
chromatic-only 32 px triplets, an 80/20 split, the 50-epoch MCAE and the
50-epoch GCN+ZCA baseline, both evaluated on the held-out split.  The JSON
written to --out holds, per seed, both models' mean NFMSE and their ratio for
each pair, and per pair the min, median and max ratio over the seeds.
Criterion 5 needs every ratio below the test's ``RATIO_BOUND``.

    PYTHONPATH=src python scripts/seed_sweep.py --seeds 2024 2025 2026 2027 \\
        --out SEED_SWEEP.json

A seed takes about 50 s on a 2-core machine.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from staininv import persist

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"))
from test_acceptance import RATIO_BOUND, run_desk  # noqa: E402

PAIRS = ("A-B", "A-C", "B-C")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[2024, 2025, 2026, 2027])
    parser.add_argument("--out", default="SEED_SWEEP.json")
    args = parser.parse_args()

    per_seed = {}
    for seed in args.seeds:
        t0 = time.perf_counter()
        run = run_desk(seed)
        per_seed[str(seed)] = {
            pair: {
                "mcae": run["mcae_summary"][pair]["mean"],
                "stanosa": run["stanosa_summary"][pair]["mean"],
                "ratio": run["mcae_summary"][pair]["mean"] / run["stanosa_summary"][pair]["mean"],
            }
            for pair in PAIRS
        }
        ratios = ", ".join(f"{p}={per_seed[str(seed)][p]['ratio']:.4f}" for p in PAIRS)
        print(f"seed {seed}: {ratios} ({time.perf_counter() - t0:.0f}s)", flush=True)

    summary = {}
    for pair in PAIRS:
        ratios = [per_seed[s][pair]["ratio"] for s in per_seed]
        summary[pair] = {
            "min": min(ratios), "median": float(np.median(ratios)), "max": max(ratios),
        }
    doc = {
        "fixture": "tests/test_acceptance.py run_desk(seed)",
        "bound": RATIO_BOUND,
        "seeds": per_seed,
        "ratios": summary,
        "holds": all(s["max"] < RATIO_BOUND for s in summary.values()),
    }
    persist.write_json(args.out, doc)
    print(json.dumps(summary, sort_keys=True))
    return 0 if doc["holds"] else 1


if __name__ == "__main__":
    sys.exit(main())
