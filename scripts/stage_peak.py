#!/usr/bin/env python3
"""Peak memory of CLI stages: each stage in a fresh process, on a synthetic dataset.

Runs ``synth --triplets N --size 32``, then each named stage on that dataset,
every one in a child process of its own, and prints one JSON object whose
``peak_rss_mb`` maps each stage, ``synth`` first, to the peak resident set
size of its own process (``ru_maxrss`` of that child, in MB), and whose
``wall_s`` maps it to the wall seconds of that process, timed around it by
this script, interpreter start and package import included.  The trainers
run with ``--epochs 0``, so their peak is their set-up: loading the images,
splitting them and cutting the patch store.  The other settings are the
defaults, so ``--triplets 20000`` measures the full protocol's set-up.

    PYTHONPATH=src python scripts/stage_peak.py --triplets 20000
    PYTHONPATH=src python scripts/stage_peak.py --triplets 20 train-stanosa eval-hsd

The dataset and the stages' outputs go to a temporary directory, removed at
exit.  At 20,000 triplets the dataset is three files, one per domain, of
62 MB each.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

import staininv

#: stage -> the arguments it runs with after ``--dataset``
STAGES = {
    "train-mcae": ["--epochs", "0"],
    "train-stanosa": ["--epochs", "0"],
    "eval-hsd": [],
}


def run_stage(argv, env):
    """Run ``staininv <argv>`` in a child process; return its own peak RSS in MB and its
    wall seconds."""
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "staininv.cli", *argv], env=env,
                             stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)  # the child's own rusage, not every child's
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise SystemExit(f"staininv {' '.join(argv)} exited {child.returncode}")
    return usage.ru_maxrss / 1024.0, round(wall, 3)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("stages", nargs="*", metavar="stage",
                        help=f"a stage to measure after synth: {', '.join(STAGES)} (default: all)")
    parser.add_argument("--triplets", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()
    for stage in args.stages:
        if stage not in STAGES:
            parser.error(f"unknown stage {stage!r}; choose from {', '.join(STAGES)}")

    # the children import the package this script imported
    src = os.path.dirname(os.path.dirname(os.path.abspath(staininv.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    seed = ["--seed", str(args.seed)]
    peaks, walls = {}, {}
    with tempfile.TemporaryDirectory() as work:
        dataset = os.path.join(work, "dataset")
        runs = {"synth": ["synth", "--triplets", str(args.triplets), "--size", "32", *seed,
                          "--out-dir", dataset]}
        for stage in args.stages or STAGES:
            runs[stage] = [stage, "--dataset", dataset, *STAGES[stage], *seed,
                           "--out-dir", os.path.join(work, stage)]
        for stage, argv in runs.items():
            peaks[stage], walls[stage] = run_stage(argv, env)
    print(json.dumps({"triplets": args.triplets, "seed": args.seed, "peak_rss_mb": peaks,
                      "wall_s": walls}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
