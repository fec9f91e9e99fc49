"""Fast self-test of the benchmark at tiny sizes, run from the repository root:

    python3 bench/selftest.py

For every workload it makes one untraced and two traced runs in-process and
checks that each run is correct, that every metric named in BENCHMARK.json
is emitted with its unit, that the computed counts (calls, rows, GFLOP,
bytes, distance evaluations) repeat exactly, and that the traced call counts
equal what the workload's config implies.  Exits 0 on success.
"""

import os
import sys

import run

COMPUTED = ("calls", "rows", "gflop", "elements", "bytes", "dist_evals", "capped",
            "count_mismatches")


def _emitted(result, names):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in names}
    return got == want and all(
        isinstance(m["value"], (int, float)) for m in result["metrics"].values()
    )


def main():
    root = os.getcwd()
    sys.dont_write_bytecode = True
    run.configure_threads()
    if run.import_package(root) is None:
        print("selftest: no staininv sources under ./src", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    spec = run.load_spec(root)
    failures = []

    def expect(ok, what):
        print(f"selftest: {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for name in WORKLOADS:
        plain = run.run_benchmark(name, 5, 0, False, root, sizes="tiny")
        expect(plain["correct"], f"{name} untraced run correct")
        expect(_emitted(plain, spec["end_to_end"]), f"{name} emits every end-to-end metric")
        expect(all(m["value"] != 0 for m in plain["metrics"].values()),
               f"{name} end-to-end metrics are non-zero")
        traced = [run.run_benchmark(name, 5, 0, True, root, sizes="tiny") for _ in range(2)]
        expect(all(r["correct"] for r in traced), f"{name} traced runs correct")
        expect(all(_emitted(r, spec["per_layer"]) for r in traced),
               f"{name} emits every per-layer metric")
        counts = [
            {k: m["value"] for k, m in r["metrics"].items() if k.rsplit(".", 1)[1] in COMPUTED}
            for r in traced
        ]
        expect(counts[0] == counts[1], f"{name} computed counts repeat exactly")
        expect(counts[0]["trace.count_mismatches"] == 0,
               f"{name} call counts match the config")
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
