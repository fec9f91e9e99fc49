"""Benchmark of the staininv pipeline, run from the repository root.

    python3 bench/run.py --workload desk-train --seed 1 --seconds 20 --trace 0

Each run is one fresh process and one closed-loop client.  It imports
``staininv`` from ``./src``, builds the workload's inputs from ``--seed`` in a
set-up phase, then repeats the workload's timed pass of subcommands until
``--seconds`` have elapsed (at least once), checking every output.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics, from spans recorded around the
package's functions (see ``tracer.py``).  A traced run makes an untraced
set-up and pass before each traced one and requires the traced artifacts to
be byte-identical to the untraced ones.  The last line of standard output is
the JSON result; the line before it records the machine context.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

SETUP_REPEATS = 2
WORK_DIR = ".bench_work"
COUNT_STATS = ("calls", "rows", "elements", "bytes", "dist_evals", "capped")
TIME_STATS = ("busy_s", "self_s")


def configure_threads():
    """Cap BLAS and OpenMP pools at the cores this process may use.

    Must run before numpy is first imported.
    """
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = cores


def import_package(root):
    """Import staininv from ``<root>/src``; return its cli module or None."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "staininv", "cli.py")):
        return None
    sys.path.insert(0, src)
    from staininv import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        return None
    return cli


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def machine_context(workload, seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
    }


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, else the env setting."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def digest_tree(path):
    """sha256 of every file under path except run manifests (wall-clock)."""
    digests = {}
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            if name == "run_manifest.json":
                continue
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                digests[os.path.relpath(full, path)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


class Session:
    """Runs subcommands and checks, counting attempts and failures."""

    def __init__(self, cli_main):
        self.cli_main = cli_main
        self.attempted = 0
        self.failed = 0

    def record(self, label, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"bench: FAILED {label}", file=sys.stderr)

    def commands(self, script, tracer=None):
        """Run a script of subcommands in order; return the wall seconds."""
        start = time.perf_counter()
        for argv in script:
            if tracer is None:
                rc = self.cli_main(argv)
            else:
                with tracer.span(f"cli.{argv[0]}"):
                    rc = self.cli_main(argv)
            self.record(f"staininv {' '.join(argv)} (exit {rc})", rc == 0)
        return time.perf_counter() - start

    def checks(self, checks):
        for label, check in checks:
            try:
                ok = bool(check())
            except Exception as exc:  # noqa: BLE001 - a crashing check is a failed check
                print(f"bench: check {label!r} raised {exc!r}", file=sys.stderr)
                ok = False
            self.record(label, ok)


def _pass(session, workload, paths, reference, tracer=None):
    """Run the timed pass once; return its wall seconds and artifact digest.

    Without a reference the workload's output checks run on this pass;
    with one, the pass must reproduce the reference artifacts byte for byte.
    """
    shutil.rmtree(paths.run, ignore_errors=True)
    wall = session.commands(workload.pass_commands(paths), tracer)
    digest = digest_tree(paths.run)
    if reference is None:
        session.checks(workload.checks(paths))
    else:
        kind = "traced" if tracer is not None else "untraced"
        session.record(f"{kind} pass artifacts identical to the first pass", digest == reference)
    return wall, digest


def end_to_end(session, workload, paths, seconds):
    setup_times, setup_digest = [], None
    for i in range(SETUP_REPEATS):
        shutil.rmtree(paths.setup, ignore_errors=True)
        setup_times.append(session.commands(workload.setup_commands(paths)))
        digest = digest_tree(paths.setup)
        if setup_digest is None:
            setup_digest = digest
        else:
            session.record(f"set-up {i + 1} artifacts identical", digest == setup_digest)
    walls, reference = [], None
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        wall, digest = _pass(session, workload, paths, reference)
        reference = digest if reference is None else reference
        walls.append(wall)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "quality_loss": workload.quality_loss(paths),
    }


def _counts(stats):
    return {
        key: {s: v for s, v in stat.items() if s not in TIME_STATS}
        for key, stat in stats.items()
    }


def per_layer(session, workload, paths, seconds):
    from tracer import Tracer

    tracer = Tracer()
    session.commands(workload.setup_commands(paths))
    setup_digest = digest_tree(paths.setup)
    shutil.rmtree(paths.setup)
    with tracer.active():
        session.commands(workload.setup_commands(paths), tracer)
    setup_stats = tracer.take()
    session.record("traced set-up artifacts identical to the untraced set-up's",
                   digest_tree(paths.setup) == setup_digest)
    for key in tracer.missing:
        print(f"bench: no function {key} to trace; its metrics read 0", file=sys.stderr)
    # untraced and traced passes alternate, so drift in machine speed
    # cancels out of the overhead estimate
    plain, traced, pass_stats, reference = [], [], [], None
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        wall, digest = _pass(session, workload, paths, reference)
        reference = digest if reference is None else reference
        plain.append(wall)
        with tracer.active():
            traced.append(_pass(session, workload, paths, reference, tracer)[0])
        pass_stats.append(tracer.take())
    for i, stats in enumerate(pass_stats[1:], start=2):
        session.record(f"traced pass {i} counts repeat", _counts(stats) == _counts(pass_stats[0]))

    def value(key, stat):
        setup = setup_stats.get(key, {})
        if stat in TIME_STATS:
            return setup.get(stat, 0.0) + statistics.median(
                s.get(key, {}).get(stat, 0.0) for s in pass_stats
            )
        return setup.get(stat, 0) + pass_stats[0].get(key, {}).get(stat, 0)

    mismatches = [
        (key, calls, value(key, "calls"))
        for key, calls in sorted(workload.expected_calls().items())
        if value(key, "calls") != calls
    ]
    for key, want, got in mismatches:
        print(f"bench: {key} ran {got:g} times; the config implies {want}", file=sys.stderr)

    def metric(name):
        if name == "trace.overhead_s":
            return statistics.median(t - p for p, t in zip(plain, traced))
        if name == "trace.count_mismatches":
            return len(mismatches)
        key, stat = name.rsplit(".", 1)
        if key.startswith("cli.") and stat == "wall_s":
            return value(key, "busy_s")
        if stat == "gflop":
            return value(key, "flop") / 1e9
        if stat in COUNT_STATS:
            return int(value(key, stat))
        if stat in TIME_STATS:
            return value(key, stat)
        raise KeyError(f"no rule computes per-layer metric {name!r}")

    return metric


def run_benchmark(workload_name, seed, seconds, trace, root, sizes="full"):
    """One benchmark run in-process; returns the result object."""
    from staininv import cli
    from workloads import WORKLOADS, Paths

    spec = load_spec(root)
    workload = WORKLOADS[workload_name](seed, sizes)
    work = os.path.join(root, WORK_DIR, f"{workload_name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    session = Session(cli.main)
    paths = Paths(work)
    try:
        if trace:
            metric = per_layer(session, workload, paths, seconds)
            names = spec["per_layer"]
        else:
            metric = end_to_end(session, workload, paths, seconds).__getitem__
            names = spec["end_to_end"]
        metrics = {m["name"]: {"value": metric(m["name"]), "unit": m["unit"]} for m in names}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass  # another run still uses it
    return {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    sys.dont_write_bytecode = True
    configure_threads()
    if import_package(root) is None:
        print("bench: no staininv sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result = run_benchmark(args.workload, args.seed, args.seconds, args.trace, root)
    print(json.dumps({"context": machine_context(args.workload, args.seed)}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
