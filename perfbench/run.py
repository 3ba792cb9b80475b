"""Run one benchmark workload from this (fresh) process and print its result.

    python3 perfbench/run.py --workload repair_wide --seed 1 --seconds 40 --trace 0

Each fairdrop CLI call of the run is made in a child forked for it, and its
time is scaled by a calibration job that gauges the machine's speed while
the call runs (``calibration.py``).

Run it from the root of a source checkout: fairdrop is imported from the
checkout's ``src`` directory, never from an installed copy, and the run
fails without it.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are the ones ``BENCHMARK.json`` declares (end-to-end with ``--trace
0``, per-layer with ``--trace 1``).  Machine facts and a summary go to
standard error and to ``perfbench/runs/<workload>-trace<0|1>.json``; a traced
run also writes its spans to ``perfbench/runs/<workload>.spans.npz``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import sys

# The process computes on one thread: BLAS gets exactly one, set before numpy
# loads, so runs do not depend on how the scheduler shares the cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, "perfbench", "runs")


def _thread_count() -> int | None:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def machine_facts(usable_cpus: list, cpu: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(usable_cpus),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def declared_metrics(trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the measured rounds run (whole rounds, at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fairdrop", "__init__.py")):
        print(f"error: no fairdrop sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    import fairdrop
    from perfbench import tracer as tracing
    from perfbench import workloads

    if not os.path.abspath(fairdrop.__file__).startswith(SRC + os.sep):
        print(f"error: fairdrop imported from {fairdrop.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))
    # Every process of the run computes on one CPU, so the calibration job
    # gauges the CPU the CLI calls run on: the CPUs' speeds drift apart.
    usable_cpus = sorted(os.sched_getaffinity(0))
    cpu = usable_cpus[-1]
    os.sched_setaffinity(0, {cpu})

    work = os.path.join(RUNS, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tracer = tracing.Tracer() if args.trace else None
    undo = []
    try:
        if tracer:
            undo = tracing.install(tracer)
        outcome = workloads.run_workload(args.workload, args.seed, args.seconds, work, tracer)
    except workloads.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        tracing.uninstall(undo)
        shutil.rmtree(work, ignore_errors=True)

    # the CLI calls ran in child processes; the largest of them and this one
    peak_rss_mb = max(resource.getrusage(who).ru_maxrss
                      for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0
    e2e = workloads.end_to_end(outcome, peak_rss_mb)
    values = e2e
    if tracer:
        values = tracing.per_layer_metrics(tracing.Spans(tracer))
        tracer.save(os.path.join(RUNS, f"{args.workload}.spans.npz"))
    if set(values) != set(units):
        raise RuntimeError(f"computed metrics {sorted(values)} differ from BENCHMARK.json's "
                           f"{sorted(units)}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "machine": {**machine_facts(usable_cpus, cpu), "threads": _thread_count()},
        "setup_s": outcome.setup_s, "round_s": outcome.round_s,
        "setup_wall_s": outcome.setup_wall_s, "round_wall_s": outcome.round_wall_s,
        "job_s": outcome.job_s, "end_to_end": e2e,
        "problems": outcome.problems, "errors": outcome.errors,
    }
    with open(os.path.join(RUNS, f"{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({k: record[k] for k in ("machine", "setup_s", "round_s", "setup_wall_s",
                                              "round_wall_s", "end_to_end")}),
          file=sys.stderr)
    for line in outcome.problems + outcome.errors:
        print(f"problem: {line}", file=sys.stderr)

    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    # SIGTERM unwinds like an exception, so the run ends the child it waits for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
