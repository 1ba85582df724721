"""dagmix benchmark: one workload, closed loop, one caller, one call at a time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gold-complete --seed 0 --seconds 10 --trace 0

The run builds the workload's inputs from ``--seed``, warms up with one
small call, then repeats the workload's fixed call list (a pass) until
``--seconds`` have elapsed, checking every result.  BLAS runs on one
thread, so a 2-core machine keeps a core for the system.

``--trace 0`` runs every pass twice, on the program and on the frozen seed
copy in ``perfbench/seedref``, the two taking turns operation by operation.
It reports the program's pass time as a ratio to the seed copy's (wall and
CPU), set-up time (median of three fresh interpreters, timed from outside),
peak resident memory and the mean held-out negative log density of the
learned models; the raw pass times are printed too.  ``--trace 1``
alternates untraced and traced passes of the program and reports the
per-layer metrics of the first traced pass plus the tracing overhead; its
spans go to ``.bench_work/traces/``.

Each metric is printed on its own line with its unit; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    # BLAS reads these when numpy loads, so they are set before the imports.
    for _var in PINNED_THREADS:
        os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    FULL,
    TINY,
    WORKLOADS,
    complete,
    import_dagmix,
    import_seed_copy,
    interleave,
    result_digest,
)

SETUP_PROBES = 3
# A median over three pairs of passes outvotes one pair that a burst of
# machine load split; runs with long passes measure past --seconds for it.
MIN_PAIRS = 3
PROBE_TIMEOUT_S = 120


class PassTimer:
    """Times the calls of one pass; the checks between them are not timed."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.wall = 0.0
        self.cpu = 0.0

    def __call__(self, op: int, fn, *args):
        if self.tracer is not None:
            self.tracer.op = op
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            return fn(*args)
        finally:
            self.wall += time.perf_counter() - wall
            self.cpu += time.process_time() - cpu


class Tally:
    """Operations attempted and failed, and the result digest of each pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests: list[str] = []
        self.heldout_nll: list[float] = []
        self.arc_diff: int | None = None

    def add(self, outcomes) -> None:
        self.attempted += len(outcomes)
        for o in outcomes:
            if o.failed:
                self.failed += 1
                print(f"failed operation: {'; '.join(o.problems)}", file=sys.stderr)
        self.digests.append(result_digest(outcomes))
        if len(self.digests) == 1:
            self.heldout_nll = [o.heldout_nll for o in outcomes if o.heldout_nll is not None]
            diffs = [o.learned.arc_diff for o in outcomes
                     if o.learned is not None and o.learned.arc_diff is not None]
            self.arc_diff = diffs[-1] if diffs else None

    @property
    def reproducible(self) -> bool:
        return len(set(self.digests)) == 1


def setup_seconds(args, workdir: str) -> list[float]:
    probe = os.path.join(ROOT, "perfbench", "setup_probe.py")
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = os.path.join(workdir, f"probe-{i}")
        os.makedirs(probe_dir)
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, probe, args.workload, str(args.seed), args.size, probe_dir],
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=PROBE_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
    return times


def run_untraced(sides, seconds: float) -> list[list[PassTimer]]:
    """Run passes of each (workload, tally) side until ``seconds`` pass.

    The sides' passes take turns operation by operation, and the sides take
    turns going first, so neither always runs on a cache the other warmed.
    """
    timers: list[list[PassTimer]] = [[] for _ in sides]
    deadline = time.perf_counter() + seconds
    while True:
        order = list(range(len(sides)))
        if len(timers[0]) % 2:
            order.reverse()
        now = {i: PassTimer() for i in order}
        outcomes = interleave([sides[i][0].run_pass(now[i]) for i in order])
        for i, result in zip(order, outcomes):
            sides[i][1].add(result)
            timers[i].append(now[i])
        if time.perf_counter() >= deadline and len(timers[0]) >= MIN_PAIRS:
            return timers


def run_traced(workload, modules, seconds: float, tally: Tally):
    """Alternate untraced and traced passes; keep the first traced pass."""
    untraced, traced = [], []
    first = None
    deadline = time.perf_counter() + seconds
    while True:
        timer = PassTimer()
        tally.add(complete(workload.run_pass(timer)))
        untraced.append(timer.wall)
        tracer = Tracer(modules)
        tracer.install()
        try:
            timer = PassTimer(tracer)
            tally.add(complete(workload.run_pass(timer)))
        finally:
            tracer.uninstall()
        traced.append(timer.wall)
        first = first or tracer
        if time.perf_counter() >= deadline:
            return first, untraced, traced


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **{var: os.environ.get(var, "unset") for var in PINNED_THREADS},
    }


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{len(values)} pass"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of {len(values)} passes, quartiles {q1:.4f} .. {q3:.4f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the benchmark's own smoke tests")
    args = parser.parse_args(argv)

    modules = import_dagmix(ROOT)
    sizes = TINY if args.size == "tiny" else FULL
    base = os.path.join(ROOT, ".bench_work")
    workdir = os.path.join(base, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setup = [] if args.trace else setup_seconds(args, workdir)
        workload = WORKLOADS[args.workload](args.seed, sizes, workdir, modules)
        workload.warm_up()
        tally = Tally()
        if args.trace:
            tracer, untraced, traced = run_traced(workload, modules, args.seconds, tally)
        else:
            seed_dir = os.path.join(workdir, "seed-copy")
            os.makedirs(seed_dir)
            seed_copy = WORKLOADS[args.workload](args.seed, sizes, seed_dir, import_seed_copy())
            seed_copy.warm_up()
            seed_tally = Tally()
            own, seed = run_untraced(((workload, tally), (seed_copy, seed_tally)), args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not tally.heldout_nll:
        print(f"no operation returned a model ({tally.failed} of {tally.attempted} "
              "failed); nothing to report", file=sys.stderr)
        return 1
    print("environment " + " ".join(f"{k}={v}" for k, v in environment().items()))
    print(f"workload {args.workload} seed {args.seed}: closed loop, one caller; "
          f"{len(tally.digests)} passes, {tally.attempted} operations")
    print(f"digest {tally.digests[0]} "
          f"({'identical in every pass' if tally.reproducible else 'DIFFERS between passes'})")
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        metrics = tracer.metrics()
        metrics["stats.masks"] = (workload.training_masks(), "count")
        metrics["trace.overhead_pct"] = (
            100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0), "%"
        )
        traces = os.path.join(base, "traces")
        os.makedirs(traces, exist_ok=True)
        tracer.write(os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl"))
        for name, (value, unit) in sorted(metrics.items()):
            print(f"{name} {value:.6g} {unit}")
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        walls, cpus = [t.wall for t in own], [t.cpu for t in own]
        seed_walls, seed_cpus = [t.wall for t in seed], [t.cpu for t in seed]
        metrics = {
            # Each pass over the seed copy's pass that ran alongside it.
            "wall_vs_seed": (statistics.median(
                a / b for a, b in zip(walls, seed_walls)), "ratio"),
            "cpu_vs_seed": (statistics.median(
                a / b for a, b in zip(cpus, seed_cpus)), "ratio"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            "heldout_nll_per_case": (statistics.fmean(tally.heldout_nll), "nats"),
        }
        same = seed_tally.digests[0] == tally.digests[0]
        print(f"seed copy digest {seed_tally.digests[0]} "
              f"({'same as' if same else 'differs from'} the program's)")
        print(f"wall_s {statistics.median(walls):.4f} s ({quartiles(walls)})")
        print(f"cpu_s {statistics.median(cpus):.4f} s ({quartiles(cpus)})")
        print(f"seed_wall_s {statistics.median(seed_walls):.4f} s ({quartiles(seed_walls)})")
        print(f"wall_vs_seed {metrics['wall_vs_seed'][0]:.4f} ratio "
              f"(median over {len(walls)} pairs of passes run alongside each other)")
        print(f"cpu_vs_seed {metrics['cpu_vs_seed'][0]:.4f} ratio")
        print(f"setup_s {metrics['setup_s'][0]:.4f} s "
              f"(median of {len(setup)}: {', '.join(f'{s:.3f}' for s in setup)})")
        print(f"peak_rss_mb {metrics['peak_rss_mb'][0]:.1f} MB")
        print(f"heldout_nll_per_case {metrics['heldout_nll_per_case'][0]:.6f} nats")
        print(f"failed_ops {tally.failed / tally.attempted:.4f} fraction "
              f"({tally.failed} of {tally.attempted} attempted)")
        if tally.arc_diff is not None:
            print(f"arc_diff_total {tally.arc_diff} count")
    seed_ok = bool(args.trace) or (seed_tally.failed == 0 and seed_tally.reproducible)
    result = {
        "correct": tally.failed == 0 and tally.reproducible and seed_ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
