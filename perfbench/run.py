"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload single-study --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, every timing host-normalised
(see ``host.py``); ``--trace 1`` is the separate traced run that prints
the per-layer ledger.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  README.md in
this directory explains every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: the interpreter's string-hash seed for every run (see _fixed_hash_seed)
HASH_SEED = "0"

#: set-ups per end-to-end run; ``setup_s`` is their median
SETUP_REPEATS = 3

#: latency percentiles are medians over this many blocks of a run's ops
PERCENTILE_BLOCKS = 5

#: (name, unit) of every end-to-end metric, in print order
END_TO_END = [
    ("setup_s", "s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
    ("op_p99_ms", "ms"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"),
    ("pages_per_op", "count"), ("stored_per_user_byte", "ratio"),
]

#: per-layer self-time metrics: ledger layer -> metric name
SELF_TIMES = {
    "curves": "curves.self_ms", "volumes": "volumes.self_ms",
    "regions": "regions.self_ms", "viz.import": "viz.import_ms",
    "viz.render": "viz.render_ms", "net.rpc": "net.rpc_ms",
    "sql.parse": "sql.parse_ms", "semantic.analyze": "semantic.analyze_ms",
    "planner.plan": "planner.plan_ms", "executor": "executor.self_ms",
    "compression.decode": "compression.decode_ms",
    "compression.encode": "compression.encode_ms",
    "medical": "medical.self_ms", "core": "core.self_ms",
    "server": "server.self_ms", "server.queue_wait": "server.queue_wait_ms",
    "obs": "obs.self_ms", "database": "database.self_ms",
    "storage.read": "storage.read_ms",
    "storage.wal_commit": "storage.wal_commit_ms",
}
COUNTS = {"curves.points": "count", "net.messages": "count",
          "sql.parse_calls": "count", "planner.plans": "count"}
SETUP_STEPS = ("synth", "loader", "warp", "banding", "index", "analyze",
               "other")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# --------------------------------------------------------------------- #
# measurement
# --------------------------------------------------------------------- #

class Run:
    """The ops of one measuring loop: raw times, outputs, ledger shares."""

    def __init__(self):
        self.when: list[float] = []  # op midpoints (perf_counter s)
        self.raw: list[float] = []  # op wall times, s
        self.pages: list[int] = []
        #: traced runs: (covered s, ledger totals before, after) per op
        self.shares: list[tuple] = []
        self.attempted = 0
        self.failed = 0
        self.next_op = 0  # the op index the next loop continues from

    def normalised(self, clock) -> np.ndarray:
        """Each op's wall time in normalised seconds."""
        return np.array([r * clock.scale_at(t)
                         for t, r in zip(self.when, self.raw)])


def measure(workload, clock, seconds: float, ledger=None,
            first_op: int = 0) -> Run:
    """Closed-loop ops for ``seconds`` (to a cycle boundary), reference
    kernel interleaved while the program is idle."""
    from host import REF_NEAREST

    run = Run()
    workload.idle()
    clock.sample(REF_NEAREST)
    start = time.perf_counter()
    i = first_op
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= 2 * seconds or (
                elapsed >= seconds and (i - first_op) % workload.cycle == 0):
            break
        if clock.due():
            workload.idle()
            clock.sample()
        thunk = workload.op(i)
        before = ledger.snapshot() if ledger is not None else None
        if ledger is not None:
            ledger.begin()
        t0 = time.perf_counter()
        try:
            out = thunk()
            error = None
        # The bench boundary: a failing op is counted, not fatal.
        except Exception as exc:  # noqa: BLE001
            error = exc
        t1 = time.perf_counter()
        covered = ledger.end() if ledger is not None else None
        run.attempted += 1
        if error is None:
            try:
                run.pages.append(workload.check(i, out))
            except Exception as exc:  # noqa: BLE001  (Mismatch included)
                error = exc
        if error is not None:
            run.failed += 1
            if run.failed <= 3:
                print(f"op {i} failed: {type(error).__name__}: {error}",
                      file=sys.stderr)
        else:
            run.when.append((t0 + t1) / 2)
            run.raw.append(t1 - t0)
            if ledger is not None:
                run.shares.append((covered, before, ledger.snapshot()))
        i += 1
    workload.idle()
    clock.sample(REF_NEAREST)
    run.next_op = i
    return run


def timed_setups(workload, clock, repeats: int) -> list[float]:
    """Normalised seconds of ``repeats`` fresh builds (the last is kept)."""
    values = []
    for _ in range(repeats):
        workload.close()
        gc.collect()
        before = clock.sample(3)
        t0 = time.perf_counter()
        workload.build()
        elapsed = time.perf_counter() - t0
        after = clock.sample(3)
        values.append(elapsed * clock.scale_for(before + after))
    return values


# --------------------------------------------------------------------- #
# the two kinds of run
# --------------------------------------------------------------------- #

def end_to_end(workload, clock, seconds: float) -> tuple[dict, Run]:
    setups = timed_setups(workload, clock, SETUP_REPEATS)
    workload.start()
    gc.collect()
    run = measure(workload, clock, seconds)
    ms = run.normalised(clock) * 1e3
    # each percentile is the median of its value over consecutive blocks
    # of the run, so a host stall confined to one or two blocks cannot
    # set the tail
    p50, p90, p99 = np.median(
        [np.percentile(block, [50, 90, 99])
         for block in np.array_split(ms, PERCENTILE_BLOCKS)], axis=0)
    values = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": p50, "op_p90_ms": p90, "op_p99_ms": p99,
        "ops_per_s": len(ms) / (ms.sum() / 1e3),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "pages_per_op": float(np.mean(run.pages)),
        "stored_per_user_byte": workload.stored_per_user_byte(),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}, run


def traced(workload, clock, seconds: float) -> tuple[dict, Run]:
    from ledger import Ledger

    metrics: dict[str, tuple[float, str]] = {}
    workload.close()
    gc.collect()
    setup = Ledger().install_setup()
    try:
        before = clock.sample(3)
        setup.begin()
        t0 = time.perf_counter()
        workload.build()
        elapsed = time.perf_counter() - t0
        covered = setup.end()
        after = clock.sample(3)
    finally:
        setup.uninstall()
    scale = clock.scale_for(before + after)
    steps = dict(setup.self_s)
    steps["setup.other"] = elapsed - covered
    for step in SETUP_STEPS:
        metrics[f"setup.{step}_s"] = (steps.get(f"setup.{step}", 0.0) * scale,
                                      "s")

    workload.start()
    gc.collect()
    plain = measure(workload, clock, seconds / 2)
    ledger = Ledger().install()
    try:
        gc.collect()
        run = measure(workload, clock, seconds / 2, ledger=ledger,
                      first_op=plain.next_op)
    finally:
        ledger.uninstall()

    plain_ms = plain.normalised(clock) * 1e3
    run_ms = run.normalised(clock) * 1e3
    n = len(run_ms)
    self_ms: dict[str, float] = dict.fromkeys(SELF_TIMES.values(), 0.0)
    counts: dict[str, float] = dict.fromkeys(COUNTS, 0.0)
    unattributed = overhead = 0.0
    for op_ms, raw, (covered, before, after) in zip(run_ms, run.raw,
                                                    run.shares):
        scale_ms = op_ms / raw  # this op's ms per raw second
        for layer, total in after[0].items():
            name = SELF_TIMES[layer]
            self_ms[name] += (total - before[0].get(layer, 0.0)) * scale_ms
        for name, total in after[1].items():
            counts[name] += total - before[1].get(name, 0.0)
        incl = {k: v - before[2].get(k, 0.0) for k, v in after[2].items()}
        if incl.get("server", 0.0) > 0:
            overhead += (incl["server"] - incl.get("database", 0.0)) * scale_ms
        unattributed += (raw - covered) * scale_ms
    for name, total in self_ms.items():
        metrics[name] = (total / n, "ms")
    for name, total in counts.items():
        metrics[name] = (total / n, COUNTS[name])
    writes = getattr(workload, "writes", 0)
    metrics.update({
        "server.overhead_ms": (overhead / n, "ms"),
        "storage.journal_bytes_per_write": (
            workload.journal_bytes / writes if writes else 0.0, "bytes"),
        "storage.pages_read": (float(np.mean(run.pages)), "count"),
        "ledger.op_ms": (float(np.mean(run_ms)), "ms"),
        "unattributed_ms": (unattributed / n, "ms"),
        "trace.overhead_frac": (
            float(np.median(run_ms) / np.median(plain_ms) - 1), "ratio"),
        "host.ref_kernel_ms": (clock.median_ms(), "ms"),
        "raw.op_p50_ms": (float(np.median(plain.raw) * 1e3), "ms"),
    })
    both = Run()
    both.attempted = plain.attempted + run.attempted
    both.failed = plain.failed + run.failed
    return metrics, both


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    from host import HostClock
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    clock = HostClock(workload.kernel)
    clock.sample(10)  # let the kernel's own caches settle
    clock.times.clear()
    clock.durations.clear()
    try:
        if args.trace:
            metrics, run = traced(workload, clock, args.seconds)
        else:
            metrics, run = end_to_end(workload, clock, args.seconds)
    finally:
        workload.close()
    fail_frac = run.failed / max(run.attempted, 1)
    for name, (value, unit) in [*metrics.items(),
                                ("op_fail_frac", (fail_frac, "ratio"))]:
        print(f"{args.workload:13s} {name:34s} {value:14.6f} {unit}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    if args.trace:
        result["metrics"]["op_fail_frac"] = {"value": fail_frac,
                                             "unit": "ratio"}
    print(json.dumps(result))
    return 0


def _fixed_hash_seed() -> None:
    """Re-execute under a fixed ``PYTHONHASHSEED``.

    String hashing is randomised per process, which reorders set and dict
    iteration -- among others the planner's enumeration order -- from run
    to run.  A fixed hash seed makes one ``--seed`` one repeatable run.
    """
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = {**os.environ, "PYTHONHASHSEED": HASH_SEED}
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def _one_cpu() -> None:
    """Pin this process, and so every thread it starts, to one CPU.

    The served workload hands each statement from the client thread to a
    QueryServer worker and back.  Left free, the two threads land on the
    same or on different CPUs from run to run, and a hand-off across CPUs
    costs more; on one CPU every run pays the same.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # no affinity control here: run free
        pass


if __name__ == "__main__":
    _fixed_hash_seed()
    _one_cpu()
    sys.exit(main())
