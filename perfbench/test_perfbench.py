"""Tests of the benchmark itself, at grid 32.

    PYTHONPATH=src python -m pytest perfbench -q

They check the per-op correctness checks (and the paper's grid-32 page
pins), that host normalisation measures a known CPU-bound delay, that the
reference kernel only runs while the program is idle, that the traced
ledger adds up, and the command-line contract.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import host  # noqa: E402
import run as bench  # noqa: E402
from workloads import (  # noqa: E402
    Mismatch, MultiStudy, ServedMix, SingleStudy, _pool_idle,
)

from repro.bench.workloads import TABLE4_ENCODINGS, run_table3, run_table4  # noqa: E402
from repro.core.system import QbismSystem  # noqa: E402

TABLE3_PINS = {"Q1": 9, "Q2": 9, "Q3": 10, "Q4": 6, "Q5": 6, "Q6": 5}
SEED = 1994


@pytest.fixture(scope="module")
def single():
    workload = SingleStudy(SEED, grid_side=32)
    workload.build()
    workload.start()
    yield workload
    workload.close()


@pytest.fixture(scope="module")
def multi():
    workload = MultiStudy(SEED)
    workload.build()
    workload.start()
    yield workload
    workload.close()


@pytest.fixture(scope="module")
def served():
    workload = ServedMix(SEED)
    workload.build()
    workload.start()
    yield workload
    workload.close()


def test_grid32_page_pins():
    system = QbismSystem.build_demo(grid_side=32,
                                    band_encodings=tuple(TABLE4_ENCODINGS))
    pages = {q: o.timing.lfm_page_ios for q, o in run_table3(system).items()}
    assert pages == TABLE3_PINS
    table4 = {enc: row.lfm_page_ios
              for enc, (_, row) in run_table4(system).items()}
    assert table4 == dict.fromkeys(TABLE4_ENCODINGS, 5)


def test_single_study_checks_every_study(single):
    first = single.studies[0]
    for i in range(single.cycle):
        assert single.check(i, single.op(i)()) > 0
    # the warm-up capture of the first study matches the paper pins
    assert {q: pages for q, (_, pages) in single.expected[first].items()} \
        == TABLE3_PINS
    outcomes = single.op(1)()
    other = single.studies[0]
    single._study = other  # study 1's outputs checked against study 0's
    with pytest.raises(Mismatch):
        single.check(1, outcomes)


def test_multi_study_checks_runs_voxels_pages(multi):
    assert multi.check(0, multi.op(0)()) == 15
    rows = multi.op(1)()
    region, row = rows["octant"]
    rows["octant"] = (region, dataclasses.replace(
        row, result_voxels=row.result_voxels + 1))
    with pytest.raises(Mismatch):
        multi.check(1, rows)


def test_served_mix_checks_reads_and_inserts(served):
    for i in range(2 * 25 + 2):
        served.check(i, served.op(i)())
    assert served.writes == 2
    assert served.journal_bytes > 0
    read = next(i for i, s in enumerate(served.statements) if s is not None)
    result = served.op(read)()
    result.result.rows.append(("extra",))
    with pytest.raises(Mismatch):
        served.check(read, result)


def _p50(workload, seconds, delay_kernels=0):
    keys = np.random.default_rng(7).integers(0, 1 << 15, 100_000)
    op = workload.op

    def delayed(i):
        thunk = op(i)

        def run():
            out = thunk()
            gc.disable()  # as while sampling: no collection of the heap
            try:
                for _ in range(delay_kernels):
                    host.reference_kernel(keys, workload.kernel == "mixed")
            finally:
                gc.enable()
            return out
        return run

    workload.op = delayed
    try:
        clock = host.HostClock(workload.kernel)
        result = bench.measure(workload, clock, seconds)
    finally:
        del workload.op
    assert result.failed == 0
    return float(np.median(result.normalised(clock))) * 1e3


def test_normalisation_measures_a_known_delay(multi):
    """Ten reference kernels inside each op add ten nominal kernel times
    to the normalised median, within 25% (measured: 6-17% over, as the op
    itself runs slower after the kernels have evicted its caches)."""
    base = _p50(multi, 2.0)
    delayed = _p50(multi, 2.0, delay_kernels=10)
    added = 10 * host.REF_NOMINAL_MS[multi.kernel]
    print(f"base {base:.2f} ms, delayed {delayed:.2f} ms, added {added} ms")
    assert delayed - base == pytest.approx(added, rel=0.25)


def test_reference_kernel_runs_only_while_idle(served):
    seen = []
    real = host.HostClock(served.kernel)._kernel

    def spy():
        seen.append(_pool_idle(served.server.pool))
        return real()

    clock = host.HostClock(served.kernel, kernel=spy)
    result = bench.measure(served, clock, 1.0,
                           first_op=served.cycle * 10)
    assert result.failed == 0
    assert len(seen) >= 10 and all(seen)


@pytest.mark.parametrize("fixture", ["single", "multi", "served"])
def test_ledger_adds_up(fixture, request):
    workload = request.getfixturevalue(fixture)
    metrics, result = bench.traced(workload, host.HostClock(workload.kernel),
                                   2.0)
    assert result.failed == 0
    op_ms = metrics["ledger.op_ms"][0]
    layers = sum(metrics[name][0] for name in bench.SELF_TIMES.values())
    unattributed = metrics["unattributed_ms"][0]
    assert layers + unattributed == pytest.approx(op_ms, rel=1e-9)
    assert 0 <= unattributed < 0.10 * op_ms
    assert metrics["planner.plans"][0] > 0
    assert metrics["storage.pages_read"][0] > 0
    setup = sum(v for k, (v, _) in metrics.items() if k.startswith("setup."))
    assert setup > 0


def test_command_prints_result_last(capsys):
    assert bench.main(["--workload", "multi-study", "--seed", "3",
                       "--seconds", "0.5", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert [*result["metrics"]] == [name for name, _ in bench.END_TO_END]


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "multi-study",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
