"""The three workloads, each timed from outside through the public API.

Every workload is a closed loop with one client: the next op starts only
after the previous one returned and was checked.  The query definitions
come from :mod:`repro.bench.workloads` and :mod:`repro.bench.concurrency`
so there is one definition of "Q2's box", "the Table 4 band" and "the
served statement pool" in the tree.

A workload object builds its system (:meth:`build`, the timed set-up),
captures the expected outputs (:meth:`start`, untimed), hands out one op
at a time as a zero-argument callable (:meth:`op`, whose call is the
timed part) and checks each op's output (:meth:`check`, untimed), which
returns the LFM pages the op read or raises :class:`Mismatch`.
"""

from __future__ import annotations

import functools
import hashlib
import random
import sys
import time

from repro.bench.concurrency import WRITE_EVERY, build_query_pool
from repro.bench.workloads import TABLE4_ENCODINGS, run_table3, run_table4
from repro.core.system import QbismSystem

__all__ = ["Mismatch", "SingleStudy", "MultiStudy", "ServedMix",
           "WORKLOADS"]


class Mismatch(Exception):
    """An op's output differs from the one captured at warm-up."""


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _raw_bytes(system) -> int:
    """Bytes of raw study data the loader stored (uint8 voxels)."""
    rows = system.db.execute("select width, height, depth from rawVolume").rows
    return sum(w * h * d for w, h, d in rows)


class _Workload:
    """What the three workloads share: a system, an idle program."""

    #: ops per cycle; a run stops only at a cycle boundary, so every run
    #: covers each distinct op equally often
    cycle = 1

    #: the reference-kernel mix this workload's time tracks (host.py)
    kernel = "mixed"

    grid_side = 32

    def __init__(self, seed: int, grid_side: int | None = None):
        self.seed = seed
        if grid_side is not None:
            self.grid_side = grid_side
        self.system: QbismSystem | None = None

    def build(self):
        """The timed set-up: a fully loaded system."""
        self.system = QbismSystem.build_demo(seed=self.seed,
                                             grid_side=self.grid_side,
                                             **self._build_options())
        return self.system

    def _build_options(self) -> dict:
        return {}

    def stored_per_user_byte(self) -> float:
        """LFM stored bytes per raw study byte loaded."""
        return self.system.lfm.stored_bytes / _raw_bytes(self.system)

    def idle(self) -> None:
        """Return once the program has no runnable work (synchronous)."""

    def close(self) -> None:
        """Release what :meth:`build` started."""
        self.system = None


class SingleStudy(_Workload):
    """One Table 3 pass (Q1-Q6) per op, cycling through the PET studies.

    The paper-scale read path: MedicalServer -> RPC -> DX import -> MIP
    render, at grid 64 where curve decode/scatter is the largest layer.
    """

    name = "single-study"
    cycle = 5
    #: most of a pass is numpy array code: curve decode/scatter, render
    kernel = "array"
    grid_side = 64

    def start(self) -> None:
        self.studies = list(self.system.pet_study_ids)
        self.cycle = len(self.studies)
        self.expected = {}
        for i in range(self.cycle):
            outcomes = self.op(i)()
            self.expected[self.studies[i]] = {
                q: (_digest(o.result.payload), o.timing.lfm_page_ios)
                for q, o in outcomes.items()
            }

    def op(self, i: int):
        k = i % len(self.studies)
        # run_table3 queries the first PET study; rotate so op i asks for
        # study i mod 5 (restored order every cycle)
        self.system.pet_study_ids = self.studies[k:] + self.studies[:k]
        self._study = self.studies[k]
        return functools.partial(run_table3, self.system)

    def check(self, i: int, outcomes) -> int:
        expected = self.expected[self._study]
        got = {q: (_digest(o.result.payload), o.timing.lfm_page_ios)
               for q, o in outcomes.items()}
        if got != expected:
            raise Mismatch(f"study {self._study}: Table 3 outputs changed")
        return sum(pages for _, pages in got.values())


class MultiStudy(_Workload):
    """The Table 4 triple per op: the 5-study band 128-159 intersection
    under h-runs, z-runs and octants.  Planner and executor dominate;
    curve work is under 1%."""

    name = "multi-study"

    def _build_options(self) -> dict:
        return {"band_encodings": tuple(TABLE4_ENCODINGS)}

    @staticmethod
    def _summary(rows) -> dict:
        return {enc: (row.result_runs, row.result_voxels, row.lfm_page_ios)
                for enc, (_, row) in rows.items()}

    def start(self) -> None:
        self.expected = self._summary(self.op(0)())

    def op(self, i: int):
        return functools.partial(run_table4, self.system)

    def check(self, i: int, rows) -> int:
        got = self._summary(rows)
        if got != self.expected:
            raise Mismatch(f"Table 4 outputs changed: {got}")
        return sum(pages for _, _, pages in got.values())


class ServedMix(_Workload):
    """One served statement per op, through QueryServer and a session.

    The seeded shuffle of the served statement pool, with an INSERT into
    ``patient`` after every WRITE_EVERY-th read, uncached (the pool
    repeats, so a result cache would time dict lookups).  One client and
    one worker keep the thread count within the host's two vCPUs.
    """

    name = "served-mix"

    def __init__(self, seed: int, grid_side: int | None = None):
        super().__init__(seed, grid_side)
        self.server = None
        self.session = None
        self._next_patient = 1_000_000
        self.journal_bytes = 0
        self.writes = 0

    def _build_options(self) -> dict:
        return {"wal": True}

    def build(self):
        from repro.server import QueryServer

        self.close()
        system = super().build()
        self.server = QueryServer(system.db, workers=1, result_cache=False)
        self.session = self.server.connect(name="perfbench")
        return system

    def start(self) -> None:
        db = self.system.db
        pool = build_query_pool(db)
        random.Random(self.seed).shuffle(pool)
        self.expected = {sql: db.execute(sql).rows for sql in pool}
        self.statements: list[str | None] = []
        for j, sql in enumerate(pool):
            self.statements.append(sql)
            if j % WRITE_EVERY == WRITE_EVERY - 1:
                self.statements.append(None)  # an INSERT goes here
        self.cycle = len(self.statements)
        for i in range(self.cycle):  # warm every path once
            self.check(i, self.op(i)())
        self.journal_bytes = 0
        self.writes = 0

    def op(self, i: int):
        sql = self.statements[i % self.cycle]
        self._sql = sql
        if sql is None:
            self._patient = self._next_patient
            self._next_patient += 1
            self._journal_before = self._journal_written()
            sql = (f"insert into patient values "
                   f"({self._patient}, 'bench', '1990-01-01', 'F', 33)")
        return functools.partial(self.session.execute, sql)

    def _journal_written(self) -> int:
        return self.system.device.journal_stats.bytes_written

    def check(self, i: int, result) -> int:
        pages = result.io.pages_read if result.io is not None else 0
        if self._sql is not None:
            if result.rows != self.expected[self._sql]:
                raise Mismatch(f"served rows differ: {self._sql}")
            return pages
        self.idle()
        self.journal_bytes += self._journal_written() - self._journal_before
        self.writes += 1
        seen = self.system.db.execute(
            "select count(*) from patient where patientId = ?",
            [self._patient]).scalar()
        if result.rowcount != 1 or seen != 1:
            raise Mismatch(f"INSERT of patient {self._patient} not visible")
        return pages

    def idle(self) -> None:
        pool = self.server.pool
        deadline = time.perf_counter() + 5.0
        while not _pool_idle(pool):
            if time.perf_counter() > deadline:
                raise RuntimeError("QueryServer pool never went idle")
            time.sleep(0)

    def close(self) -> None:
        if self.server is not None:
            self.session.close()
            self.server.close()
        self.server = self.session = None
        super().close()


def _pool_idle(pool) -> bool:
    """No statement queued and every worker parked in its condition wait."""
    if pool.pending:
        return False
    frames = sys._current_frames()
    for thread in pool._threads:
        frame = frames.get(thread.ident)
        if frame is None:  # exited
            continue
        if not (frame.f_code.co_name == "wait" and frame.f_back is not None
                and frame.f_back.f_code.co_name == "_worker"):
            return False
    return True


WORKLOADS = {w.name: w for w in (SingleStudy, MultiStudy, ServedMix)}
