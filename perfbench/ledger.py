"""The outside-in layer ledger: timing wrappers on each layer's entry points.

Only the traced run installs these wrappers, and only in its own process,
so the end-to-end runs execute the program untouched.  A wrapper opens a
*frame* on entry and closes it on exit; a layer's **self time** is its
frames' durations minus the time spent in frames opened inside them
(the choosing-metrics guide's definition).  Frames nest per thread; a
frame opened on a thread with nothing open (a QueryServer worker) is a
child of the innermost frame open on the op's own thread, which is the
client blocked on that statement.  So the self times of one op, summed
over every layer, equal the time the op spent inside wrapped calls, and
``unattributed`` -- op wall time minus that sum -- is what no layer
claims.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

__all__ = ["Ledger", "LAYER_ENTRY_POINTS", "SETUP_ENTRY_POINTS"]

_CALLS = lambda args, out: 1  # noqa: E731
_POINTS = lambda args, out: len(args[1])  # noqa: E731
_MESSAGES = lambda args, out: out.messages  # noqa: E731

#: (module, attribute path, layer, count metric, count fn) -- the public
#: entry points of every layer a query crosses.  A layer's self time is
#: the time in these calls not spent in another layer's.
LAYER_ENTRY_POINTS = [
    *[("repro.curves." + mod, f"{cls}.{fn}", "curves", "curves.points",
       _POINTS)
      for mod, cls in (("hilbert", "HilbertCurve"), ("morton", "MortonCurve"),
                       ("rowmajor", "RowMajorCurve"))
      for fn in ("index", "coords")],
    *[("repro.volumes.data_region", f"DataRegion.{fn}", "volumes", None, None)
      for fn in ("restrict", "band", "to_array", "to_bytes", "from_bytes",
                 "histogram", "mean", "min", "max")],
    *[("repro.volumes.volume", f"Volume.{fn}", "volumes", None, None)
      for fn in ("from_array", "to_array", "extract", "extract_all",
                 "to_bytes", "from_bytes", "parse_header", "values_at")],
    *[("repro.volumes.banding", fn, "volumes", None, None)
      for fn in ("band_region", "uniform_bands", "union_of_bands")],
    *[("repro.regions.region", f"Region.{fn}", "regions", None, None)
      for fn in ("from_coords", "from_mask", "from_runs", "from_box", "coords",
                 "to_mask", "bounding_box", "intersection", "union",
                 "difference", "complement", "contains", "isdisjoint",
                 "contains_points", "reorder", "to_bytes", "from_bytes")],
    *[("repro.regions.intervals", f"IntervalSet.{fn}", "regions", None, None)
      for fn in ("sweep", "from_indices", "from_mask", "indices", "to_mask",
                 "contains_indices", "rank_of")],
    *[("repro.compression.runcodecs", f"{cls}.{fn}", f"compression.{fn}",
       None, None)
      for cls in ("NaiveRunCodec", "EliasRunCodec", "_OctantCodecBase")
      for fn in ("encode", "decode")],
    ("repro.viz.dx", "DataExplorer.import_volume", "viz.import", None, None),
    ("repro.viz.dx", "DataExplorer.render", "viz.render", None, None),
    ("repro.net.rpc", "RpcChannel.send", "net.rpc", "net.messages",
     _MESSAGES),
    ("repro.db.sql.parser", "parse", "sql.parse", "sql.parse_calls", _CALLS),
    ("repro.db.semantic", "check", "semantic.analyze", None, None),
    ("repro.db.planner", "plan_select", "planner.plan", "planner.plans",
     _CALLS),
    ("repro.db.executor", "Executor.execute", "executor", None, None),
    ("repro.db.executor", "Executor.execute_select", "executor", None, None),
    ("repro.medical.server", "MedicalServer.execute", "medical", None, None),
    ("repro.medical.server", "MedicalServer.band_consistency_region",
     "medical", None, None),
    ("repro.core.system", "QbismSystem.query", "core", None, None),
    ("repro.core.system", "QbismSystem.multi_study_band", "core", None, None),
    ("repro.db.database", "Database.execute", "database", None, None),
    *[("repro.storage.lfm", f"{cls}.{fn}", "storage.read", None, None)
      for cls in ("LongFieldManager", "FieldTableView")
      for fn in ("read", "read_ranges")],
    ("repro.server.session", "Session.execute", "server", None, None),
    ("repro.server.server", "QueryServer._run_statement", "server", None,
     None),
    *[("repro.obs.recorder", f"_StatementScope.{fn}", "obs", None, None)
      for fn in ("__enter__", "__exit__", "note")],
    ("repro.obs.recorder", "annotate", "obs", None, None),
    *[("repro.obs.metrics", f"{cls}.{fn}", "obs", None, None)
      for cls, fn in (("Counter", "inc"), ("Gauge", "set"),
                      ("Histogram", "observe"))],
    *[("repro.obs.metrics", fn, "obs", None, None)
      for fn in ("counter", "gauge", "histogram")],
]

#: context managers whose *exit* is a layer's work: leaving a write
#: transaction seals it, publishes the snapshot and flushes the journal
LAYER_EXIT_POINTS = [
    ("repro.storage.wal", "WriteAheadLog.transaction", "storage.wal_commit"),
]

#: the QueryServer worker's entry point, whose admission-queue wait (the
#: pool measures it; the client spends it blocked) is booked to its own
#: layer instead of the client frame's self time
QUEUE_ENTRY = ("repro.server.server", "QueryServer._run_statement")


def _setup_sql_layer(args) -> str | None:
    sql = args[1].lstrip().lower()
    if sql.startswith("create spatial index"):
        return "setup.index"
    if sql.startswith("analyze"):
        return "setup.analyze"
    return None


#: the steps of ``QbismSystem.build_demo``, timed in the traced run's
#: set-up; a callable layer picks the step from the call's arguments
SETUP_ENTRY_POINTS = [
    ("repro.synthdata.phantom", "build_phantom", "setup.synth"),
    ("repro.synthdata.studies", "generate_pet_studies", "setup.synth"),
    ("repro.synthdata.studies", "generate_mri_studies", "setup.synth"),
    *[("repro.medical.loader", f"MedicalLoader.{fn}", "setup.loader")
      for fn in ("load_atlas", "register_patient", "load_raw_study",
                 "read_raw_study")],
    ("repro.medical.loader", "MedicalLoader.warp_study", "setup.warp"),
    ("repro.medical.loader", "MedicalLoader._store_bands", "setup.banding"),
    ("repro.db.database", "Database.execute", _setup_sql_layer),
]


class _Frame:
    __slots__ = ("layer", "start", "child")

    def __init__(self, layer, start):
        self.layer = layer
        self.start = start
        self.child = 0.0


class _TimedExit:
    """A context-manager proxy whose ``__exit__`` is one ledger frame."""

    __slots__ = ("_ledger", "_cm", "_layer")

    def __init__(self, ledger, cm, layer):
        self._ledger = ledger
        self._cm = cm
        self._layer = layer

    def __enter__(self):
        return self._cm.__enter__()

    def __exit__(self, *exc):
        frame = self._ledger._enter(self._layer)
        try:
            return self._cm.__exit__(*exc)
        finally:
            self._ledger._exit(frame)


class Ledger:
    """Per-layer self time and counts, accumulated between ``begin``/``end``.

    ``install`` patches the entry points in place (every module holding a
    module-level function by name gets the wrapped one too) and
    ``uninstall`` restores the originals.
    """

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        #: inclusive seconds of the outermost served/database calls, for
        #: the serving-overhead figure
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._root: _Frame | None = None
        self._op_stack: list | None = None
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # frames
    # ------------------------------------------------------------------ #

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list) -> _Frame | None:
        if stack:
            return stack[-1]
        if self._op_stack:
            return self._op_stack[-1]
        return self._root

    def _enter(self, layer: str) -> _Frame:
        frame = _Frame(layer, time.perf_counter())
        self._stack().append(frame)
        return frame

    def _exit(self, frame: _Frame) -> float:
        elapsed = time.perf_counter() - frame.start
        stack = self._stack()
        stack.pop()
        if self._root is not None:
            self.self_s[frame.layer] += elapsed - frame.child
            parent = self._parent(stack)
            if parent is not None:
                parent.child += elapsed
        return elapsed

    def book(self, layer: str, seconds: float) -> None:
        """Book ``seconds`` the current thread's parent frame spent waiting
        on something no wrapper can see, to ``layer``."""
        if self._root is None:
            return
        self.self_s[layer] += seconds
        parent = self._parent(self._stack())
        if parent is not None:
            parent.child += seconds

    def begin(self) -> None:
        """Start accounting one op (or the set-up) on this thread."""
        self._root = _Frame(None, time.perf_counter())
        self._op_stack = self._stack()

    def end(self) -> float:
        """Stop accounting; returns the seconds wrapped calls covered."""
        covered = self._root.child
        self._root = None
        self._op_stack = None
        return covered

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #

    def _timed(self, fn, layer, count_name=None, count_fn=None,
               inclusive=None):
        enter, leave = self._enter, self._exit
        counts, incl = self.counts, self.inclusive_s
        pick = layer if callable(layer) else None

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            name = pick(args) if pick is not None else layer
            if name is None:
                return fn(*args, **kwargs)
            frame = enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = leave(frame)
            if self._root is not None:
                if count_name is not None:
                    counts[count_name] += count_fn(args, out)
                if inclusive is not None:
                    incl[inclusive] += elapsed
            return out

        return timed

    def _queued(self, fn, layer):
        from repro.server.pool import current_wait_seconds

        @functools.wraps(fn)
        def queued(*args, **kwargs):
            self.book("server.queue_wait", current_wait_seconds())
            return fn(*args, **kwargs)

        return self._timed(queued, layer)

    def _exiting(self, fn, layer):
        @functools.wraps(fn)
        def exiting(*args, **kwargs):
            return _TimedExit(self, fn(*args, **kwargs), layer)

        return exiting

    def _patch(self, module: str, path: str, make) -> None:
        owner = importlib.import_module(module)
        *outer, name = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(make(raw.__func__))
        else:
            wrapped = make(raw)
        self._patches.append((owner, name, raw))
        setattr(owner, name, wrapped)
        if not outer:
            # ``from module import fn`` copies: rebind them all
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name.startswith("repro.") and mod is not owner
                        and getattr(mod, name, None) is raw):
                    self._patches.append((mod, name, raw))
                    setattr(mod, name, wrapped)

    def install(self) -> "Ledger":
        """Wrap every layer entry point of :data:`LAYER_ENTRY_POINTS`."""
        incl = {"Session.execute": "server", "Database.execute": "database"}
        for module, path, layer, count_name, count_fn in LAYER_ENTRY_POINTS:
            inclusive = incl.get(path)
            if (module, path) == QUEUE_ENTRY:
                self._patch(module, path,
                            lambda fn, l=layer: self._queued(fn, l))
                continue
            self._patch(module, path, lambda fn, l=layer, n=count_name,
                        c=count_fn, i=inclusive: self._timed(fn, l, n, c, i))
        for module, path, layer in LAYER_EXIT_POINTS:
            self._patch(module, path, lambda fn, l=layer: self._exiting(fn, l))
        return self

    def install_setup(self) -> "Ledger":
        """Wrap the set-up steps of :data:`SETUP_ENTRY_POINTS`."""
        for module, path, layer in SETUP_ENTRY_POINTS:
            self._patch(module, path, lambda fn, l=layer: self._timed(fn, l))
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute (latest patch first)."""
        while self._patches:
            owner, name, raw = self._patches.pop()
            setattr(owner, name, raw)

    def snapshot(self) -> tuple[dict, dict, dict]:
        """Copies of the running totals (diff two for one op's share)."""
        return dict(self.self_s), dict(self.counts), dict(self.inclusive_s)
