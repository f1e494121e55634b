"""Catalog-resident statistics and spatial indexes (the optimizer's food).

Two structures live here, both hanging off :class:`~repro.db.table.Table`
and versioned with the MVCC snapshot they were captured under:

* :class:`TableStats` — per-column statistics.  Scalar columns keep exact
  value counters (the tables are small metadata relations; a counter *is*
  the histogram).  LONGFIELD columns additionally keep per-distinct-region
  spatial metadata — bounding box, run count, voxel count, payload size,
  Hilbert packing key — once ``ANALYZE`` has paid the one-time cost of
  reading each region payload.  DML maintains everything incrementally;
  a from-scratch ``ANALYZE`` must always reproduce the incremental state
  (tests/test_stats_properties.py holds the engine to that).

* :class:`SpatialIndex` — a named index over one LONGFIELD column: rows
  bucketed by distinct region value under a Hilbert-packed
  :class:`~repro.regions.rtree.RegionRTree` over those values' bounding
  boxes.  ``probe(lower, upper)`` returns candidate rows whose region MBR
  overlaps the box; the caller re-checks the exact predicate, so false
  positives cost time, never correctness.

Freshness is stamp-based: both structures record the owning table's
``(uid, mutations)`` after maintenance.  Any mutation that bypassed
maintenance (direct ``Table`` pokes, crash-recovery reload) leaves the
stamp behind, the planner sees ``fresh() == False`` and falls back to
default selectivities and plain scans, and the next ``ANALYZE`` repairs
everything.  Mutable state is guarded by a per-structure lock ranked
below every storage-layer lock — region payloads are always parsed
*before* the lock is taken, so stats maintenance never holds its lock
across LFM reads.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass

from repro.concurrency import lockdep
from repro.db.schema import TableSchema
from repro.db.types import SqlType
from repro.errors import CatalogError, ValidationError
from repro.regions.region import Region
from repro.regions.rtree import RegionRTree, RTreeEntry, hilbert_sort_key

__all__ = [
    "RegionCellStats",
    "TableStats",
    "SpatialIndex",
    "region_cell_stats",
    "run_count_bucket",
    "PAGE_SIZE",
]

#: long-field page size, for translating payload bytes into page I/Os
PAGE_SIZE = 4096


def run_count_bucket(runs: int) -> int:
    """The log2 histogram bucket of a run count (0, 1, 2-3, 4-7, ...)."""
    return int(runs).bit_length()


@dataclass(frozen=True)
class RegionCellStats:
    """Spatial metadata of one *distinct* region value (immutable)."""

    lower: tuple[int, ...]      #: bounding box lower corner (inclusive)
    upper: tuple[int, ...]      #: bounding box upper corner (exclusive)
    runs: int                   #: run-list length
    voxels: int                 #: member voxel count
    nbytes: int                 #: serialized payload length
    hilbert: int                #: Hilbert packing key (see regions.rtree)

    @property
    def pages(self) -> int:
        """Page I/Os one read of this payload costs (at least one)."""
        return max(1, -(-self.nbytes // PAGE_SIZE))

    def entry(self, key: object) -> RTreeEntry:
        """This cell as an R-tree entry under ``key``."""
        return RTreeEntry(key, self.lower, self.upper, self.hilbert)


def region_cell_stats(data: bytes) -> RegionCellStats | None:
    """Parse one serialized region payload into its cell statistics.

    Returns None for empty regions (no bounding box, nothing to index).
    Raises whatever :meth:`Region.from_bytes` raises for non-region
    payloads — callers decide whether that disables stats for the column.
    """
    region = Region.from_bytes(data)
    if not region.voxel_count:
        return None
    lower, upper = region.bounding_box()
    return RegionCellStats(
        lower=lower,
        upper=upper,
        runs=region.run_count,
        voxels=region.voxel_count,
        nbytes=len(data),
        hilbert=hilbert_sort_key(region),
    )


class _SpatialColumn:
    """Mutable spatial accounting of one LONGFIELD column.

    ``cells`` maps each distinct stored cell value (a LongField handle or
    a bytes payload — both hashable) to its immutable
    :class:`RegionCellStats`; ``counts`` is the per-cell row refcount.
    Aggregates (bounding box, run totals, histogram) are derived from the
    cells on demand: distinct-region populations are small, and deriving
    instead of tracking makes incremental == recomputed true by
    construction.
    """

    __slots__ = ("cells", "counts", "empty_rows", "failed")

    def __init__(self):
        self.cells: dict = {}
        self.counts: Counter = Counter()
        #: rows holding an empty region (no box; still counted rows)
        self.empty_rows = 0
        #: payloads that failed to parse as regions; the column's spatial
        #: stats are unusable until the next ANALYZE after they are gone
        self.failed = 0

    def copy(self) -> "_SpatialColumn":
        clone = _SpatialColumn()
        clone.cells = dict(self.cells)
        clone.counts = Counter(self.counts)
        clone.empty_rows = self.empty_rows
        clone.failed = self.failed
        return clone


class TableStats:
    """Per-column statistics of one table, incrementally maintained.

    Scalar columns are tracked from table creation (pure CPU); spatial
    (LONGFIELD) metadata starts with the first ``ANALYZE``, which pays
    one region-payload read per distinct cell value.  All mutation goes
    through ``apply_*``/``recompute`` under the internal lock; region
    payload parsing always happens before the lock is taken.
    """

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._lock = lockdep.instrument(threading.Lock(), "db.stats")
        #: identity stamp of the table state the stats describe
        #: guarded_by: _lock
        self.stamp: tuple[int, int] | None = None
        #: total rows accounted for
        #: guarded_by: _lock
        self.row_total = 0
        #: per-position non-null value counters (None for LONGFIELD)
        #: guarded_by: _lock
        self._values: list[Counter | None] = [
            None if c.sql_type is SqlType.LONGFIELD else Counter()
            for c in schema.columns
        ]
        #: per-position NULL counts
        #: guarded_by: _lock
        self._nulls: list[int] = [0] * len(schema)
        #: True once ANALYZE has collected region metadata
        #: guarded_by: _lock
        self.spatial_enabled = False
        #: per-position spatial accounting (LONGFIELD positions only)
        #: guarded_by: _lock
        self._spatial: dict[int, _SpatialColumn] = {}

    # -------------------------------------------------------------- #
    # freshness
    # -------------------------------------------------------------- #

    def fresh(self, table) -> bool:
        """Do the stats still describe the live table state?"""
        return self.stamp == (table.uid, table.mutations)

    def restamp(self, table) -> None:
        """Mark the stats as describing the table's current state."""
        with self._lock:
            self.stamp = (table.uid, table.mutations)

    def copy(self) -> "TableStats":
        """An independent clone for MVCC snapshots (same stamp)."""
        clone = TableStats.__new__(TableStats)
        clone.schema = self.schema
        clone._lock = lockdep.instrument(threading.Lock(), "db.stats")
        with self._lock:
            clone.stamp = self.stamp
            clone.row_total = self.row_total
            clone._values = [
                None if c is None else Counter(c) for c in self._values
            ]
            clone._nulls = list(self._nulls)
            clone.spatial_enabled = self.spatial_enabled
            clone._spatial = {
                pos: col.copy() for pos, col in self._spatial.items()
            }
        return clone

    # -------------------------------------------------------------- #
    # maintenance
    # -------------------------------------------------------------- #

    def _longfield_positions(self) -> list[int]:
        return [
            i for i, c in enumerate(self.schema.columns)
            if c.sql_type is SqlType.LONGFIELD
        ]

    def _prepare_cells(self, rows, reader) -> dict[tuple[int, object], object]:
        """Parse the region metadata new rows need, without the lock.

        ``reader(value) -> bytes`` dereferences a LONGFIELD cell (the
        execution context's ``read_longfield``).  Returns a map from
        ``(position, cell value)`` to :class:`RegionCellStats`, None (an
        empty region), or the string ``"failed"``.
        """
        needed: dict[tuple[int, object], object] = {}
        positions = self._longfield_positions()
        if not positions:
            return needed
        with self._lock:
            known = {pos: set(self._spatial[pos].cells) if pos in self._spatial
                     else set() for pos in positions}
        for row in rows:
            for pos in positions:
                value = row[pos]
                if value is None:
                    continue
                key = (pos, value)
                if key in needed or value in known[pos]:
                    continue
                try:
                    needed[key] = region_cell_stats(reader(value))
                except Exception:  # qblint: disable=no-broad-except
                    needed[key] = "failed"
        return needed

    def apply_inserts(self, rows, reader) -> None:
        """Fold newly inserted (already validated) rows into the stats."""
        rows = [list(r) for r in rows]
        parsed = self._prepare_cells(rows, reader) if self.spatial_enabled else {}
        with self._lock:
            self.row_total += len(rows)
            for row in rows:
                for pos, value in enumerate(row):
                    if value is None:
                        self._nulls[pos] += 1
                        continue
                    counter = self._values[pos]
                    if counter is not None:
                        counter[value] += 1
                if self.spatial_enabled:
                    self._fold_spatial_row_locked(row, parsed)

    def _fold_spatial_row_locked(self, row, parsed) -> None:
        """Account one row's LONGFIELD cells; ``_lock`` must be held."""
        for pos in self._longfield_positions():
            value = row[pos]
            if value is None:
                continue
            column = self._spatial.setdefault(pos, _SpatialColumn())
            if value not in column.cells:
                meta = parsed.get((pos, value), "failed")
                if meta == "failed":
                    column.failed += 1
                    continue
                column.cells[value] = meta  # None for empty regions
            meta = column.cells[value]
            if meta is None:
                column.empty_rows += 1
            else:
                column.counts[value] += 1

    def recompute(self, table, reader, spatial: bool | None = None) -> None:
        """Rebuild everything from the table's current rows (= ANALYZE).

        ``spatial=True`` (the ANALYZE path) enables region metadata;
        ``None`` keeps the current setting (the resync-after-DML path).
        Previously parsed cells are reused as a cache, so a resync only
        reads payloads for never-seen region values.
        """
        rows = [list(r) for r in table.scan()]
        with self._lock:
            do_spatial = self.spatial_enabled if spatial is None else spatial
            cache = {
                pos: dict(col.cells) for pos, col in self._spatial.items()
            }
        parsed: dict[tuple[int, object], object] = {}
        if do_spatial:
            for pos, cells in cache.items():
                for value, meta in cells.items():
                    parsed[(pos, value)] = meta
            for row in rows:
                for pos in self._longfield_positions():
                    value = row[pos]
                    if value is None or (pos, value) in parsed:
                        continue
                    try:
                        parsed[(pos, value)] = region_cell_stats(reader(value))
                    except Exception:  # qblint: disable=no-broad-except
                        parsed[(pos, value)] = "failed"
        with self._lock:
            self.row_total = len(rows)
            self._values = [
                None if c.sql_type is SqlType.LONGFIELD else Counter()
                for c in self.schema.columns
            ]
            self._nulls = [0] * len(self.schema)
            self.spatial_enabled = do_spatial
            self._spatial = {}
            for row in rows:
                for pos, value in enumerate(row):
                    if value is None:
                        self._nulls[pos] += 1
                        continue
                    counter = self._values[pos]
                    if counter is not None:
                        counter[value] += 1
                if do_spatial:
                    self._fold_spatial_row_locked(row, parsed)
            self.stamp = (table.uid, table.mutations)

    # -------------------------------------------------------------- #
    # estimator accessors (read-only; tolerate concurrent staleness)
    # -------------------------------------------------------------- #

    def null_count(self, position: int) -> int:
        """Stored NULLs in one column."""
        return self._nulls[position]

    def n_distinct(self, position: int) -> int | None:
        """Distinct non-null values of one column (None when unknown)."""
        counter = self._values[position]
        if counter is not None:
            return len(counter)
        column = self._spatial.get(position)
        if self.spatial_enabled and column is not None and not column.failed:
            return len(column.cells) + (1 if column.empty_rows else 0)
        return None

    def eq_fraction(self, position: int, value) -> float | None:
        """Exact fraction of rows equal to a known literal value."""
        counter = self._values[position]
        if counter is None or not self.row_total:
            return None
        try:
            return counter[value] / self.row_total
        except TypeError:
            return None

    def range_fraction(self, position: int, op: str, value) -> float | None:
        """Exact fraction of rows satisfying ``column <op> literal``."""
        counter = self._values[position]
        if counter is None or not self.row_total:
            return None
        try:
            if op == "<":
                hits = sum(n for v, n in counter.items() if v < value)
            elif op == "<=":
                hits = sum(n for v, n in counter.items() if v <= value)
            elif op == ">":
                hits = sum(n for v, n in counter.items() if v > value)
            elif op == ">=":
                hits = sum(n for v, n in counter.items() if v >= value)
            else:
                return None
        except TypeError:
            return None
        return hits / self.row_total

    def spatial_column(self, position: int) -> "_SpatialColumn | None":
        """The spatial accounting of one LONGFIELD position, if collected."""
        if not self.spatial_enabled:
            return None
        column = self._spatial.get(position)
        if column is None or column.failed:
            return None
        return column

    def region_rows(self, position: int) -> int:
        """Rows with a non-empty region in one LONGFIELD column."""
        column = self.spatial_column(position)
        return sum(column.counts.values()) if column is not None else 0

    def bounding_box(self, position: int):
        """Union bounding box over one column's regions, or None."""
        column = self.spatial_column(position)
        if column is None:
            return None
        boxes = [column.cells[v] for v, n in column.counts.items() if n]
        if not boxes:
            return None
        ndim = len(boxes[0].lower)
        lower = tuple(min(b.lower[d] for b in boxes) for d in range(ndim))
        upper = tuple(max(b.upper[d] for b in boxes) for d in range(ndim))
        return lower, upper

    def total_runs(self, position: int) -> int:
        """Sum of run counts across one column's stored regions."""
        column = self.spatial_column(position)
        if column is None:
            return 0
        return sum(column.cells[v].runs * n for v, n in column.counts.items())

    def run_histogram(self, position: int) -> Counter:
        """log2 run-count histogram (bucket -> rows) for one column."""
        histogram: Counter = Counter()
        column = self.spatial_column(position)
        if column is None:
            return histogram
        for value, n in column.counts.items():
            if n:
                histogram[run_count_bucket(column.cells[value].runs)] += n
        if column.empty_rows:
            histogram[run_count_bucket(0)] += column.empty_rows
        return histogram

    def avg_region_pages(self, position: int) -> float | None:
        """Mean page I/Os one region read in this column costs."""
        column = self.spatial_column(position)
        if column is None:
            return None
        rows = sum(column.counts.values())
        if not rows:
            return None
        pages = sum(column.cells[v].pages * n for v, n in column.counts.items())
        return pages / rows

    def __repr__(self) -> str:
        return (f"TableStats({self.schema.table_name}, {self.row_total} rows, "
                f"spatial={'on' if self.spatial_enabled else 'off'})")


class SpatialIndex:
    """A Hilbert-packed R-tree index over one LONGFIELD column.

    Rows are bucketed by distinct cell value; the tree indexes the
    distinct values' bounding boxes.  A probe descends the tree and
    concatenates the matching buckets — candidates only, the caller
    re-evaluates the exact predicate.  The tree is rebuilt wholesale
    whenever the set of distinct cells changes (cheap at QBISM scale);
    bucket edits alone reuse it.
    """

    def __init__(self, name: str, table_name: str, column: str,
                 position: int):
        self.name = name
        self.table_name = table_name
        self.column = column
        self.position = position
        self._lock = lockdep.instrument(threading.Lock(), "db.index")
        #: identity stamp of the table state the index reflects
        #: guarded_by: _lock
        self.stamp: tuple[int, int] | None = None
        #: distinct cell value -> RegionCellStats
        #: guarded_by: _lock
        self._cells: dict = {}
        #: distinct cell value -> rows holding it
        #: guarded_by: _lock
        self._buckets: dict = {}
        #: packed tree over _cells (rebuilt when the cell set changes)
        #: guarded_by: _lock
        self._tree: RegionRTree | None = None
        #: True when a stored payload failed to parse; probes disabled
        #: guarded_by: _lock
        self.failed = False
        #: rows whose cell is NULL — the planner refuses to probe then,
        #: because a probe would skip rows the exact predicate would have
        #: raised on, changing observable behavior
        #: guarded_by: _lock
        self.null_rows = 0

    # -------------------------------------------------------------- #
    # freshness / snapshots
    # -------------------------------------------------------------- #

    def fresh(self, table) -> bool:
        """Does the index still reflect the live table state?"""
        return not self.failed and self.stamp == (table.uid, table.mutations)

    def probe_safe(self, table) -> bool:
        """May the planner substitute a probe for a full scan?

        Requires freshness *and* no NULL cells: rows the probe would skip
        must be exactly the rows the refined predicate rejects.
        """
        return self.fresh(table) and self.null_rows == 0

    def snapshot(self) -> "SpatialIndex":
        """An independent clone for MVCC snapshots (same stamp).

        Bucket lists are copied (inserts append in place); cell metadata
        and the packed tree are immutable and shared.
        """
        clone = SpatialIndex.__new__(SpatialIndex)
        clone.name = self.name
        clone.table_name = self.table_name
        clone.column = self.column
        clone.position = self.position
        clone._lock = lockdep.instrument(threading.Lock(), "db.index")
        with self._lock:
            clone.stamp = self.stamp
            clone._cells = dict(self._cells)
            clone._buckets = {k: list(v) for k, v in self._buckets.items()}
            clone._tree = self._tree
            clone.failed = self.failed
            clone.null_rows = self.null_rows
        return clone

    # -------------------------------------------------------------- #
    # maintenance
    # -------------------------------------------------------------- #

    def _parse_new_cells(self, rows, reader) -> dict:
        """Region metadata for cells not yet indexed; no lock held."""
        with self._lock:
            known = set(self._cells)
        parsed: dict = {}
        for row in rows:
            value = row[self.position]
            if value is None or value in known or value in parsed:
                continue
            try:
                parsed[value] = region_cell_stats(reader(value))
            except Exception:  # qblint: disable=no-broad-except
                parsed[value] = "failed"
        return parsed

    def rebuild(self, table, reader) -> None:
        """Re-index the table's current rows from scratch (cells cached)."""
        rows = [list(r) for r in table.scan()]
        parsed = self._parse_new_cells(rows, reader)
        with self._lock:
            cells = dict(self._cells)
            for value, meta in parsed.items():
                if meta == "failed":
                    self.failed = True
                elif meta is not None:  # empty regions are not indexed
                    cells[value] = meta
            buckets: dict = {}
            live_cells: dict = {}
            self.null_rows = 0
            for row in rows:
                value = row[self.position]
                if value is None:
                    self.null_rows += 1
                    continue
                if parsed.get(value) == "failed":
                    self.failed = True
                    continue
                meta = cells.get(value)
                if meta is None:
                    continue
                live_cells[value] = meta
                buckets.setdefault(value, []).append(row)
            self._cells = live_cells
            self._buckets = buckets
            self._tree = RegionRTree(
                meta.entry(value) for value, meta in live_cells.items()
            )
            self.stamp = (table.uid, table.mutations)

    def apply_inserts(self, rows, reader) -> None:
        """Fold newly inserted rows into the index (tree rebuilt only
        when a never-seen region value appears)."""
        rows = [list(r) for r in rows]
        parsed = self._parse_new_cells(rows, reader)
        with self._lock:
            new_cells = False
            for value, meta in parsed.items():
                if meta == "failed":
                    self.failed = True
                elif meta is not None:
                    self._cells[value] = meta
                    new_cells = True
            for row in rows:
                value = row[self.position]
                if value is None:
                    self.null_rows += 1
                    continue
                if value not in self._cells:
                    continue
                self._buckets.setdefault(value, []).append(row)
            if new_cells:
                self._tree = RegionRTree(
                    meta.entry(value) for value, meta in self._cells.items()
                )

    def restamp(self, table) -> None:
        """Mark the index as reflecting the table's current state."""
        with self._lock:
            self.stamp = (table.uid, table.mutations)

    # -------------------------------------------------------------- #
    # probes
    # -------------------------------------------------------------- #

    def probe(self, lower, upper) -> list:
        """Candidate rows whose region MBR overlaps the half-open box."""
        with self._lock:
            tree = self._tree
            buckets = self._buckets
        if tree is None:
            return []
        hits: list = []
        for value in tree.search(lower, upper):
            hits.extend(buckets.get(value, ()))
        return hits

    def __repr__(self) -> str:
        return (f"SpatialIndex({self.name} on "
                f"{self.table_name}.{self.column}, {len(self._cells)} cells)")
