"""The statement cache: each SQL text is parsed once per process.

Every layer that takes SQL text — :class:`~repro.db.database.Database`
(``execute``, ``executemany``, ``explain``, ``analyze``), the serving
layer's dispatch, the shard router, and the statement-digest table —
asks :func:`statement` for the text's :class:`ParsedStatement`: the parse
tree plus every fact those layers derive from it (read or write, the
canonical text the result cache keys on, referenced tables, called
functions, and the literal-stripped digest text and fingerprint).  All of
it is computed once, on the first sight of a text; repeat traffic costs
one dict lookup.

Only syntax is cached.  Semantic checking still runs on every execution
against the live (or pinned) catalog, so a cached ``SELECT`` on a dropped
table fails with the analyzer's unknown-name diagnostic and runs against
the new schema once the table is re-created.  Texts that fail to parse
are never cached: each call re-raises the parser's typed
:class:`~repro.errors.ReproError`.

The cache is bounded (:data:`CAPACITY` entries, least recently used
evicted first) and thread-safe.  Its lock is a leaf mutex, never held
while parsing or while taking any other lock.  Lookups count into the
``sql.statement_cache.hits`` / ``.misses`` metrics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.concurrency import lockdep
from repro.db.sql import parser
from repro.db.sql.ast import Explain, FuncCall, Literal, Param, Select, Span, TableRef
from repro.db.sql.unparse import unparse
from repro.obs import metrics

__all__ = [
    "CAPACITY",
    "ParsedStatement",
    "StatementCache",
    "statement",
    "get_cache",
    "is_read_only",
    "referenced_tables",
    "fingerprint",
]

#: distinct SQL texts the process-wide cache holds
CAPACITY = 512


@dataclass(frozen=True)
class ParsedStatement:
    """One SQL text's parse tree and everything derived from it."""

    #: the parse tree (frozen AST nodes; safe to share across threads)
    tree: object
    #: SELECT or EXPLAIN — runs on a snapshot or under the shared lock
    is_read: bool
    is_explain: bool
    #: canonical unparse: formatting variants of one statement share it
    canonical: str
    #: every table the statement touches, lowercased
    tables: frozenset[str]
    #: every function the statement calls, lowercased
    functions: frozenset[str]
    #: the digest shape: canonical text with literals replaced by ``?``
    normalized: str
    #: short stable id of :attr:`normalized`
    fingerprint: str


def _nodes(root):
    """``root`` and every AST node below it (spans excluded)."""
    stack = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            stack.extend(item)
        elif dataclasses.is_dataclass(item) and not isinstance(item, Span):
            yield item
            stack.extend(getattr(item, f.name)
                         for f in dataclasses.fields(item) if f.name != "span")


def is_read_only(stmt) -> bool:
    """Does this parse tree only read (SELECT / EXPLAIN)?"""
    return isinstance(stmt, (Select, Explain))


def referenced_tables(stmt) -> frozenset[str]:
    """Every table name a statement touches, lowercased.

    Covers FROM lists, subqueries (scalar, ``IN``, ``EXISTS``), and the
    target tables of DML/DDL — the set a cached SELECT must be dropped
    for when any of them is written.
    """
    names = set()
    for node in _nodes(stmt):
        if isinstance(node, TableRef):
            names.add(node.name.lower())
        elif isinstance(getattr(node, "table", None), str):
            names.add(node.table.lower())
    return frozenset(names)


def _called_functions(stmt) -> frozenset[str]:
    """Lower-cased names of every function the statement tree calls."""
    return frozenset(node.name.lower() for node in _nodes(stmt)
                     if isinstance(node, FuncCall))


def _strip_literals(node):
    """``node`` with every literal (and bound parameter) replaced by ``?``."""
    if isinstance(node, (Literal, Param)):
        return Param(0)
    if isinstance(node, tuple):
        return tuple(_strip_literals(item) for item in node)
    if dataclasses.is_dataclass(node) and not isinstance(node, Span):
        return dataclasses.replace(node, **{
            f.name: _strip_literals(getattr(node, f.name))
            for f in dataclasses.fields(node) if f.name != "span"})
    return node


def fingerprint(normalized: str) -> str:
    """A short stable digest id for a normalized statement."""
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()[:16]


def _derive(sql: str) -> ParsedStatement:
    """Parse ``sql`` and derive every cached fact (a cache miss)."""
    tree = parser.parse(sql)
    normalized = unparse(_strip_literals(tree))
    return ParsedStatement(
        tree=tree,
        is_read=is_read_only(tree),
        is_explain=isinstance(tree, Explain),
        canonical=unparse(tree),
        tables=referenced_tables(tree),
        functions=_called_functions(tree),
        normalized=normalized,
        fingerprint=fingerprint(normalized),
    )


class StatementCache:
    """Bounded LRU map of raw SQL text to :class:`ParsedStatement`."""

    def __init__(self) -> None:
        self._entries: OrderedDict[str, ParsedStatement] = OrderedDict()  # guarded_by: _lock
        self._lock = lockdep.instrument(threading.Lock(),
                                        "sql.statement_cache")

    def get(self, sql: str) -> ParsedStatement:
        """The parsed statement for ``sql``, parsing it on a miss.

        Raises the parser's :class:`~repro.errors.ReproError` for a text
        that does not parse; the failure is not cached.
        """
        with self._lock:
            entry = self._entries.get(sql)
            if entry is not None:
                self._entries.move_to_end(sql)
        if entry is not None:
            metrics.counter("sql.statement_cache.hits").inc()
            return entry
        metrics.counter("sql.statement_cache.misses").inc()
        entry = _derive(sql)
        with self._lock:
            self._entries[sql] = entry
            if len(self._entries) > CAPACITY:
                self._entries.popitem(last=False)
        return entry

    def __contains__(self, sql: str) -> bool:
        with self._lock:
            return sql in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_CACHE = StatementCache()


def get_cache() -> StatementCache:
    """The process-wide statement cache."""
    return _CACHE


def statement(sql: str) -> ParsedStatement:
    """The process-wide cached :class:`ParsedStatement` for ``sql``."""
    return _CACHE.get(sql)
