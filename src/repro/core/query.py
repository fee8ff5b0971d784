"""The read path, once: one traversal kernel and one query surface.

The paper's search (Section 3.1.2) is a single loop — test a node's
records, test each branch's spanning records without descending, descend
into the branches whose rectangle intersects the query.  This module
holds that loop and everything built on it.

**Node view.**  A traversal reads only these attributes, which live nodes
(``Node`` / ``BranchEntry`` / ``DataEntry``) and decoded page images
(``NodeImage`` / ``BranchImage`` / ``RecordImage``) both provide, so one
loop body serves both with no per-entry adapter:

* node — ``data_entries`` (leaf records; empty above the leaves) and
  ``branches`` (empty on a leaf);
* branch — ``lows`` / ``highs`` / ``rect`` (covering rectangle),
  ``spanning`` (its spanning records) and ``child``, a handle: whatever
  ``fetch`` accepts (a live node, a page id);
* record — ``record_id``, ``lows`` / ``highs`` / ``rect``, ``payload``.

**Kernel.**  :func:`intersecting` (the hot loop), :func:`intersecting_many`
(the same loop for a whole batch in one traversal) and :func:`fragments`
(for the :func:`within` / :func:`containing` post-filters), each compiled
per dimensionality from one template (:mod:`repro.core.kernel`), and
:func:`walk` reach nodes through ``fetch(handle) -> node`` (a snapshot's
version lookup and decode), or ``None`` when the handles are live nodes;
the query kernels return the handles visited, which a live tree settles
once per query or batch: statistics, page touches, ``node_access`` trace.
:func:`locate`, compiled the same way, is the delete's search over live
nodes.

**Surface.**  :class:`QuerySurface` declares the public read methods once
over two hooks, ``_query(kind, rect)`` and ``_query_batch(rects)``.
Trees, the concurrent engine, snapshots and the shard router inherit it
and implement only the hooks.  A query kind is the name of the surface
method that asks it — also the shard wire protocol's op name, so one
string travels unchanged from router to worker to engine to kernel.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from ..exceptions import ConfigError
from .geometry import Rect, pieces_cover
from .kernel import unrolled

__all__ = [
    "KINDS",
    "Fetch",
    "SpanningHit",
    "QuerySurface",
    "answer",
    "batch_search",
    "intersecting",
    "intersecting_many",
    "locate",
    "walk",
]

SEARCH = "search"
STAB = "stab"  # ``search`` on a degenerate rectangle; a kind because the wire names it
WITHIN = "search_within"
CONTAINING = "search_containing"
KINDS = (SEARCH, STAB, WITHIN, CONTAINING)

Fetch = Callable[[Any], Any]
SpanningHit = Callable[[Any, Any], None]


#: The paper's search loop (Section 3.1.2), compiled per K by
#: :func:`repro.core.kernel.unrolled`.  The overlap test keeps its
#: rejection form — disjoint when some ``lo[d] > rhi_d or hi[d] < rlo_d`` —
#: the form of ``Rect.intersects``, so infinite bounds compare as there.
_INTERSECTING = """
def intersecting(fetch, root, rect, on_spanning_hit):
    <<|rlo{d}, >>= rect.lows
    <<|rhi{d}, >>= rect.highs
    hits = []
    seen = set()
    visited = []
    stack = [root] if root else []
    while stack:
        node = stack.pop()
        visited.append(node)
        if fetch is not None:
            node = fetch(node)
        for e in node.data_entries:
            lo = e.lows
            hi = e.highs
            if << or |lo[{d}] > rhi{d} or hi[{d}] < rlo{d}>>:
                continue
            if e.record_id not in seen:
                seen.add(e.record_id)
                hits.append(e)
        for b in node.branches:
            for e in b.spanning:
                lo = e.lows
                hi = e.highs
                if << or |lo[{d}] > rhi{d} or hi[{d}] < rlo{d}>>:
                    continue
                if e.record_id not in seen:
                    seen.add(e.record_id)
                    hits.append(e)
                    if on_spanning_hit is not None:
                        on_spanning_hit(node, e)
            lo = b.lows
            hi = b.highs
            if << or |lo[{d}] > rhi{d} or hi[{d}] < rlo{d}>>:
                continue
            stack.append(b.child)
    return hits, visited
"""


def intersecting(
    fetch: Fetch | None, root: Any, rect: Rect, on_spanning_hit: SpanningHit | None = None
) -> tuple[list[Any], list[Any]]:
    """Records intersecting ``rect``, one entry per record id, plus the
    handles visited, in visit order.  A falsy ``root`` is an empty index.

    The hot loop of the whole repo, run as the instance of its template
    for the query's dimensionality: each entry is tested by one chain of
    comparisons against bounds unpacked once per query, and nothing is
    called per entry or per hit.
    """
    kernel = unrolled(_INTERSECTING, "intersecting", len(rect.lows))
    return kernel(fetch, root, rect, on_spanning_hit)


#: :data:`_INTERSECTING` for a whole batch of queries in one traversal.
#: Each stack frame carries a node and the queries still *active* there
#: (those whose rectangle intersects the node's region), each as its
#: bounds, unpacked once per batch, then its hit list and ``seen`` set;
#: a branch passes down the active queries it overlaps, so a node is
#: visited at most once per batch.  A query's hits come in the order
#: :data:`_INTERSECTING` finds them.
_INTERSECTING_MANY = """
def intersecting_many(fetch, root, rects, on_spanning_hit):
    hits = []
    queries = []
    for rect in rects:
        found = []
        hits.append(found)
        <<|rlo{d}, >>= rect.lows
        <<|rhi{d}, >>= rect.highs
        queries.append((<<|rlo{d}, rhi{d}, >>found, set()))
    visited = []
    stack = [(root, queries)] if root and queries else []
    while stack:
        node, active = stack.pop()
        visited.append(node)
        if fetch is not None:
            node = fetch(node)
        for e in node.data_entries:
            lo = e.lows
            hi = e.highs
            for <<|rlo{d}, rhi{d}, >>found, seen in active:
                if << or |lo[{d}] > rhi{d} or hi[{d}] < rlo{d}>>:
                    continue
                if e.record_id not in seen:
                    seen.add(e.record_id)
                    found.append(e)
        for b in node.branches:
            for e in b.spanning:
                lo = e.lows
                hi = e.highs
                for <<|rlo{d}, rhi{d}, >>found, seen in active:
                    if << or |lo[{d}] > rhi{d} or hi[{d}] < rlo{d}>>:
                        continue
                    if e.record_id not in seen:
                        seen.add(e.record_id)
                        found.append(e)
                        if on_spanning_hit is not None:
                            on_spanning_hit(node, e)
            lo = b.lows
            hi = b.highs
            sub = []
            for q in active:
                <<|rlo{d}, rhi{d}, >>found, seen = q
                if << or |lo[{d}] > rhi{d} or hi[{d}] < rlo{d}>>:
                    continue
                sub.append(q)
            if sub:
                stack.append((b.child, sub))
    return hits, visited
"""


def intersecting_many(
    fetch: Fetch | None,
    root: Any,
    rects: Sequence[Rect],
    on_spanning_hit: SpanningHit | None = None,
) -> tuple[list[list[Any]], list[Any]]:
    """:func:`intersecting` for every rectangle of ``rects`` in one shared
    traversal: one hit list per query, positionally aligned, plus the
    handles visited, each at most once.  Each list holds what
    :func:`intersecting` returns for its rectangle, in the same order;
    only the visits are shared, so a page serving twenty queries is read
    once instead of twenty times."""
    if not rects:
        return [], []
    kernel = unrolled(_INTERSECTING_MANY, "intersecting_many", len(rects[0].lows))
    return kernel(fetch, root, rects, on_spanning_hit)


#: :func:`fragments`'s traversal: :data:`_INTERSECTING`'s loop and overlap
#: test, every intersecting fragment kept and grouped by record id.
_FRAGMENTS = """
def fragments(fetch, root, rect, extra):
    <<|rlo{d}, >>= rect.lows
    <<|rhi{d}, >>= rect.highs
    found = {}
    visited = []
    stack = [root] if root else []
    while stack:
        node = stack.pop()
        visited.append(node)
        if fetch is not None:
            node = fetch(node)
        for e in node.data_entries:
            lo = e.lows
            hi = e.highs
            if << or |lo[{d}] > rhi{d} or hi[{d}] < rlo{d}>>:
                continue
            found.setdefault(e.record_id, []).append(e)
        for b in node.branches:
            for e in b.spanning:
                lo = e.lows
                hi = e.highs
                if << or |lo[{d}] > rhi{d} or hi[{d}] < rlo{d}>>:
                    continue
                found.setdefault(e.record_id, []).append(e)
            lo = b.lows
            hi = b.highs
            if << or |lo[{d}] > rhi{d} or hi[{d}] < rlo{d}>>:
                continue
            stack.append(b.child)
    for e in extra:
        lo = e.lows
        hi = e.highs
        if << or |lo[{d}] > rhi{d} or hi[{d}] < rlo{d}>>:
            continue
        found.setdefault(e.record_id, []).append(e)
    return found, visited
"""


def fragments(
    fetch: Fetch | None, root: Any, rect: Rect, extra: Iterable[Any] = ()
) -> tuple[dict[int, list[Any]], list[Any]]:
    """Every stored fragment intersecting ``rect``, grouped by record id
    (``extra``: records held outside the nodes), plus the handles
    visited."""
    kernel = unrolled(_FRAGMENTS, "fragments", len(rect.lows))
    return kernel(fetch, root, rect, extra)


#: The paper's deletion search (Section 3.1.1) over live nodes, compiled
#: per K: every node reached through branches overlapping ``hint`` (the
#: test of :data:`_INTERSECTING`), in a recursion's pre-order — a node's
#: branches are read last to first, so its children pop first to last.
#: A holder is ``(leaf, None)`` for a leaf with a fragment of
#: ``record_id`` and ``(node, branch)`` for a branch with a spanning one;
#: an empty spanning list is not scanned.  Nothing is changed.
_LOCATE = """
def locate(root, record_id, hint):
    <<|rlo{d}, >>= hint.lows
    <<|rhi{d}, >>= hint.highs
    holders = []
    visited = []
    stack = [root]
    while stack:
        node = stack.pop()
        visited.append(node)
        for e in node.data_entries:
            if e.record_id == record_id:
                holders.append((node, None))
                break
        for b in reversed(node.branches):
            if b.spanning:
                for e in b.spanning:
                    if e.record_id == record_id:
                        holders.append((node, b))
                        break
            lo = b.lows
            hi = b.highs
            if << or |lo[{d}] > rhi{d} or hi[{d}] < rlo{d}>>:
                continue
            stack.append(b.child)
    return holders, visited
"""


def locate(root: Any, record_id: int, hint: Rect) -> tuple[list[tuple[Any, Any]], list[Any]]:
    """The holders of ``record_id``'s fragments under ``root`` — ``(leaf,
    None)`` or ``(node, branch)`` — reached through branches overlapping
    ``hint``, plus the nodes visited, in visit order.  An all-infinite
    ``hint`` reaches every node: the paper's hint-less full scan."""
    kernel = unrolled(_LOCATE, "locate", len(hint.lows))
    return kernel(root, record_id, hint)


def within(rect: Rect, found: Mapping[int, list[Any]]) -> list[Any]:
    """Records lying entirely inside ``rect``: every *found* fragment is
    inside.  A record's fragments are closed boxes that tile its
    rectangle exactly (a cut copies coordinates, Section 3.1.1), so a
    record reaching outside the query has a fragment that crosses or
    touches the query's boundary from outside: one that intersects
    ``rect`` (closed test) and is not contained in it.  The one
    intersection pass therefore suffices, with no count of the
    fragments it did not meet."""
    return [
        pieces[0]
        for pieces in found.values()
        if all(rect.contains(e.rect) for e in pieces)
    ]


def containing(rect: Rect, found: Mapping[int, list[Any]]) -> list[Any]:
    """Records that fully contain ``rect``: a record's fragments tile its
    original rectangle, so the fragments intersecting the query cover it
    exactly when the original did."""
    return [
        pieces[0]
        for pieces in found.values()
        if pieces_cover(rect, [e.rect for e in pieces])
    ]


def walk(fetch: Fetch | None, root: Any) -> Iterator[Any]:
    """Every stored fragment, each once."""
    stack = [root] if root else []
    while stack:
        node = stack.pop()
        if fetch is not None:
            node = fetch(node)
        yield from node.data_entries
        for b in node.branches:
            yield from b.spanning
            stack.append(b.child)


def answer(
    kind: str,
    fetch: Fetch | None,
    root: Any,
    rect: Rect,
    extra: Sequence[Any] = (),
    on_spanning_hit: SpanningHit | None = None,
) -> tuple[list[Any], list[Any]]:
    """One query of ``kind``: (one entry per matching record, handles
    visited)."""
    if kind == SEARCH or kind == STAB:
        hits, visited = intersecting(fetch, root, rect, on_spanning_hit)
        if extra:
            hits.extend(e for e in extra if e.rect.intersects(rect))
        return hits, visited
    if kind != WITHIN and kind != CONTAINING:
        raise ConfigError(f"unknown query kind {kind!r}; known: {KINDS}")
    found, visited = fragments(fetch, root, rect, extra)
    if kind == WITHIN:
        return within(rect, found), visited
    return containing(rect, found), visited


class QuerySurface:
    """The public read API, declared once.

    Implementors provide ``dims`` and ``_query``; a layer that can answer
    a batch better than query by query (the tree's and the snapshot's
    shared traversal, the engine's single read funnel, the router's
    per-shard scatter) also overrides ``_query_batch``.  Rectangles are
    validated here, before either hook runs.
    """

    @property
    def dims(self) -> int:
        raise NotImplementedError

    def _query(self, kind: str, rect: Rect) -> list[tuple[int, Any]]:
        raise NotImplementedError

    def _query_batch(self, rects: Sequence[Rect]) -> list[list[tuple[int, Any]]]:
        return [self._query(SEARCH, rect) for rect in rects]

    def _check_rect(self, rect: Rect) -> None:
        if len(rect.lows) != self.dims:
            raise ConfigError(
                f"rect has {rect.dims} dimensions, index expects {self.dims}"
            )

    def query(self, kind: str, rect: Rect) -> list[tuple[int, Any]]:
        """One query named by its kind (one of :data:`KINDS`): what the
        methods below ask, and what a shard worker asks for the router."""
        self._check_rect(rect)
        return self._query(kind, rect)

    def search(self, rect: Rect) -> list[tuple[int, Any]]:
        """All (record_id, payload) whose rectangle intersects ``rect``;
        a record cut into several fragments is reported once."""
        return self.query(SEARCH, rect)

    def stab(self, *coords: float) -> list[tuple[int, Any]]:
        """All records whose rectangle contains the given point."""
        return self.query(STAB, Rect(coords, coords))

    def search_ids(self, rect: Rect) -> set[int]:
        return {rid for rid, _ in self.search(rect)}

    def count(self, rect: Rect) -> int:
        return len(self.search(rect))

    def search_within(self, rect: Rect) -> list[tuple[int, Any]]:
        """All records lying *entirely inside* ``rect``."""
        return self.query(WITHIN, rect)

    def search_containing(self, rect: Rect) -> list[tuple[int, Any]]:
        """All records that *fully contain* ``rect``."""
        return self.query(CONTAINING, rect)

    def batch_search(self, rects: Sequence[Rect]) -> list[list[tuple[int, Any]]]:
        """One result list per query, positionally aligned; result sets
        equal ``search`` per rectangle."""
        for rect in rects:
            self._check_rect(rect)
        return self._query_batch(rects)


def batch_search(index: QuerySurface, rects: Sequence[Rect]) -> list[list[tuple[int, Any]]]:
    """``index.batch_search(rects)``, for callers that hold the index as
    an argument: one result list per query, positionally aligned."""
    return index.batch_search(rects)
