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

**Kernel.**  :func:`intersecting` (the only hot loop), :func:`fragments`
with the :func:`within` / :func:`containing` post-filters, and
:func:`walk` reach nodes only through a ``fetch(handle) -> node``
callback, where each layer hangs its per-node work: statistics, page
fault and ``node_access`` trace on a live tree; version lookup and decode
on a snapshot.

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

__all__ = ["KINDS", "Fetch", "SpanningHit", "QuerySurface", "answer", "intersecting", "walk"]

SEARCH = "search"
STAB = "stab"  # ``search`` on a degenerate rectangle; a kind because the wire names it
WITHIN = "search_within"
CONTAINING = "search_containing"
KINDS = (SEARCH, STAB, WITHIN, CONTAINING)

Fetch = Callable[[Any], Any]
SpanningHit = Callable[[Any, Any], None]


def intersecting(
    fetch: Fetch, root: Any, rect: Rect, on_spanning_hit: SpanningHit | None = None
) -> tuple[list[Any], int]:
    """Records intersecting ``rect``, one entry per record id, plus the
    number of nodes fetched.  A falsy ``root`` is an empty index.

    The hot loop of the whole repo: the per-dimension comparison is
    inlined and nothing is called per entry or per hit.
    """
    hits: list[Any] = []
    seen: set[int] = set()
    accessed = 0
    rlo, rhi = rect.lows, rect.highs
    dims = range(len(rlo))
    stack = [root] if root else []
    while stack:
        node = fetch(stack.pop())
        accessed += 1
        for e in node.data_entries:
            lo, hi = e.lows, e.highs
            for d in dims:
                if lo[d] > rhi[d] or hi[d] < rlo[d]:
                    break
            else:
                if e.record_id not in seen:
                    seen.add(e.record_id)
                    hits.append(e)
        for b in node.branches:
            for e in b.spanning:
                lo, hi = e.lows, e.highs
                for d in dims:
                    if lo[d] > rhi[d] or hi[d] < rlo[d]:
                        break
                else:
                    if e.record_id not in seen:
                        seen.add(e.record_id)
                        hits.append(e)
                        if on_spanning_hit is not None:
                            on_spanning_hit(node, e)
            lo, hi = b.lows, b.highs
            for d in dims:
                if lo[d] > rhi[d] or hi[d] < rlo[d]:
                    break
            else:
                stack.append(b.child)
    return hits, accessed


def fragments(
    fetch: Fetch, root: Any, rect: Rect, extra: Iterable[Any] = ()
) -> tuple[dict[int, list[Any]], int]:
    """Every stored fragment intersecting ``rect``, grouped by record id
    (``extra``: records held outside the nodes), plus nodes fetched."""
    found: dict[int, list[Any]] = {}
    accessed = 0

    def collect(records: Iterable[Any]) -> None:
        for e in records:
            if e.rect.intersects(rect):
                found.setdefault(e.record_id, []).append(e)

    stack = [root] if root else []
    while stack:
        node = fetch(stack.pop())
        accessed += 1
        collect(node.data_entries)
        for b in node.branches:
            collect(b.spanning)
            if b.rect.intersects(rect):
                stack.append(b.child)
    collect(extra)
    return found, accessed


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


def walk(fetch: Fetch, root: Any) -> Iterator[Any]:
    """Every stored fragment, each once."""
    stack = [root] if root else []
    while stack:
        node = fetch(stack.pop())
        yield from node.data_entries
        for b in node.branches:
            yield from b.spanning
            stack.append(b.child)


def answer(
    kind: str,
    fetch: Fetch,
    root: Any,
    rect: Rect,
    extra: Sequence[Any] = (),
    on_spanning_hit: SpanningHit | None = None,
) -> tuple[list[Any], int]:
    """One query of ``kind``: (one entry per matching record, nodes
    fetched)."""
    if kind == SEARCH or kind == STAB:
        hits, accessed = intersecting(fetch, root, rect, on_spanning_hit)
        if extra:
            hits.extend(e for e in extra if e.rect.intersects(rect))
        return hits, accessed
    if kind != WITHIN and kind != CONTAINING:
        raise ConfigError(f"unknown query kind {kind!r}; known: {KINDS}")
    found, accessed = fragments(fetch, root, rect, extra)
    if kind == WITHIN:
        return within(rect, found), accessed
    return containing(rect, found), accessed


class QuerySurface:
    """The public read API, declared once.

    Implementors provide ``dims`` and ``_query``; a layer that can answer
    a batch better than query by query (the live tree's shared traversal,
    the engine's single read funnel, the router's per-shard scatter) also
    overrides ``_query_batch``.  Rectangles are validated here, before
    either hook runs.
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
