"""MVCC snapshot reads over copy-on-write page versions.

A :class:`Snapshot` pins one committed epoch in a
:class:`~repro.storage.buffer.PageVersionCache` and answers the full
query surface (:class:`repro.core.query.QuerySurface`, plus ``items``)
against exactly that commit's page images — entirely latch-free.  It runs
the same read kernel as a live tree; all it supplies is the fetch
callback (:meth:`Snapshot._image`).  It is the engine's second read
path, beside the one under the shared index latch: it acquires no latch
and can therefore never emit a ``latch_wait`` event, no matter how hard writers churn (``repro
racecheck``'s MVCC workload asserts zero read-latch acquisitions).

Why this is safe without latches (the memory-model argument, spelled out
once here and relied on everywhere):

* Every structure a snapshot touches is immutable after publication
  (page versions, commit points, decoded images) or mutated only through
  single-bytecode dict/attribute operations, which the CPython GIL makes
  atomic and sequentially consistent across threads.
* Visibility: a writer publishes its commit by swinging the cache's
  ``latest`` reference *last*, after every page version and commit-log
  note is in place — a reader that observes epoch E therefore observes
  every structure belonging to commits <= E.
* Reclamation: the snapshot holds a :class:`PinnedEpoch`; the cache's
  announced-floor protocol (see ``PageVersionCache``) guarantees GC
  never frees a version the pin can reach.

Results are computed from serialized page images, so a snapshot sees the
tree exactly as the pinned commit serialized it; payloads ride the page
version that shows their record and are filled in when it is decoded.
"""

from __future__ import annotations

from typing import Any, Iterator

from ..core import query
from ..core.geometry import Rect
from ..exceptions import StorageError
from ..obs.tracer import NULL_TRACER, Tracer
from ..storage.buffer import PageVersionCache, PinnedEpoch
from ..storage.serializer import deserialize_node

__all__ = ["Snapshot"]


class Snapshot(query.QuerySurface):
    """A latch-free, epoch-pinned read view of one committed tree state.

    Use as a context manager (or call :meth:`close`) so the pinned
    versions become reclaimable::

        with engine.open_snapshot() as snap:
            hits = snap.search(rect)

    Thread-safety: a snapshot may be handed between threads, but its
    methods are not themselves synchronized — use one snapshot per
    reader.  Opening and closing snapshots is safe from any thread.
    """

    def __init__(self, cache: PageVersionCache, tracer: Tracer | None = None) -> None:
        self.cache = cache
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        self._pin: PinnedEpoch = cache.pin()
        self.closed = False
        self._dims: int | None = None
        if self.tracer.enabled:
            self.tracer.event(
                "snapshot_open", epoch=self._pin.epoch, root_page=self._pin.root_page
            )

    # -- lifecycle -------------------------------------------------------
    @property
    def epoch(self) -> int:
        """The pinned commit epoch (the commit LSN under a WAL)."""
        return self._pin.epoch

    @property
    def root_page(self) -> int:
        """Root page of the pinned commit (0 = empty tree)."""
        return self._pin.root_page

    def close(self) -> None:
        """Release the epoch pin (idempotent)."""
        if not self.closed:
            self.closed = True
            self.cache.unpin(self._pin)
            if self.tracer.enabled:
                self.tracer.event("snapshot_close", epoch=self._pin.epoch)

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- page access -----------------------------------------------------
    def _image(self, page_id: int) -> Any:
        version = self.cache.read(page_id, self._pin.epoch)
        if version is None:
            raise StorageError(
                f"page {page_id} has no version at pinned epoch {self._pin.epoch}"
            )
        image = version.image
        if image is None:
            # Benign race: concurrent decoders produce equivalent
            # immutable images; last store wins.
            image = deserialize_node(version.data)
            payloads = version.payloads
            if payloads:
                spanning = (r for b in image.branches for r in b.spanning)
                for e in (*image.data_entries, *spanning):
                    e.payload = payloads.get(e.record_id)
            version.image = image
        return image

    # -- queries ---------------------------------------------------------
    @property
    def dims(self) -> int:
        """Dimensionality of the pinned tree, read off its root page."""
        if self._dims is None:
            self._dims = self._image(self._pin.root_page).dims
        return self._dims

    def _check_rect(self, rect: Rect) -> None:
        # An empty snapshot has no page to learn the dimensionality from
        # (and no record that any query could match).
        if self._pin.root_page:
            super()._check_rect(rect)

    def _query(self, kind: str, rect: Rect) -> list[tuple[int, Any]]:
        """The read kernel over this epoch's page images: ``_image`` is
        the fetch callback, the root page id the root handle."""
        hits, _ = query.answer(kind, self._image, self._pin.root_page, rect)
        return [(e.record_id, e.payload) for e in hits]

    def items(self) -> Iterator[tuple[int, Rect, Any]]:
        """Yield (record_id, fragment_rect, payload) for every fragment."""
        for e in query.walk(self._image, self._pin.root_page):
            yield e.record_id, e.rect, e.payload

    def __len__(self) -> int:
        """Distinct records visible at the pinned epoch."""
        return len({record_id for record_id, _, _ in self.items()})
