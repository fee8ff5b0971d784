"""Index entries: data records and branches.

A node in the R-Tree family holds two kinds of entries:

* :class:`DataEntry` — an *external* index record: a rectangle plus a
  reference to the data tuple it indexes.  In plain R-Trees these live only
  on leaf nodes; in an SR-Tree they may also appear on non-leaf nodes as
  *spanning index records* (Section 2.1.1).
* :class:`BranchEntry` — an *internal* branch: the bounding rectangle of a
  child node plus the child pointer.  In an SR-Tree each branch carries the
  list of spanning index records linked to it (Figure 2).

A logical record that has been *cut* (Section 3.1.1) is represented by
several :class:`DataEntry` fragments sharing one ``record_id``; searches
deduplicate on that id.

Both carry their bounds twice, as ``rect`` and as the flat ``lows`` /
``highs`` the read kernel (:mod:`repro.core.query`) compares, under the
names decoded page images use too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .geometry import Rect

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .node import Node

__all__ = ["DataEntry", "BranchEntry"]


class DataEntry:
    """An external index record: ``rect`` plus the indexed payload."""

    __slots__ = ("rect", "lows", "highs", "record_id", "payload", "is_remnant")

    def __init__(self, rect: Rect, record_id: int, payload: Any, is_remnant: bool = False) -> None:
        #: Never reassigned (other bounds = a new entry, :meth:`with_rect`),
        #: so the mirrored ``lows``/``highs`` cannot go stale.
        self.rect = rect
        self.lows = rect.lows  # lint: ignore[R4] — this entry's own mirror
        self.highs = rect.highs  # lint: ignore[R4] — this entry's own mirror
        self.record_id = record_id
        self.payload = payload
        self.is_remnant = is_remnant

    def with_rect(self, rect: Rect, is_remnant: bool | None = None) -> "DataEntry":
        """A fragment of this record covering ``rect`` (same identity)."""
        flag = self.is_remnant if is_remnant is None else is_remnant
        return DataEntry(rect, self.record_id, self.payload, flag)

    def __repr__(self) -> str:
        kind = "remnant" if self.is_remnant else "data"
        return f"<{kind} #{self.record_id} {self.rect!r}>"


class BranchEntry:
    """An internal branch: child node pointer, its covering rectangle, and
    (SR-Tree only) the spanning index records linked to it."""

    __slots__ = ("_rect", "lows", "highs", "child", "spanning")

    def __init__(self, rect: Rect, child: "Node") -> None:
        self.rect = rect
        self.child = child
        self.spanning: list[DataEntry] = []

    @property
    def rect(self) -> Rect:
        return self._rect

    @rect.setter
    def rect(self, rect: Rect) -> None:
        # Covering rectangles are reassigned as nodes grow and shrink;
        # each assignment refreshes the flat bounds the kernel compares.
        self._rect = rect
        self.lows = rect.lows  # lint: ignore[R4] — this branch's own mirror
        self.highs = rect.highs  # lint: ignore[R4] — this branch's own mirror

    def __repr__(self) -> str:
        return (
            f"<branch -> node {self.child.node_id} {self.rect!r} "
            f"({len(self.spanning)} spanning)>"
        )
