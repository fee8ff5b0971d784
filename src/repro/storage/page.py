"""Simulated disk pages.

The paper's indexes are *paged* structures: each node occupies one page
whose size depends on the node's level (1 KB at the leaves, doubling per
level — Section 2.1.2 / Section 5).  A :class:`Page` is a fixed-size page
image with a page id — the buffer pool's frame; :class:`PageId` values are
allocated by the pager.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import StorageError

__all__ = ["PageId", "Page"]

#: Page numbers are plain ints wrapped for readability.
PageId = int


@dataclass(slots=True)
class Page:
    """A fixed-size page image.

    Attributes:
        page_id: Identity of the page within its file.
        size: Capacity in bytes: the length of every image of the page.
        data: Current contents, immutable ``bytes`` of exactly ``size``
            bytes: a write replaces the image, so bytes handed out stay
            the image they were.
        dirty: Set when the buffer content diverges from disk.
    """

    page_id: PageId
    size: int
    data: bytes = b""
    dirty: bool = False

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise StorageError(f"invalid page size {self.size}")
        if not self.data:
            self.data = bytes(self.size)
        elif len(self.data) != self.size:
            raise StorageError(
                f"page {self.page_id}: buffer is {len(self.data)} bytes, "
                f"expected {self.size}"
            )
        else:
            self.data = bytes(self.data)

    @classmethod
    def frame(cls, page_id: PageId, data: bytes, dirty: bool = False) -> "Page":
        """A page over ``data`` as it is: no check and no copy, for an
        image that is whole by construction (a disk read, or a write the
        pool has already measured against the page size)."""
        page = cls.__new__(cls)
        page.page_id = page_id
        page.size = len(data)
        page.data = data
        page.dirty = dirty
        return page
