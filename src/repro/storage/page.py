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
        size: Capacity in bytes; writes beyond it raise StorageError.
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

    def write(self, payload: bytes, offset: int = 0) -> None:
        """Copy ``payload`` into the page at ``offset`` and mark it dirty."""
        if offset < 0 or offset + len(payload) > self.size:
            raise StorageError(
                f"write of {len(payload)} bytes at offset {offset} exceeds "
                f"page size {self.size}"
            )
        data = self.data
        self.data = data[:offset] + bytes(payload) + data[offset + len(payload) :]
        self.dirty = True

    def read(self, length: int | None = None, offset: int = 0) -> bytes:
        """Read ``length`` bytes (default: to the end of the page)."""
        if length is None:
            length = self.size - offset
        if offset < 0 or offset + length > self.size:
            raise StorageError(
                f"read of {length} bytes at offset {offset} exceeds page "
                f"size {self.size}"
            )
        return self.data[offset : offset + length]
