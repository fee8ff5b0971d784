"""Simulated disk pages.

The paper's indexes are *paged* structures: each node occupies one page
whose size depends on the node's level (1 KB at the leaves, doubling per
level — Section 2.1.2 / Section 5).  A :class:`Page` is a fixed-size byte
buffer with a page id; :class:`PageId` values are allocated by the pager.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exceptions import StorageError

__all__ = ["PageId", "Page"]

#: Page numbers are plain ints wrapped for readability.
PageId = int


@dataclass
class Page:
    """A fixed-size page buffer.

    Attributes:
        page_id: Identity of the page within its file.
        size: Capacity in bytes; writes beyond it raise StorageError.
        data: Current contents (always exactly ``size`` bytes).
        dirty: Set when the buffer content diverges from disk.
    """

    page_id: PageId
    size: int
    data: bytearray = field(default_factory=bytearray)
    dirty: bool = False

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise StorageError(f"invalid page size {self.size}")
        if not self.data:
            self.data = bytearray(self.size)
        elif len(self.data) != self.size:
            raise StorageError(
                f"page {self.page_id}: buffer is {len(self.data)} bytes, "
                f"expected {self.size}"
            )

    def write(self, payload: bytes, offset: int = 0) -> None:
        """Copy ``payload`` into the page at ``offset`` and mark it dirty."""
        if offset < 0 or offset + len(payload) > self.size:
            raise StorageError(
                f"write of {len(payload)} bytes at offset {offset} exceeds "
                f"page size {self.size}"
            )
        self.data[offset : offset + len(payload)] = payload
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
        return bytes(self.data[offset : offset + length])
