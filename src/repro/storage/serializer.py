"""Binary node serialization.

Maps a :class:`~repro.core.node.Node` onto its fixed-size page image so the
storage layer can persist and reload indexes and so the capacity accounting
(``IndexConfig.entry_bytes``) corresponds to a real byte layout:

* data entry  — ``record_id`` (8 bytes, bit 63 = remnant flag) followed by
  ``2 * dims`` float64 coordinates;
* branch entry — child page id (8 bytes, bits 48..62 = spanning count)
  followed by the branch rectangle, then the branch's spanning records
  encoded as data entries;
* node header — level (1), dims (1), entry count (2);
* page header — every page image is prefixed with magic (4), checkpoint
  generation (4) and CRC32 of the rest of the page (4), so bit-flips and
  torn writes surface as :class:`~repro.exceptions.PageCorruptionError`
  on read instead of being silently deserialized.

Payloads are *not* stored in index pages (a real system stores tuple
references; see :class:`repro.storage.pager.StorageManager` for the sidecar
payload heap).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Any

from ..core.config import PAGE_HEADER_BYTES
from ..core.entry import DataEntry
from ..core.geometry import Rect
from ..core.node import Node
from ..exceptions import PageCorruptionError, StorageError

__all__ = [
    "NodeImage",
    "BranchImage",
    "RecordImage",
    "PAGE_MAGIC",
    "serialize_node",
    "deserialize_node",
    "verify_page",
    "entry_physical_bytes",
]

#: First bytes of every page image ("segment-index page, layout 1").
PAGE_MAGIC = b"SPG1"

_PAGE_HEADER = struct.Struct("<4sII")  # magic, generation, crc32
assert _PAGE_HEADER.size == PAGE_HEADER_BYTES

_HEADER = struct.Struct("<BBH")
_WORD = struct.Struct("<Q")
_REMNANT_BIT = 1 << 63
_SPAN_COUNT_SHIFT = 48
_SPAN_COUNT_MASK = (1 << 15) - 1
_CHILD_MASK = (1 << _SPAN_COUNT_SHIFT) - 1


@dataclass
class RecordImage:
    record_id: int
    is_remnant: bool
    lows: tuple[float, ...]
    highs: tuple[float, ...]
    #: Not on the page: whoever holds the payloads fills it after decoding.
    payload: Any = None

    @property
    def rect(self) -> Rect:
        return Rect(self.lows, self.highs)


@dataclass
class BranchImage:
    #: Page id of the child node.
    child: int
    lows: tuple[float, ...]
    highs: tuple[float, ...]
    spanning: list[RecordImage] = field(default_factory=list)

    @property
    def rect(self) -> Rect:
        return Rect(self.lows, self.highs)


@dataclass
class NodeImage:
    """A decoded page.  Field names match the live :class:`Node` /
    ``BranchEntry`` / ``DataEntry`` wherever :mod:`repro.core.query`
    reads them, so one traversal serves both."""

    level: int
    dims: int
    data_entries: list[RecordImage] = field(default_factory=list)
    branches: list[BranchImage] = field(default_factory=list)
    #: Checkpoint generation stamped into the page header that held this
    #: image (0 for images that never went through a checkpoint).
    generation: int = 0


def entry_physical_bytes(dims: int) -> int:
    """Actual bytes one entry occupies on a page."""
    return 8 + 16 * dims


def serialize_node(
    node: Node, page_size: int, page_of: dict[int, int], generation: int = 0
) -> bytes:
    """Encode ``node`` into exactly ``page_size`` bytes.

    ``page_of`` maps node ids to page ids (for branch child pointers);
    ``generation`` is stamped into the page's integrity header.  The CRC32
    in the header covers everything after it (body *and* padding), so any
    single flipped bit in the page is detected on read.
    """
    if page_size <= PAGE_HEADER_BYTES:
        raise StorageError(
            f"page size {page_size} cannot hold the {PAGE_HEADER_BYTES}-byte "
            f"integrity header"
        )
    dims = _node_dims(node)
    out = bytearray()
    if node.is_leaf:
        out += _HEADER.pack(node.level & 0xFF, dims, len(node.data_entries))
        for e in node.data_entries:
            out += _pack_record(e, dims)
    else:
        out += _HEADER.pack(node.level & 0xFF, dims, len(node.branches))
        for b in node.branches:
            if len(b.spanning) > _SPAN_COUNT_MASK:
                raise StorageError("too many spanning records to encode")
            child_page = page_of[b.child.node_id]
            if child_page > _CHILD_MASK:
                raise StorageError(f"page id {child_page} too large to encode")
            word = child_page | (len(b.spanning) << _SPAN_COUNT_SHIFT)
            out += _WORD.pack(word)
            out += _pack_rect(b.rect.lows, b.rect.highs)
            for r in b.spanning:
                out += _pack_record(r, dims)
    if len(out) + PAGE_HEADER_BYTES > page_size:
        raise StorageError(
            f"node {node.node_id} needs {len(out) + PAGE_HEADER_BYTES} bytes "
            f"> page size {page_size}"
        )
    out += bytes(page_size - PAGE_HEADER_BYTES - len(out))
    # The CRC covers the magic and generation too, so a flipped bit
    # anywhere in the page (header included) is caught on read.
    prefix = struct.pack("<4sI", PAGE_MAGIC, generation & 0xFFFFFFFF)
    crc = zlib.crc32(out, zlib.crc32(prefix))
    return _PAGE_HEADER.pack(PAGE_MAGIC, generation & 0xFFFFFFFF, crc) + bytes(out)


def verify_page(data: bytes, page_id: int | None = None) -> int:
    """Check a page image's integrity header; returns its generation.

    Raises :class:`~repro.exceptions.PageCorruptionError` on a bad magic
    or CRC mismatch, plain :class:`~repro.exceptions.StorageError` when the
    buffer is too small to even hold the header.
    """
    where = "page" if page_id is None else f"page {page_id}"
    if len(data) < PAGE_HEADER_BYTES + _HEADER.size:
        raise StorageError(f"{where} too small for a node header")
    magic, generation, crc = _PAGE_HEADER.unpack_from(data, 0)
    if magic != PAGE_MAGIC:
        raise PageCorruptionError(
            f"{where}: bad magic {magic!r} (expected {PAGE_MAGIC!r})", page_id
        )
    actual = zlib.crc32(data[PAGE_HEADER_BYTES:], zlib.crc32(data[:8]))
    if actual != crc:
        raise PageCorruptionError(
            f"{where}: CRC mismatch (header {crc:#010x}, computed {actual:#010x}) "
            f"— the page was corrupted on disk", page_id
        )
    return generation


def deserialize_node(data: bytes, page_id: int | None = None) -> NodeImage:
    """Decode (and integrity-check) a page image from :func:`serialize_node`."""
    generation = verify_page(data, page_id)
    level, dims, count = _HEADER.unpack_from(data, PAGE_HEADER_BYTES)
    if dims < 1:
        raise StorageError(f"corrupt node header: dims={dims}")
    image = NodeImage(level=level, dims=dims, generation=generation)
    offset = PAGE_HEADER_BYTES + _HEADER.size
    if level == 0:
        for _ in range(count):
            record, offset = _unpack_record(data, offset, dims)
            image.data_entries.append(record)
    else:
        for _ in range(count):
            (word,) = _WORD.unpack_from(data, offset)
            offset += _WORD.size
            lows, highs, offset = _unpack_rect(data, offset, dims)
            branch = BranchImage(
                child=word & _CHILD_MASK, lows=lows, highs=highs
            )
            for _ in range((word >> _SPAN_COUNT_SHIFT) & _SPAN_COUNT_MASK):
                record, offset = _unpack_record(data, offset, dims)
                branch.spanning.append(record)
            image.branches.append(branch)
    return image


def _node_dims(node: Node) -> int:
    rects = node.content_rects()
    if rects:
        return rects[0].dims
    if node.assigned_region is not None:
        return node.assigned_region.dims
    if node.parent is not None:
        # Emptied but still linked (its branch holds spanning records).
        return node.parent.branches[0].rect.dims
    raise StorageError(f"cannot infer dimensionality of empty node {node.node_id}")


def _pack_record(entry: DataEntry, dims: int) -> bytes:
    rid = entry.record_id
    if rid >= _REMNANT_BIT:
        raise StorageError(f"record id {rid} too large to encode")
    if entry.is_remnant:
        rid |= _REMNANT_BIT
    return _WORD.pack(rid) + _pack_rect(entry.rect.lows, entry.rect.highs)


def _pack_rect(lows: tuple[float, ...], highs: tuple[float, ...]) -> bytes:
    dims = len(lows)
    return struct.pack(f"<{2 * dims}d", *lows, *highs)


def _unpack_record(data: bytes, offset: int, dims: int) -> tuple[RecordImage, int]:
    (word,) = _WORD.unpack_from(data, offset)
    offset += _WORD.size
    lows, highs, offset = _unpack_rect(data, offset, dims)
    return (
        RecordImage(
            record_id=word & ~_REMNANT_BIT,
            is_remnant=bool(word & _REMNANT_BIT),
            lows=lows,
            highs=highs,
        ),
        offset,
    )


def _unpack_rect(
    data: bytes, offset: int, dims: int
) -> tuple[tuple[float, ...], tuple[float, ...], int]:
    values = struct.unpack_from(f"<{2 * dims}d", data, offset)
    offset += 16 * dims
    return values[:dims], values[dims:], offset
