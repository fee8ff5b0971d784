"""The page serializer as it stood before the per-K slot kernel.

This is ``repro.storage.serializer``'s encoder and decoder written one
record at a time: a ``_WORD.pack`` and a ``struct.pack(f"<{2*dims}d", ...)``
per entry, appended to a ``bytearray``.  It is kept, verbatim, as the
oracle the compiled slot kernel must agree with *byte for byte* on every
page it writes and *image for image* on every page it reads
(``tests/test_serializer.py``).  The image classes and the layout
constants are the module's own, so decoded images compare with ``==``.
Test-only: nothing under ``src/`` imports it.
"""

from __future__ import annotations

import struct
import zlib

from repro.core.config import PAGE_HEADER_BYTES
from repro.core.entry import DataEntry
from repro.core.node import Node
from repro.exceptions import PageCorruptionError, StorageError
from repro.storage.serializer import PAGE_MAGIC, BranchImage, NodeImage, RecordImage

__all__ = ["serialize_node", "deserialize_node", "verify_page"]

_PAGE_HEADER = struct.Struct("<4sII")  # magic, generation, crc32
_HEADER = struct.Struct("<BBH")
_WORD = struct.Struct("<Q")
_REMNANT_BIT = 1 << 63
_SPAN_COUNT_SHIFT = 48
_SPAN_COUNT_MASK = (1 << 15) - 1
_CHILD_MASK = (1 << _SPAN_COUNT_SHIFT) - 1


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
