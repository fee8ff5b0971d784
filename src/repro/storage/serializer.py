"""Binary node serialization.

Maps a :class:`~repro.core.node.Node` onto its fixed-size page image so the
storage layer can persist and reload indexes and so the capacity accounting
(``IndexConfig.entry_bytes``) corresponds to a real byte layout.

A page is a run of *slots*, and every slot has one layout, ``<Q{2K}d``: a
64-bit word followed by the ``K`` lows and ``K`` highs of a rectangle
(:func:`entry_physical_bytes` bytes).  The word says what the slot is:

* data entry  — ``record_id``, bit 63 = remnant flag;
* branch entry — child page id (bits 0..47) and the branch's spanning
  count (bits 48..62), with the branch rectangle; its spanning records
  follow it as data-entry slots.

A leaf is ``count`` data slots; an inner node is ``count`` branch slots,
each followed by its spanning run.  The slots sit behind

* node header — level (1), dims (1), entry count (2);
* page header — magic (4), checkpoint generation (4) and CRC32 (4) of the
  rest of the page, so bit-flips and torn writes surface as
  :class:`~repro.exceptions.PageCorruptionError` on read instead of being
  silently deserialized.

Because one slot format serves both kinds of entry, encoding and decoding
are one compiled loop each, instantiated per K by
:func:`repro.core.kernel.unrolled` around a precompiled slot
``struct.Struct``: the encoder writes every slot with ``pack_into``
straight into the zero-filled page buffer (K from the node's first
entry), and the decoder walks the page's slots with one ``iter_unpack``.

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
from ..core.geometry import Rect
from ..core.kernel import unrolled
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
_CRC = struct.Struct("<I")

_HEADER = struct.Struct("<BBH")
_BODY = PAGE_HEADER_BYTES + _HEADER.size  # offset of the first slot
_REMNANT_BIT = 1 << 63
_SPAN_COUNT_SHIFT = 48
_SPAN_COUNT_MASK = (1 << 15) - 1
_CHILD_MASK = (1 << _SPAN_COUNT_SHIFT) - 1
_SPAN_ONE = 1 << _SPAN_COUNT_SHIFT  # one spanning record in a branch word


@dataclass(slots=True)
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


@dataclass(slots=True)
class BranchImage:
    #: Page id of the child node.
    child: int
    lows: tuple[float, ...]
    highs: tuple[float, ...]
    spanning: list[RecordImage] = field(default_factory=list)

    @property
    def rect(self) -> Rect:
        return Rect(self.lows, self.highs)


@dataclass(slots=True)
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


# The slot loops, compiled per K (``<<sep|text>>`` = once per dimension).
# ``encode`` writes a node's header and slots into the zero-filled ``buf``;
# each guard raises before the slot it refuses is written, in slot order,
# and a slot past the end of ``buf`` raises ``struct.error``.
_ENCODE = """
from struct import Struct
from repro.exceptions import StorageError
from repro.core.config import PAGE_HEADER_BYTES
from repro.storage.serializer import (
    _BODY, _CHILD_MASK, _HEADER, _REMNANT_BIT, _SPAN_COUNT_MASK, _SPAN_ONE,
)

_SLOT = Struct("<Q<<|dd>>")

def encode(buf, node, page_of):
    pack = _SLOT.pack_into
    size = _SLOT.size
    offset = _BODY
    if node.level == 0:
        records = node.data_entries
        _HEADER.pack_into(buf, PAGE_HEADER_BYTES, 0, <<+|1>>, len(records))
        for e in records:
            rid = e.record_id
            if rid >= _REMNANT_BIT:
                raise StorageError(f"record id {rid} too large to encode")
            lo = e.lows
            hi = e.highs
            pack(buf, offset, rid | _REMNANT_BIT if e.is_remnant else rid,
                 <<, |lo[{d}]>>, <<, |hi[{d}]>>)
            offset += size
        return
    branches = node.branches
    _HEADER.pack_into(buf, PAGE_HEADER_BYTES, node.level & 0xFF, <<+|1>>, len(branches))
    for b in branches:
        spanning = b.spanning
        if len(spanning) > _SPAN_COUNT_MASK:
            raise StorageError("too many spanning records to encode")
        child = page_of[b.child.node_id]
        if child > _CHILD_MASK:
            raise StorageError(f"page id {child} too large to encode")
        lo = b.lows
        hi = b.highs
        pack(buf, offset, child | len(spanning) * _SPAN_ONE, <<, |lo[{d}]>>, <<, |hi[{d}]>>)
        offset += size
        for e in spanning:
            rid = e.record_id
            if rid >= _REMNANT_BIT:
                raise StorageError(f"record id {rid} too large to encode")
            lo = e.lows
            hi = e.highs
            pack(buf, offset, rid | _REMNANT_BIT if e.is_remnant else rid,
                 <<, |lo[{d}]>>, <<, |hi[{d}]>>)
            offset += size
"""

# ``decode`` reads ``count`` entries from the slots of ``data``: records
# for a leaf, branches with their spanning runs for an inner node.
_DECODE = """
from itertools import islice
from struct import Struct
from repro.exceptions import StorageError
from repro.storage.serializer import (
    _BODY, _CHILD_MASK, _REMNANT_BIT, _SPAN_COUNT_MASK, _SPAN_COUNT_SHIFT, BranchImage, RecordImage,
)

_SLOT = Struct("<Q<<|dd>>")
_ID = _REMNANT_BIT - 1

def decode(data, level, count):
    size = _SLOT.size
    slots = _SLOT.iter_unpack(memoryview(data)[_BODY:_BODY + (len(data) - _BODY) // size * size])
    if level == 0:
        records = [
            RecordImage(w & _ID, w >= _REMNANT_BIT, (<<|l{d}, >>), (<<|h{d}, >>))
            for w, <<|l{d}, >><<|h{d}, >>in islice(slots, count)
        ]
        if len(records) != count:
            raise StorageError(f"corrupt node header: {count} entries overrun the page")
        return records, []
    branches = []
    for w, <<|l{d}, >><<|h{d}, >>in islice(slots, count):
        n = w >> _SPAN_COUNT_SHIFT & _SPAN_COUNT_MASK
        spanning = []
        if n:
            spanning = [
                RecordImage(r & _ID, r >= _REMNANT_BIT, (<<|s{d}, >>), (<<|t{d}, >>))
                for r, <<|s{d}, >><<|t{d}, >>in islice(slots, n)
            ]
            if len(spanning) != n:
                raise StorageError(f"corrupt branch: {n} spanning records overrun the page")
        branches.append(BranchImage(w & _CHILD_MASK, (<<|l{d}, >>), (<<|h{d}, >>), spanning))
    if len(branches) != count:
        raise StorageError(f"corrupt node header: {count} entries overrun the page")
    return [], branches
"""


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
    encode = unrolled(_ENCODE, "encode", dims)
    buf = bytearray(page_size)
    try:
        encode(buf, node, page_of)
    except struct.error:
        # Most likely the body overran the page.  Encode again into a
        # buffer that fits it, so a guard on a later slot still reports
        # first (and a value that fits no field raises again), then refuse.
        needed = _BODY + entry_physical_bytes(dims) * node.slots_used
        encode(bytearray(needed), node, page_of)
        raise StorageError(
            f"node {node.node_id} needs {needed} bytes > page size {page_size}"
        ) from None
    # The CRC covers the magic and generation too, so a flipped bit
    # anywhere in the page (header included) is caught on read.
    _PAGE_HEADER.pack_into(buf, 0, PAGE_MAGIC, generation & 0xFFFFFFFF, 0)
    view = memoryview(buf)
    _CRC.pack_into(buf, 8, zlib.crc32(view[PAGE_HEADER_BYTES:], zlib.crc32(view[:8])))
    return bytes(buf)


def verify_page(data: bytes, page_id: int | None = None) -> int:
    """Check a page image's integrity header; returns its generation.

    Raises :class:`~repro.exceptions.PageCorruptionError` on a bad magic
    or CRC mismatch, plain :class:`~repro.exceptions.StorageError` when the
    buffer is too small to even hold the header.
    """
    where = "page" if page_id is None else f"page {page_id}"
    if len(data) < _BODY:
        raise StorageError(f"{where} too small for a node header")
    magic, generation, crc = _PAGE_HEADER.unpack_from(data, 0)
    if magic != PAGE_MAGIC:
        raise PageCorruptionError(
            f"{where}: bad magic {magic!r} (expected {PAGE_MAGIC!r})", page_id
        )
    view = memoryview(data)
    actual = zlib.crc32(view[PAGE_HEADER_BYTES:], zlib.crc32(view[:8]))
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
    records, branches = unrolled(_DECODE, "decode", dims)(data, level, count)
    return NodeImage(level, dims, records, branches, generation)


def _node_dims(node: Node) -> int:
    if node.level == 0:
        if node.data_entries:
            return len(node.data_entries[0].lows)
    elif node.branches:
        return len(node.branches[0].lows)
    if node.assigned_region is not None:
        return node.assigned_region.dims
    if node.parent is not None:
        # Emptied but still linked (its branch holds spanning records).
        return node.parent.branches[0].rect.dims
    raise StorageError(f"cannot infer dimensionality of empty node {node.node_id}")
