"""Curve-range key-space partitioner for the sharded serving tier.

Every record is mapped to a space-filling-curve key of its rectangle's
center (:func:`curve_key` — Hilbert in 2-D, Z-order otherwise), and the
key space ``[0, curve_keyspace(dims))`` is cut into contiguous half-open
ranges, one per shard.  Contiguity is what makes
rebalancing cheap: splitting a hot shard is splitting one interval at a
chosen key, and the records that move are exactly those whose keys fall
in the new half — no global reshuffle.

The partitioner is pure bookkeeping: it never touches records.  The
router owns the record-id -> shard map; this class answers only
"which shard does this key belong to" and mutates under the router's
exclusive topology latch during :meth:`split`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from ..core.geometry import Rect
from ..exceptions import ConfigError, NotFoundError

__all__ = [
    "CURVE_ORDER",
    "CurveRangePartitioner",
    "ShardRange",
    "curve_key",
    "curve_keyspace",
    "hilbert_index",
]

#: Bits per dimension of the space-filling-curve keys: the key space
#: ``[0, curve_keyspace(dims))`` at this order is what shards partition.
CURVE_ORDER = 16


# ----------------------------------------------------------------------
# Space-filling-curve keys
# ----------------------------------------------------------------------
def hilbert_index(x: int, y: int, order: int = CURVE_ORDER) -> int:
    """Index of cell ``(x, y)`` along a 2-D Hilbert curve of ``2**order``
    cells per side (the classic iterative xy-to-d conversion)."""
    d = 0
    s = 1 << (order - 1)
    while s > 0:
        rx = 1 if x & s else 0
        ry = 1 if y & s else 0
        d += s * s * ((3 * rx) ^ ry)
        # Rotate the quadrant so the curve stays continuous.
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        s >>= 1
    return d


def _morton_index(coords: Sequence[int], order: int) -> int:
    """Bit-interleaved (Z-order) key for dimensions other than 2."""
    key = 0
    for bit in range(order - 1, -1, -1):
        for c in coords:
            key = (key << 1) | ((c >> bit) & 1)
    return key


def curve_keyspace(dims: int, order: int = CURVE_ORDER) -> int:
    """Size of the curve-key space for ``dims`` dimensions at ``order``:
    :func:`curve_key` maps every rectangle into ``[0, curve_keyspace)``,
    and shards own contiguous sub-ranges of it."""
    return 1 << (order * dims)


def curve_key(rect: Rect, bounds: Rect, order: int = CURVE_ORDER) -> int:
    """Space-filling-curve key of a rectangle's center within ``bounds``:
    Hilbert in two dimensions, Z-order (Morton) otherwise, so records
    near each other in space get keys near each other and land on the
    same shard.  Centers outside ``bounds`` clamp to its edge cells, so
    every rectangle gets a key in ``[0, curve_keyspace)``."""
    scale = (1 << order) - 1
    cell: list[int] = []
    center = rect.center
    for d in range(rect.dims):
        lo, hi = bounds.lows[d], bounds.highs[d]
        extent = hi - lo
        frac = (center[d] - lo) / extent if extent > 0.0 else 0.0
        q = int(frac * scale)
        cell.append(min(scale, max(0, q)))
    if rect.dims == 2:
        return hilbert_index(cell[0], cell[1], order)
    return _morton_index(cell, order)


@dataclass(frozen=True)
class ShardRange:
    """One shard's half-open slice ``[lo, hi)`` of the curve-key space."""

    lo: int
    hi: int
    shard_id: int

    def __contains__(self, key: int) -> bool:
        return self.lo <= key < self.hi


class CurveRangePartitioner:
    """Contiguous curve-key ranges -> shard ids, with interval splitting.

    The initial layout cuts the key space into ``shards`` equal ranges
    for shard ids ``0..shards-1``.  :meth:`split` carves the upper part
    of one shard's range off to a new shard id; ranges stay contiguous
    and totally ordered by ``lo``, so :meth:`shard_for_key` is a binary
    search however many splits have happened.
    """

    def __init__(
        self, shards: int, *, bounds: Rect, order: int = CURVE_ORDER
    ) -> None:
        if shards < 1:
            raise ConfigError(f"shards must be positive, got {shards}")
        self.bounds = bounds
        self.order = order
        self.keyspace = curve_keyspace(bounds.dims, order)
        if shards > self.keyspace:
            raise ConfigError(
                f"{shards} shards exceed the {self.keyspace}-key curve space"
            )
        step = self.keyspace // shards
        self._ranges: list[ShardRange] = [
            ShardRange(
                i * step,
                (i + 1) * step if i + 1 < shards else self.keyspace,
                i,
            )
            for i in range(shards)
        ]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def key(self, rect: Rect) -> int:
        """The curve key this partitioner routes ``rect`` by."""
        return curve_key(rect, self.bounds, self.order)

    def shard_for_key(self, key: int) -> int:
        """Owning shard id for a curve key (clamped into the key space)."""
        key = min(max(key, 0), self.keyspace - 1)
        index = bisect_right(self._ranges, key, key=lambda r: r.lo) - 1
        return self._ranges[index].shard_id

    def shard_for_rect(self, rect: Rect) -> int:
        return self.shard_for_key(self.key(rect))

    def range_of(self, shard_id: int) -> ShardRange:
        """The (single, contiguous) range owned by ``shard_id``."""
        for r in self._ranges:
            if r.shard_id == shard_id:
                return r
        raise NotFoundError(f"no shard {shard_id} in this partitioning")

    @property
    def shard_ids(self) -> tuple[int, ...]:
        """Shard ids in key-range order (lowest range first)."""
        return tuple(r.shard_id for r in self._ranges)

    @property
    def ranges(self) -> tuple[ShardRange, ...]:
        return tuple(self._ranges)

    def __len__(self) -> int:
        return len(self._ranges)

    # ------------------------------------------------------------------
    # Rebalance
    # ------------------------------------------------------------------
    def split(self, shard_id: int, split_key: int, new_shard_id: int) -> None:
        """Give ``[split_key, hi)`` of ``shard_id``'s range to a new shard.

        The caller (the router, under its exclusive topology latch) is
        responsible for having already migrated the records whose keys
        land in the new range.
        """
        if any(r.shard_id == new_shard_id for r in self._ranges):
            raise ConfigError(f"shard id {new_shard_id} already exists")
        for index, r in enumerate(self._ranges):
            if r.shard_id != shard_id:
                continue
            if not r.lo < split_key < r.hi:
                raise ConfigError(
                    f"split key {split_key} outside the open interval "
                    f"({r.lo}, {r.hi}) of shard {shard_id}"
                )
            self._ranges[index : index + 1] = [
                ShardRange(r.lo, split_key, shard_id),
                ShardRange(split_key, r.hi, new_shard_id),
            ]
            return
        raise NotFoundError(f"no shard {shard_id} in this partitioning")
