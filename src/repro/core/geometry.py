"""Geometry kernel for K-dimensional interval (box) data.

Everything the index family needs is a closed axis-aligned box in
``K >= 1`` dimensions.  A *point* in a dimension is a box whose lower and
upper bounds coincide in that dimension, so "interval data" (intervals in
the X dimension, points in Y) and "rectangle data" from the paper are both
just :class:`Rect` instances.

The paper's central predicate (Section 2) is *span*:

    an interval ``I1`` spans ``I2`` iff
    ``I1.low_limit <= I2.low_limit`` and ``I1.high_limit >= I2.high_limit``.

For K-dimensional records the SR-Tree (Section 3.1.1) stores a record as a
spanning record on node ``N`` when it spans the region of one of ``N``'s
branches "in either or both dimensions"; the record must additionally lie
inside (or be cut to lie inside) ``N``'s own region.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from ..exceptions import GeometryError

__all__ = [
    "Rect",
    "GeometryError",
    "spans",
    "union_all",
    "pieces_cover",
    "point",
    "interval",
    "segment",
]


def spans(
    alo: Sequence[float], ahi: Sequence[float], blo: Sequence[float], bhi: Sequence[float]
) -> bool:
    """True when box ``a`` spans box ``b`` in at least one dimension *and*
    overlaps it in every other dimension, on flat bounds.

    This is the SR-Tree spanning-record criterion: a record spanning a
    branch region "in either or both dimensions" (Section 3.1.1); the
    overlap requirement in the remaining dimensions keeps the predicate
    meaningful for records far away from the branch.  The write path calls
    it on the ``lows`` / ``highs`` entries already carry (DESIGN §3.2).
    """
    spanned = False
    for lo, hi, olo, ohi in zip(alo, ahi, blo, bhi):
        if lo > ohi or hi < olo:
            return False
        if lo <= olo and hi >= ohi:
            spanned = True
    return spanned


class Rect:
    """An immutable closed axis-aligned box in K dimensions.

    Bounds are stored as two tuples, ``lows`` and ``highs``, with
    ``lows[d] <= highs[d]`` for every dimension ``d``; a NaN bound is
    rejected (it compares false both ways, so no test could place it),
    infinite ones are legal.

    >>> r = Rect((0.0, 0.0), (10.0, 5.0))
    >>> r.area
    50.0
    >>> r.contains(Rect((1, 1), (2, 2)))
    True
    """

    __slots__ = ("lows", "highs")

    def __init__(self, lows: Sequence[float], highs: Sequence[float]) -> None:
        lows = tuple(map(float, lows))
        highs = tuple(map(float, highs))
        if len(lows) != len(highs):
            raise GeometryError(
                f"dimension mismatch: {len(lows)} lows vs {len(highs)} highs"
            )
        if not lows:
            raise GeometryError("a Rect needs at least one dimension")
        for lo, hi in zip(lows, highs):
            if not lo <= hi:  # also true when either bound is NaN
                if lo > hi:
                    raise GeometryError(f"inverted bounds: low {lo} > high {hi}")
                raise GeometryError(f"NaN bound: [{lo}, {hi}]")
        object.__setattr__(self, "lows", lows)
        object.__setattr__(self, "highs", highs)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Rect is immutable")

    def __reduce__(self) -> tuple[type["Rect"], tuple[tuple[float, ...], tuple[float, ...]]]:
        # pickle and copy rebuild through __init__, since __setattr__ refuses.
        return (Rect, (self.lows, self.highs))

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    @property
    def dims(self) -> int:
        """Number of dimensions K."""
        return len(self.lows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rect):
            return NotImplemented
        return self.lows == other.lows and self.highs == other.highs

    def __hash__(self) -> int:
        return hash((self.lows, self.highs))

    def __repr__(self) -> str:
        spans = ", ".join(
            f"[{lo:g}, {hi:g}]" for lo, hi in zip(self.lows, self.highs)
        )
        return f"Rect({spans})"

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(zip(self.lows, self.highs))

    # ------------------------------------------------------------------
    # Measures
    # ------------------------------------------------------------------
    @property
    def area(self) -> float:
        """Product of the extents (0 if degenerate in any dimension)."""
        result = 1.0
        for lo, hi in zip(self.lows, self.highs):
            result *= hi - lo
        return result

    @property
    def margin(self) -> float:
        """Sum of the extents (the R*-Tree "margin" surrogate for perimeter)."""
        return sum(hi - lo for lo, hi in zip(self.lows, self.highs))

    def extent(self, dim: int) -> float:
        """Length of the box in dimension ``dim``."""
        return self.highs[dim] - self.lows[dim]

    @property
    def center(self) -> tuple[float, ...]:
        return tuple((lo + hi) / 2.0 for lo, hi in zip(self.lows, self.highs))

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def intersects(self, other: "Rect") -> bool:
        """True when the closed boxes share at least one point."""
        for slo, shi, olo, ohi in zip(self.lows, self.highs, other.lows, other.highs):
            if slo > ohi or shi < olo:
                return False
        return True

    def contains(self, other: "Rect") -> bool:
        """True when ``other`` lies entirely inside this box (closed)."""
        for slo, shi, olo, ohi in zip(self.lows, self.highs, other.lows, other.highs):
            if olo < slo or ohi > shi:
                return False
        return True

    def contains_point(self, coords: Sequence[float]) -> bool:
        for lo, hi, c in zip(self.lows, self.highs, coords):
            if c < lo or c > hi:
                return False
        return True

    def spans_dim(self, other: "Rect", dim: int) -> bool:
        """Paper's 1-D span predicate applied in dimension ``dim``."""
        return self.lows[dim] <= other.lows[dim] and self.highs[dim] >= other.highs[dim]

    def spans(self, other: "Rect") -> bool:
        """True when this box spans ``other`` in at least one dimension
        *and* overlaps it in every other dimension (:func:`spans`)."""
        return spans(self.lows, self.highs, other.lows, other.highs)

    # ------------------------------------------------------------------
    # Constructive operations
    # ------------------------------------------------------------------
    def union(self, other: "Rect") -> "Rect":
        """Minimum bounding box of the two boxes."""
        return Rect(
            tuple(min(a, b) for a, b in zip(self.lows, other.lows)),
            tuple(max(a, b) for a, b in zip(self.highs, other.highs)),
        )

    def intersection(self, other: "Rect") -> "Rect | None":
        """The overlapping box, or None when the boxes are disjoint."""
        lows = tuple(max(a, b) for a, b in zip(self.lows, other.lows))
        highs = tuple(min(a, b) for a, b in zip(self.highs, other.highs))
        for lo, hi in zip(lows, highs):
            if lo > hi:
                return None
        return Rect(lows, highs)

    def enlargement(self, other: "Rect") -> float:
        """Area growth needed for this box to enclose ``other``.

        This is the quantity Guttman's ChooseLeaf minimises.
        """
        grown = 1.0
        for slo, shi, olo, ohi in zip(self.lows, self.highs, other.lows, other.highs):
            grown *= max(shi, ohi) - min(slo, olo)
        return grown - self.area

    def cut(self, outer: "Rect") -> tuple["Rect | None", list["Rect"]]:
        """Cut this box against ``outer`` (Section 3.1.1, Figure 3).

        Returns ``(spanning_portion, remnants)`` where the spanning portion
        is ``self ∩ outer`` (None when disjoint) and the remnants are
        disjoint boxes that exactly tile ``self − outer``.  At most ``2K``
        remnants are produced, peeled off one dimension at a time.
        """
        inside = self.intersection(outer)
        if inside is None:
            return None, [self]
        remnants: list[Rect] = []
        lows = list(self.lows)
        highs = list(self.highs)
        for d in range(len(lows)):
            if lows[d] < outer.lows[d]:
                slab_highs = list(highs)
                slab_highs[d] = outer.lows[d]
                remnants.append(Rect(tuple(lows), tuple(slab_highs)))
                lows[d] = outer.lows[d]
            if highs[d] > outer.highs[d]:
                slab_lows = list(lows)
                slab_lows[d] = outer.highs[d]
                remnants.append(Rect(tuple(slab_lows), tuple(highs)))
                highs[d] = outer.highs[d]
        return inside, remnants

    def translated(self, offsets: Sequence[float]) -> "Rect":
        """A copy shifted by ``offsets`` (one offset per dimension)."""
        return Rect(
            tuple(lo + o for lo, o in zip(self.lows, offsets)),
            tuple(hi + o for hi, o in zip(self.highs, offsets)),
        )


def union_all(rects: Iterable[Rect]) -> Rect:
    """Minimum bounding box of a non-empty iterable of boxes."""
    it = iter(rects)
    try:
        first = next(it)
    except StopIteration:
        raise GeometryError("union_all of an empty iterable") from None
    lows = list(first.lows)
    highs = list(first.highs)
    for r in it:
        for d, (lo, hi) in enumerate(zip(r.lows, r.highs)):
            if lo < lows[d]:
                lows[d] = lo
            if hi > highs[d]:
                highs[d] = hi
    return Rect(tuple(lows), tuple(highs))


def pieces_cover(target: Rect, pieces: Iterable[Rect]) -> bool:
    """True when pairwise-disjoint ``pieces`` jointly cover ``target``.

    Requires the pieces to be disjoint up to shared boundary faces — the
    shape produced by cutting (fragments of one logical record).  Coverage
    is tested by measure in the subspace of ``target``'s non-degenerate
    dimensions, so stabbing lines and points work too.
    """
    live_dims = [d for d in range(target.dims) if target.extent(d) > 0.0]
    if not live_dims:
        return any(p.contains(target) for p in pieces)
    # Accumulate each piece's *fraction* of the target's measure, one
    # normalised ratio per dimension.  Multiplying absolute extents would
    # underflow to 0.0 for tiny targets (two 1e-265 extents make a 1e-530
    # volume), which silently declared everything covered.
    total = 0.0
    for piece in pieces:
        clipped = piece.intersection(target)
        if clipped is None:
            continue
        fraction = 1.0
        for d in live_dims:
            fraction *= clipped.extent(d) / target.extent(d)
        total += fraction
    return total >= 1.0 - 1e-9


def point(*coords: float) -> Rect:
    """A degenerate box representing a point (``point(3, 4)``)."""
    return Rect(coords, coords)


def interval(low: float, high: float) -> Rect:
    """A 1-D interval ``[low, high]``."""
    return Rect((low,), (high,))


def segment(x_low: float, x_high: float, y: float) -> Rect:
    """A horizontal line segment: an X interval at a fixed Y value.

    This is the paper's "interval data" shape (Figure 1): an interval in the
    time dimension at a point value in the other dimension.
    """
    return Rect((x_low, y), (x_high, y))
