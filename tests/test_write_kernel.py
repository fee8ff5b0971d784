"""The write-side kernel decides what the ``Rect``-based write path decided.

DESIGN §3.2 "The write-side kernel": splits and spanning placement work on
flat ``lows`` / ``highs`` and the descent hands ``_try_place_spanning`` the
region it already holds.  Nothing about the *decisions* may change, so every
build here is made twice — once by the code in ``src/`` and once with the
code it replaced (the ``Rect``-based splits of ``tests/_reference_split.py``
and the placement below, which looks its region up and cuts first) — and
compared node for node.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    IndexConfig,
    Rect,
    SRTree,
    check_index,
    segment,
    workloads,
)
from repro.bench import INDEX_TYPES, build_index
from repro.core.entry import BranchEntry, DataEntry
from repro.core.floatcmp import exact_zero
from repro.core.node import Node

from . import _reference_split as reference

PREFIX = 2000
DATASETS = ("I1", "I2", "I3", "I4", "R1", "R2")


def _placement_by_lookup(self, node, entry, pending, region):
    """``SRTree._try_place_spanning`` before the kernel: the region is found
    by scanning the parent (the argument is ignored), the record is cut
    before any branch is tested, and every test is a ``Rect`` method."""
    region = None if node.parent is None else node.parent.branch_for_child(node).rect
    if region is None:
        portion, remnant_rects = entry.rect, []
    else:
        portion, remnant_rects = entry.rect.cut(region)
        if portion is None:
            return False
        for d in range(portion.dims):
            if exact_zero(portion.extent(d)) and entry.rect.extent(d) > 0.0:
                return False

    target = None
    for branch in node.branches:
        if portion.spans(branch.rect):
            target = branch
            break
    if target is None:
        return False

    over_quota = node.spanning_count >= self.config.spanning_capacity(node.level)
    full = node.slots_used >= self.config.capacity(node.level)
    if over_quota or full:
        if self.config.spanning_overflow_policy != "split" or len(node.branches) < 2:
            return False

    if remnant_rects:
        self.stats.cuts += 1
        self.stats.remnants += len(remnant_rects)
        self._fragment_counts[entry.record_id] = (
            self._fragment_counts.get(entry.record_id, 1) + len(remnant_rects)
        )
        record = entry.with_rect(portion)
        for rect in remnant_rects:
            pending.append(entry.with_rect(rect, is_remnant=True))
    else:
        record = entry
    target.spanning.append(record)
    self._touch(node)
    self.stats.spanning_placements += 1
    if self._node_overflowing(node):
        self._split_node(node, pending)
    return True


@pytest.fixture
def replaced_code(monkeypatch):
    """Run the write path on the code the kernel replaced."""
    monkeypatch.setattr("repro.core.rtree.split_rects", reference.split_rects)
    monkeypatch.setattr(SRTree, "_try_place_spanning", _placement_by_lookup)


def _entry(e):
    return (e.record_id, e.lows, e.highs, e.rect, e.is_remnant)


def structure(tree):
    """Everything a build decides, depth-first: each node's level, its
    entries' ids / bounds / remnant flag, each branch's bounds (flat and
    ``Rect``) and spanning list."""
    out = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        out.append(
            (
                node.level,
                [_entry(e) for e in node.data_entries],
                [(b.lows, b.highs, b.rect, [_entry(r) for r in b.spanning])
                 for b in node.branches],
            )
        )
        stack.extend(b.child for b in reversed(node.branches))
    return out


def outcome(tree):
    check_index(tree)
    return structure(tree), dict(tree._fragment_counts), tree.stats.snapshot()


def small_pages(policy):
    return IndexConfig(
        leaf_node_bytes=256, node_size_doubling=False, spanning_overflow_policy=policy
    )


def _both_ways(build, request):
    kernel = build()
    request.getfixturevalue("replaced_code")
    return kernel, build()


def _assert_same(kernel, replaced):
    got, want = outcome(kernel), outcome(replaced)
    assert got[2] == want[2]  # counters first: the readable failure
    assert got[1] == want[1]
    assert got[0] == want[0]


@pytest.mark.parametrize("kind", INDEX_TYPES)
@pytest.mark.parametrize("dist", DATASETS)
def test_paper_indexes_build_identically(dist, kind, request):
    rects = getattr(workloads, f"dataset_{dist}")(PREFIX, 1991)
    kernel, replaced = _both_ways(lambda: build_index(kind, rects), request)
    _assert_same(kernel, replaced)
    assert kernel.stats.splits > 0


@pytest.mark.parametrize("kind", ["SR-Tree", "Skeleton SR-Tree"])
@pytest.mark.parametrize("policy", ["descend", "split"])
@pytest.mark.parametrize("dist", ["I3", "R2"])
def test_small_page_builds_identically(dist, policy, kind, request):
    """Six-entry pages make a 2,000-record tree five or six levels deep, so
    these builds place, cut, demote and promote by the dozen — the default
    pages above manage a handful — and "split" splits nodes, the root
    included, from inside a placement."""
    rects = getattr(workloads, f"dataset_{dist}")(PREFIX, 1991)
    config = small_pages(policy)
    kernel, replaced = _both_ways(lambda: build_index(kind, rects, config), request)
    _assert_same(kernel, replaced)
    stats = kernel.stats
    assert stats.spanning_placements and stats.cuts and stats.demotions
    if dist == "R2":
        assert stats.promotions


@pytest.mark.parametrize("kind", ["R-Tree", "Skeleton SR-Tree"])
def test_linear_split_builds_identically(kind, request):
    rects = workloads.dataset_I4(PREFIX, 7)
    config = IndexConfig(split_algorithm="linear")
    kernel, replaced = _both_ways(lambda: build_index(kind, rects, config), request)
    _assert_same(kernel, replaced)


def test_full_width_bands_that_split_the_root_build_a_valid_tree(request):
    """Full-width bands span a root branch; under "split" placing them
    splits the root again and again, and every level's branch rectangle
    must still enclose its child's.  (Routed as one group, the same bands
    left a branch poking out of its enclosing rectangle.)"""
    rng = random.Random(3)
    short = [segment(x, x + 500.0, rng.uniform(0, 1e5)) for x in
             (rng.uniform(0, 99_000) for _ in range(300))]
    bands = [Rect((-10.0, y), (100_010.0, y + 60_000.0)) for y in
             (rng.uniform(2e4, 4e4) for _ in range(30))]

    def build():
        tree = SRTree(small_pages("split"))
        for rect in short:
            tree.insert(rect)
        height = tree.height
        for rect in bands:
            tree.insert(rect)
        assert tree.height > height
        return tree

    kernel, replaced = _both_ways(build, request)
    _assert_same(kernel, replaced)  # check_index on both builds
    stats = kernel.stats
    assert stats.spanning_placements == len(bands) and stats.promotions


# ---------------------------------------------------------------------------
# _try_place_spanning: the region the descent hands over is the region the
# old code looked up, and the answer is the same.
# ---------------------------------------------------------------------------
def _two_level_tree(policy="descend"):
    """root -> ``mid`` (region [0,100] x [0,100], two leaf branches side by
    side) plus a far sibling, so ``mid`` is a non-root, non-leaf node."""
    tree = SRTree(IndexConfig(spanning_overflow_policy=policy))
    mid, far = Node(level=1), Node(level=1)
    for node, boxes in (
        (mid, [Rect((0, 0), (40, 100)), Rect((60, 0), (100, 100))]),
        (far, [Rect((500, 0), (600, 100))]),
    ):
        for box in boxes:
            leaf = Node(level=0, parent=node)
            leaf.data_entries.append(DataEntry(box, 0, None))
            node.branches.append(BranchEntry(box, leaf))
    root = Node(level=2)
    for node, box in ((mid, Rect((0, 0), (100, 100))), (far, Rect((500, 0), (600, 100)))):
        node.parent = root
        root.branches.append(BranchEntry(box, node))
    tree.root = root
    tree._height = 3
    return tree, mid


def _place(rect, *, at_root=False, fill_quota=False, replaced=False, policy="descend"):
    tree, mid = _two_level_tree(policy)
    node = tree.root if at_root else mid
    if fill_quota:
        filler = DataEntry(Rect((0, 10), (40, 10)), 99, None)
        node.branches[0].spanning = [filler] * tree.config.spanning_capacity(node.level)
    entry = DataEntry(rect, 7, "payload")
    tree._fragment_counts[7] = 1
    pending: list[DataEntry] = []
    if replaced:
        placed = _placement_by_lookup(tree, node, entry, pending, None)
    else:
        region = None if at_root else tree.root.branches[0].rect
        placed = tree._try_place_spanning(node, entry, pending, region)
    return (
        placed,
        [_entry(e) for e in pending],
        structure(tree),
        tree._fragment_counts[7],
        tree.stats.snapshot(),
    )


PLACEMENTS = {
    # pokes out of the region on both sides and spans the first branch
    "cut": dict(rect=Rect((-20, 50), (130, 50))),
    # inside the region, spans the second branch: placed whole
    "whole": dict(rect=Rect((55, 50), (100, 50))),
    # only touches the region's edge: the clip is a zero-width slice
    "degenerate-slice": dict(rect=Rect((100, 0), (180, 100))),
    "outside": dict(rect=Rect((200, 50), (300, 50))),
    "spans-nothing": dict(rect=Rect((10, 50), (30, 50))),
    "over-quota": dict(rect=Rect((0, 50), (45, 50)), fill_quota=True),
    "over-quota-split": dict(rect=Rect((0, 50), (45, 50)), fill_quota=True, policy="split"),
    # the root has no region: nothing is cut however far the record reaches
    "root": dict(rect=Rect((-50, 0), (150, 100)), at_root=True),
}


@pytest.mark.parametrize("case", PLACEMENTS)
def test_placement_given_the_region_matches_placement_by_lookup(case):
    assert _place(**PLACEMENTS[case]) == _place(**PLACEMENTS[case], replaced=True)


def test_placement_outcomes():
    placed = {case: _place(**kwargs) for case, kwargs in PLACEMENTS.items()}
    assert {case: result[0] for case, result in placed.items()} == {
        "cut": True,
        "whole": True,
        "degenerate-slice": False,
        "outside": False,
        "spans-nothing": False,
        "over-quota": False,
        "over-quota-split": True,
        "root": True,
    }
    _, remnants, _, fragments, stats = placed["cut"]
    assert [(lows, highs, flag) for _, lows, highs, _, flag in remnants] == [
        ((-20.0, 50.0), (0.0, 50.0), True),
        ((100.0, 50.0), (130.0, 50.0), True),
    ]
    assert fragments == 3 and stats["cuts"] == 1 and stats["remnants"] == 2
    for case in ("whole", "root"):
        _, remnants, _, fragments, stats = placed[case]
        assert not remnants and fragments == 1 and stats["cuts"] == 0
    assert placed["over-quota-split"][4]["splits"] == 1
