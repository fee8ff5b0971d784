"""Each compiled kernel decides what the loop it replaced decided.

``repro.core.kernel`` compiles the read kernel's overlap test (for one
query and for a batch) and fragment collection, the delete's locate,
ChooseLeaf, the SR-Tree's spanned-branch scan and Guttman's quadratic and
linear splits once per dimensionality, each from one template.  Here
every instance for K = 1 to 4 runs beside the loop it replaced
(``tests/_reference_kernel.py``) over seeded random
trees of the kinds that store records differently: an SR-Tree whose
six-entry pages hold spanning records at every level, a skeleton
SR-Tree, and an R+-Tree that replicates.  The queries touch record
boundaries on an integer grid, are degenerate, or reach to +-inf.  Hits
must come back in the same order from the same node visits, fragments
grouped per record as before, and ChooseLeaf must pick the same branch.
The locate runs against the recursive descent it replaced in
``tests/test_delete_oracle.py``, the splits against their ``Rect``-based
oracle in ``tests/test_split.py``; here the splits get the case where
every preference is NaN, and every template's instances must be named
for profiles and tracebacks.
"""

from __future__ import annotations

import cProfile
import linecache
import math
import pstats
import random

import pytest

from repro import IndexConfig, Rect, RPlusTree, SkeletonSRTree, SRTree, check_index
from repro.core import query, split
from repro.core.entry import BranchEntry, DataEntry
from repro.core.kernel import unrolled
from repro.core.node import Node
from repro.core.rtree import RTree
from repro.core.srtree import _FIRST_SPANNED
from repro.exceptions import IndexStructureError

from . import _reference_kernel as reference
from . import _reference_split as reference_split

DIMS = (1, 2, 3, 4)
SIDE = 64  # an integer grid, so record and query boundaries often coincide
INF = math.inf


def _box(rng: random.Random, k: int) -> Rect:
    """A record: a point, a box degenerate in some dimensions, a small box,
    or one long in some dimension (an SR-Tree places those above the
    leaves)."""
    long_dim = rng.randrange(k) if rng.random() < 0.15 else None
    lows, highs = [], []
    for d in range(k):
        lo = rng.randrange(SIDE)
        if d == long_dim:
            width = rng.randrange(SIDE // 4, SIDE)
        elif rng.random() < 0.3:
            width = 0
        else:
            width = rng.randrange(1, 6)
        lows.append(lo)
        highs.append(min(SIDE, lo + width))
    return Rect(lows, highs)


def _queries(rng: random.Random, k: int, records: list[Rect]) -> list[Rect]:
    out = [
        Rect([0] * k, [SIDE] * k),  # the whole domain
        Rect([-INF] * k, [INF] * k),
        Rect([-INF] + [0] * (k - 1), [SIDE // 2] * k),
        Rect([SIDE // 2] * k, [INF] + [SIDE] * (k - 1)),
        Rect([SIDE + 1] * k, [INF] * k),  # beyond every record
    ]
    for _ in range(60):
        lows = [rng.randrange(SIDE) for _ in range(k)]
        out.append(Rect(lows, [lo + rng.choice((0, 0, 1, 3, 9)) for lo in lows]))
    for rect in rng.sample(records, 30):
        # Touching a record from outside in one dimension, and the
        # record's own corner point.
        d = rng.randrange(k)
        lows, highs = list(rect.lows), list(rect.highs)
        lows[d] = highs[d]
        highs[d] = highs[d] + 2
        out.append(Rect(lows, highs))
        out.append(Rect(rect.lows, rect.lows))
    return out


def _config(k: int) -> IndexConfig:
    return IndexConfig(dims=k, leaf_node_bytes=256, node_size_doubling=False)


def _trees(k: int, seed: int) -> tuple[list, list[Rect]]:
    rng = random.Random(seed * 10 + k)
    records = [_box(rng, k) for _ in range(400)]
    domain = [(0.0, float(SIDE))] * k
    trees = [
        SRTree(_config(k)),
        SkeletonSRTree(_config(k), expected_tuples=len(records), domain=domain),
        RPlusTree(_config(k), domain=domain),
    ]
    for tree in trees:
        for i, rect in enumerate(records):
            tree.insert(rect, i)
    check_index(trees[0])
    assert trees[0].stats.spanning_placements > 0
    return trees, _queries(rng, k, records)


@pytest.fixture(scope="module", params=[(k, seed) for k in DIMS for seed in (0, 1)],
                ids=lambda p: f"K={p[0]}-seed={p[1]}")
def built(request):
    return request.param[0], *_trees(*request.param)


def _inner_nodes(tree) -> list[Node]:
    return [node for node in tree.iter_nodes() if node.branches]


def _run(kernel, tree, rect, fetched: bool):
    """Hits, the visit list the kernel returns, the nodes its ``fetch``
    saw (with one) and the spanning-hit callbacks, all by identity."""
    fetches: list[int] = []
    spanning_hits: list[tuple[int, int]] = []

    def fetch(node):
        fetches.append(id(node))
        return node

    hits, visited = kernel(
        fetch if fetched else None, tree.root, rect,
        lambda node, e: spanning_hits.append((id(node), id(e))),
    )
    return [id(e) for e in hits], [id(n) for n in visited], fetches, spanning_hits


def test_intersecting_matches_the_loop(built):
    k, trees, queries = built
    spanning_hits = 0
    for tree in trees:
        for rect in queries:
            got = _run(query.intersecting, tree, rect, fetched=True)
            assert got == _run(reference.intersecting, tree, rect, fetched=True), (type(tree), rect)
            assert got[1] == got[2]  # one fetch per visit, in visit order
            live = _run(query.intersecting, tree, rect, fetched=False)
            assert live == (got[0], got[1], [], got[3])  # no fetch: handles are nodes
            spanning_hits += len(got[3])
    assert spanning_hits  # the spanning-record arm ran


def test_intersecting_many_matches_the_shared_search(built):
    """The batch kernel against the shared depth-first search it replaced:
    per query the same hits in the same order, the same visits and
    spanning-hit callbacks for the batch, each node visited once; and per
    query the hits of one :func:`query.intersecting`."""
    k, trees, queries = built
    for tree in trees:
        for batch in (queries, queries[:1], queries[5:25], []):
            runs = []
            for kernel in (query.intersecting_many, reference.intersecting_many):
                fetches: list[int] = []
                spanning_hits: list[tuple[int, int]] = []

                def fetch(node):
                    fetches.append(id(node))
                    return node

                hits, visited = kernel(
                    fetch, tree.root, batch,
                    lambda node, e: spanning_hits.append((id(node), id(e))),
                )
                runs.append(([[id(e) for e in h] for h in hits], [id(n) for n in visited],
                             fetches, spanning_hits))
            got, want = runs
            assert got == want, (type(tree), k)
            assert got[1] == got[2] and len(set(got[1])) == len(got[1])
            for rect, hits in zip(batch, got[0]):
                assert hits == _run(query.intersecting, tree, rect, fetched=False)[0]


def test_fragments_matches_the_loop(built):
    """The same fragments, grouped per record in the same order, from the
    same visits; records held outside the nodes (a skeleton's prediction
    buffer) included."""
    k, trees, queries = built
    rng = random.Random(k)
    loose = [DataEntry(_box(rng, k), -i, None) for i in range(1, 40)]

    def run(kernel, tree, rect, fetched: bool):
        fetches: list[int] = []

        def fetch(node):
            fetches.append(id(node))
            return node

        found, visited = kernel(fetch if fetched else None, tree.root, rect, loose)
        grouped = [(rid, [id(e) for e in pieces]) for rid, pieces in found.items()]
        return grouped, [id(n) for n in visited], fetches

    several = 0
    for tree in trees:
        for rect in queries:
            got = run(query.fragments, tree, rect, fetched=True)
            assert got == run(reference.fragments, tree, rect, fetched=True), (type(tree), rect)
            assert got[1] == got[2]
            assert run(query.fragments, tree, rect, fetched=False) == (got[0], got[1], [])
            several += any(len(ids) > 1 for _, ids in got[0])
    assert several  # some record was found as more than one fragment


def test_choose_branch_matches_the_loop(built):
    k, trees, queries = built
    for tree in trees[:2]:
        for node in _inner_nodes(tree):
            for rect in queries:
                got = RTree._choose_branch(tree, node, rect)
                assert got is reference.choose_branch(tree, node, rect), rect


def test_first_spanned_matches_the_loop(built):
    k, trees, queries = built
    first_spanned = unrolled(_FIRST_SPANNED, "first_spanned", k)
    found = 0
    for tree in trees[:2]:
        for node in _inner_nodes(tree):
            for rect in queries:
                for lows, highs in ((rect.lows, rect.highs), (list(rect.lows), list(rect.highs))):
                    got = first_spanned(node.branches, lows, highs)
                    assert got is reference.first_spanned(node.branches, lows, highs), rect
                    found += got is not None
    assert found


def _node(*boxes: tuple[tuple[float, ...], tuple[float, ...]]) -> Node:
    node = Node(level=1)
    for lows, highs in boxes:
        leaf = Node(level=0, parent=node)
        rect = Rect(lows, highs)
        leaf.data_entries.append(DataEntry(rect, 0, None))
        node.branches.append(BranchEntry(rect, leaf))
    return node


def _pad(k: int, lows: tuple[float, ...], highs: tuple[float, ...]):
    """A 1-D case in K dimensions: every further dimension is [0, 1], for
    branches and query alike, so it multiplies each area by one."""
    return lows + (0.0,) * (k - 1), highs + (1.0,) * (k - 1)


TIES = {
    # the same rectangle three times: the first wins
    "identical": ([((0,), (10,))] * 3, ((4,), (5,))),
    # inside both (enlargement 0): the smaller area wins, in either order
    "nested": ([((0,), (20,)), ((2,), (8,))], ((4,), (5,))),
    "nested-reversed": ([((2,), (8,)), ((0,), (20,))], ((4,), (5,))),
    # equal enlargement (5), areas 10 and 5: the smaller wins
    "equal-enlargement": ([((0,), (10,)), ((20,), (25,))], ((15,), (15,))),
    # equal enlargement and equal area on either side: the first wins
    "mirror": ([((0,), (10,)), ((20,), (30,))], ((15,), (15,))),
    # a half-infinite branch enlarges by inf - inf = NaN, which never wins
    "nan-enlargement": ([((-INF,), (10,)), ((20,), (30,))], ((5,), (5,))),
    "nan-enlargement-reversed": ([((20,), (30,)), ((-INF,), (10,))], ((5,), (5,))),
    # an infinite query: every enlargement is inf or NaN
    "infinite-query": ([((0,), (10,)), ((20,), (30,))], ((-INF,), (5,))),
}


@pytest.mark.parametrize("k", DIMS)
@pytest.mark.parametrize("case", TIES)
def test_choose_branch_ties(case, k):
    boxes, (qlo, qhi) = TIES[case]
    node = _node(*(_pad(k, tuple(map(float, lo)), tuple(map(float, hi))) for lo, hi in boxes))
    rect = Rect(*_pad(k, tuple(map(float, qlo)), tuple(map(float, qhi))))
    tree = RTree(IndexConfig(dims=k))
    want = reference.choose_branch(tree, node, rect)
    assert RTree._choose_branch(tree, node, rect) is want
    expected = {
        "identical": 0, "nested": 1, "nested-reversed": 0, "equal-enlargement": 1,
        "mirror": 0, "nan-enlargement": 1, "nan-enlargement-reversed": 0,
        "infinite-query": 0,
    }[case]
    assert want is node.branches[expected]


@pytest.mark.parametrize("k", DIMS)
def test_choose_branch_with_only_nan_enlargements_raises_both_ways(k):
    node = _node(_pad(k, (-INF,), (10.0,)), _pad(k, (0.0,), (INF,)))
    rect = Rect(*_pad(k, (-INF,), (INF,)))
    tree = RTree(IndexConfig(dims=k))
    for choose in (RTree._choose_branch, reference.choose_branch):
        with pytest.raises(IndexStructureError):
            choose(tree, node, rect)


@pytest.mark.parametrize("k", DIMS)
def test_split_with_only_nan_preferences_takes_the_last_entry_both_ways(k):
    """Every box reaches -inf, so every waste and enlargement is
    ``inf - inf`` = NaN.  PickSeeds keeps its first pair; PickNext's argmax
    starts at position -1, so it takes the last remaining entry each time,
    and with both areas inf the smaller group gets it."""
    boxes = [Rect(*_pad(k, (-INF,), (float(x),))) for x in (3, 9, 1, 7, 5, 2)]
    for quadratic_split in (split.quadratic_split, reference_split.quadratic_split):
        assert quadratic_split(boxes, 1) == ([0, 5, 3], [1, 4, 2])


def test_instances_are_named_for_profiles_and_tracebacks():
    kernel = unrolled(query._INTERSECTING, "intersecting", 3)
    code = kernel.__code__
    assert code.co_filename == "<repro.core.kernel intersecting K=3>"
    assert code.co_name == "intersecting"
    assert "rlo0, rlo1, rlo2, = rect.lows" in linecache.getline(
        code.co_filename, code.co_firstlineno + 1
    )
    assert unrolled(query._INTERSECTING, "intersecting", 3) is kernel  # compiled once

    tree = SRTree(_config(2))
    rid = tree.insert(Rect((0.0, 0.0), (1.0, 1.0)))
    for name, call in (
        ("intersecting_many", lambda: tree.batch_search([Rect((0.0, 0.0), (2.0, 2.0))])),
        ("fragments", lambda: tree.search_within(Rect((0.0, 0.0), (2.0, 2.0)))),
        ("locate", lambda: tree.delete(rid)),
    ):
        profile = cProfile.Profile()
        profile.runcall(call)
        files = {filename for filename, _, _ in pstats.Stats(profile).stats}
        assert f"<repro.core.kernel {name} K=2>" in files

    boxes = [Rect((x, 0.0), (x + 1.0, 1.0)) for x in (0.0, 5.0, 1.0, 6.0)]
    for algorithm in ("quadratic", "linear"):
        profile = cProfile.Profile()
        profile.runcall(split.split_rects, boxes, 1, algorithm)
        files = {filename for filename, _, _ in pstats.Stats(profile).stats}
        assert f"<repro.core.kernel {algorithm} K=2>" in files
