"""Delete through the locate kernel does what the recursive descent did.

``RTree.delete`` locates a record's fragments with the compiled
``query.locate``, settles every node it visited at once, then removes the
fragments and condenses.  The descent it replaced is kept below
(``remove_fragments``, with the ``delete`` and ``_condense`` that drove
it) as the oracle, with one rule changed since: a node whose own lists
lost a fragment is touched (counted and marked for storage), while a node
that is only an ancestor of such a holder is counted and not marked — its
page image did not change.  Both run on deep copies of one tree — node ids
included — for every variant at K = 1 to 4, through hinted, hint-less
and bad-hint deletes (the hint misses the record, so the delete falls
back to the full scan), deletes of records already gone, and inserts in
between.  After every operation they must agree on the nodes handed to
the storage hook, in order; the fragments removed; the tree, node for
node with its ``modifications`` counters; the dirty set; and the
statistics.

A hint is checked like a query: one of another dimensionality is a
``ConfigError`` before anything is read, on every variant and through
``ConcurrentIndex``.

``REPRO_DIFF_SEED`` re-seeds every sequence (the CI ``faults`` matrix
sweeps it); unset, the runs repeat exactly.
"""

from __future__ import annotations

import copy
import os
import random

import pytest

from repro import (
    IndexConfig,
    Rect,
    RStarTree,
    RTree,
    SkeletonRTree,
    SkeletonSRTree,
    SRStarTree,
    SRTree,
)
from repro.concurrency import ConcurrentIndex
from repro.core.node import Node
from repro.exceptions import ConfigError

SEED = int(os.environ.get("REPRO_DIFF_SEED", "0"))

SIDE = 1000.0
VARIANTS: dict[str, type] = {
    "R": RTree,
    "SR": SRTree,
    "SkR": SkeletonRTree,
    "SkSR": SkeletonSRTree,
    "R*": RStarTree,
    "SR*": SRStarTree,
}
DIMS = (1, 2, 3, 4)


# ---------------------------------------------------------------------------
# The oracle: delete as a recursive descent, one settle per node
# ---------------------------------------------------------------------------
def recursive_delete(self: RTree, record_id: int, hint: Rect | None = None) -> int:
    changed: list[Node] = []
    removed = remove_fragments(self, self.root, record_id, hint, changed)
    if not removed and hint is not None and record_id in self._fragment_counts:
        removed = remove_fragments(self, self.root, record_id, None, changed)
    if removed:
        self._size -= 1
        self.stats.deletes += 1
        self._fragment_counts.pop(record_id, None)
        condense(self, changed)
    return removed


def remove_fragments(
    self: RTree, node: Node, record_id: int, hint: Rect | None, changed: list[Node]
) -> int:
    own = 0  # fragments removed from this node's own lists
    self._settle([node], 0)
    if node.is_leaf:
        before = len(node.data_entries)
        node.data_entries = [e for e in node.data_entries if e.record_id != record_id]
        own = removed = before - len(node.data_entries)
    else:
        for b in node.branches:
            before = len(b.spanning)
            b.spanning = [r for r in b.spanning if r.record_id != record_id]
            own += before - len(b.spanning)
        removed = own
        for b in node.branches:
            if hint is None or b.rect.intersects(hint):
                removed += remove_fragments(self, b.child, record_id, hint, changed)
    if own:  # its own lists lost a fragment: its page image changed
        self._touch(node)
    elif removed:  # only an ancestor of a holder: counted, its image unchanged
        node.touch()
    if removed:
        changed.append(node)
    return removed


def condense(self: RTree, changed: list[Node]) -> None:
    for node in changed:
        keep = []
        for b in node.branches:
            child = b.child
            if (
                b.spanning
                or child.branches
                or child.data_entries
                or (child.is_leaf and child.assigned_region is not None)
            ):
                keep.append(b)
            else:
                child.parent = None
                self._mark(child)
        if len(keep) != len(node.branches):
            node.branches = keep
            self._mark(node)
    while (
        not self.root.is_leaf
        and len(self.root.branches) == 1
        and not self.root.branches[0].spanning
    ):
        self._mark(self.root)
        self.root = self.root.branches[0].child
        self.root.parent = None
        self._height -= 1
    if not self.root.is_leaf and not self.root.branches:
        self._mark(self.root)
        self.root = Node(level=0)
        self._height = 1


# ---------------------------------------------------------------------------
# Trees, records and what two trees must agree on
# ---------------------------------------------------------------------------
def record(rng: random.Random, k: int) -> Rect:
    """Points, short boxes, and records long in one dimension (an SR-Tree
    places those above the leaves, cut into fragments)."""
    lows = [rng.uniform(0.0, SIDE) for _ in range(k)]
    highs = list(lows)
    roll = rng.random()
    if roll < 0.2:
        d = rng.randrange(k)
        lows[d] = rng.uniform(0.0, 300.0)
        highs[d] = rng.uniform(600.0, SIDE)
    elif roll < 0.7:
        highs = [min(SIDE, lo + rng.uniform(0.0, 40.0)) for lo in lows]
    return Rect(lows, highs)


def missing(rect: Rect) -> Rect:
    """A hint that overlaps nothing of ``rect``: beyond the domain."""
    k = len(rect.lows)
    return Rect([2 * SIDE] * k, [3 * SIDE] * k)


def build(variant: str, k: int, rng: random.Random) -> tuple[RTree, dict[int, Rect]]:
    config = IndexConfig(dims=k, leaf_node_bytes=200, entry_bytes=40, coalesce_interval=25)
    cls = VARIANTS[variant]
    if variant.startswith("Sk"):
        tree = cls(config, expected_tuples=300, domain=[(0.0, SIDE)] * k)
    else:
        tree = cls(config)
    live = {}
    for _ in range(300):
        rect = record(rng, k)
        live[tree.insert(rect)] = rect
    if variant.startswith("Sk"):
        tree.flush()  # the prediction buffer is not what is compared here
    assert tree.height >= 3
    tree._dirty = set()
    return tree, live


class Side:
    """One of the two trees, and a name for each of its nodes that the
    other tree's twin node shares: the node id for a node of the copied
    tree, else the order in which the dumps first reached it (inserts
    number their new nodes from one counter, so the ids differ)."""

    def __init__(self, tree: RTree) -> None:
        self.tree = tree
        self.names: dict[Node, object] = {node: node.node_id for node in tree.iter_nodes()}
        self.settled: list[Node] = []
        tree._storage_hook = self.settled.extend

    def name(self, node: Node) -> object:
        if node not in self.names:
            self.names[node] = ("new", len(self.names))
        return self.names[node]

    def state(self) -> tuple:
        """The nodes settled, the tree node for node with its counters, and
        the bookkeeping a delete updates; then starts the next round."""
        name, tree = self.name, self.tree

        def dump(node: Node) -> tuple:
            return (
                name(node),
                node.level,
                node.modifications,
                None if node.parent is None else name(node.parent),
                [(e.record_id, e.lows, e.highs) for e in node.data_entries],
                [
                    (b.lows, b.highs, [(r.record_id, r.lows, r.highs) for r in b.spanning],
                     dump(b.child))
                    for b in node.branches
                ],
            )

        stats = tree.stats
        assert tree._dirty is not None
        got = (
            [name(node) for node in self.settled],
            dump(tree.root),
            tree.height,
            len(tree),
            sorted(tree._fragment_counts.items()),
            sorted(map(repr, map(name, tree._dirty))),
            (stats.deletes, stats.node_accesses, sorted(stats.accesses_by_level.items())),
        )
        self.settled.clear()
        tree._dirty.clear()
        return got


@pytest.mark.parametrize("k", DIMS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_delete_matches_the_recursive_descent(variant: str, k: int) -> None:
    rng = random.Random(f"{SEED}/delete/{variant}/{k}")
    tree, live = build(variant, k, rng)
    oracle = copy.deepcopy(tree)
    ours, theirs = Side(tree), Side(oracle)
    assert ours.state() == theirs.state()
    gone: list[tuple[int, Rect]] = []
    seen = dict.fromkeys(("hinted", "hintless", "fallback", "absent", "spanning"), 0)
    for step in range(250):
        roll = rng.random()
        if roll < 0.2 or not live:
            rect = record(rng, k)
            rid = tree.insert(rect)
            assert oracle.insert(rect) == rid
            live[rid] = rect
            kind = "insert"
        else:
            if roll < 0.27 and gone:
                rid, rect = rng.choice(gone)
                kind = "absent"
            else:
                rid = rng.choice(sorted(live))
                rect = live.pop(rid)
                gone.append((rid, rect))
                kind = rng.choice(("hinted", "hintless", "fallback"))
                seen["spanning"] += any(
                    r.record_id == rid
                    for node in tree.iter_nodes()
                    for _, r in node.iter_spanning()
                )
            hint = {"hintless": None, "fallback": missing(rect)}.get(kind, rect)
            removed = tree.delete(rid, hint)
            assert removed == recursive_delete(oracle, rid, hint), (step, kind)
            assert (removed > 0) == (kind != "absent"), (step, kind)
            seen[kind] += 1
        assert ours.state() == theirs.state(), (step, kind)
    assert all(seen[kind] for kind in ("hinted", "hintless", "fallback", "absent")), seen
    if variant in ("SR", "SkSR", "SR*"):
        assert seen["spanning"], seen


# ---------------------------------------------------------------------------
# A hint of another dimensionality is rejected
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("engine", [False, True], ids=["tree", "engine"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_a_hint_of_another_dimensionality_is_a_config_error(variant: str, engine: bool) -> None:
    cls = VARIANTS[variant]
    if variant.startswith("Sk"):  # still predicting: the record is in the buffer
        tree = cls(IndexConfig(), expected_tuples=100, domain=[(0.0, SIDE)] * 2)
    else:
        tree = cls(IndexConfig())
    target = ConcurrentIndex(tree) if engine else tree
    rect = Rect((4.0, 0.0), (5.0, 1.0))
    rid = target.insert(rect)
    for bad in (Rect((4.0,), (5.0,)), Rect((4.0, 0.0, 0.0), (5.0, 1.0, 1.0))):
        with pytest.raises(ConfigError, match="dimensions"):
            target.delete(rid, bad)
    assert len(tree) == 1
    assert target.delete(rid, rect) == 1
