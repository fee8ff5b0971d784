"""The write path (DESIGN §3.2): the tree reports the nodes a write changed.

* the report is complete — every node whose page image changed, appeared or
  disappeared during a mutation is in the tree's dirty set — and, for a
  delete, exact: a store logs and publishes the pages a delete changed, not
  their ancestors;
* local condense builds the tree the old whole-tree sweep built (an in-test
  copy of that sweep is the reference);
* an engine write walks no whole tree, of nodes or of page versions;
* after every commit the version cache's live chains are exactly the pages
  of the linked nodes, under held snapshots, through empty and back;
* arming the set changes nothing the paper measures;
* a delete whose page fault raises changes nothing, and the pages of
  unlinked nodes are freed, logged and recovered as DEALLOCs.

``REPRO_DIFF_SEED`` re-seeds every generated sequence (the CI ``faults``
matrix sweeps it); unset, the runs repeat exactly.
"""

from __future__ import annotations

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
    check_index,
    open_store,
)
from repro.cli import main as cli_main
from repro.core.node import Node
from repro.exceptions import TransientDiskError
from repro.storage import (
    FileDisk,
    SimulatedDisk,
    WriteAheadLog,
    serializer,
    wal_directory_for,
)
from repro.storage.buffer import PageVersionCache
from repro.storage.serializer import serialize_node
from repro.storage.wal import (
    _DELTA_PREFIX,
    REC_COMMIT,
    REC_DEALLOC,
    REC_PAGE_DELTA,
    REC_PAGE_IMAGE,
    _scan_directory,
)
from repro.workloads import DOMAIN as PAPER_DOMAIN
from repro.workloads import dataset_I3, query_rectangles

SEED = int(os.environ.get("REPRO_DIFF_SEED", "0"))

DOMAIN = [(0.0, 1000.0), (0.0, 1000.0)]
#: Tiny nodes: a few hundred records already give three levels, spanning
#: placement, cuts, demotion, promotion and coalescing.
SMALL = IndexConfig(leaf_node_bytes=200, entry_bytes=40, coalesce_interval=25)

SKELETON = {"expected_tuples": 300, "domain": DOMAIN}
VARIANTS: dict[str, tuple[type, dict]] = {
    "R": (RTree, {}),
    "SR": (SRTree, {}),
    "SkR": (SkeletonRTree, SKELETON),
    "SkSR": (SkeletonSRTree, SKELETON),
    "R*": (RStarTree, {}),
    "SR*": (SRStarTree, {}),
}
PAPER_VARIANTS = ("R", "SR", "SkR", "SkSR")


def build(variant: str) -> RTree:
    cls, kwargs = VARIANTS[variant]
    return cls(SMALL, **kwargs)


def shaped_rect(rng: random.Random) -> Rect:
    """Points, short segments, boxes and long spanning segments."""
    shape = rng.random()
    y = rng.uniform(0.0, 1000.0)
    x = rng.uniform(0.0, 1000.0)
    if shape < 0.15:
        return Rect((0.0, y), (rng.uniform(600.0, 1000.0), y))
    if shape < 0.6:
        return Rect((x, y), (min(1000.0, x + rng.uniform(0.0, 30.0)), y))
    return Rect(
        (x, y),
        (min(1000.0, x + rng.uniform(0.0, 40.0)), min(1000.0, y + rng.uniform(0.0, 40.0))),
    )


def shape(tree: RTree) -> list:
    """The tree without its node ids: what two builds must agree on."""

    def dump(node: Node) -> tuple:
        return (
            node.level,
            node.modifications,
            [(e.record_id, e.rect) for e in node.data_entries],
            [
                (b.rect, [(r.record_id, r.rect) for r in b.spanning], dump(b.child))
                for b in node.branches
            ],
        )

    return [tree.height, len(tree), dump(tree.root)]


# ---------------------------------------------------------------------------
# (a) The report is complete
# ---------------------------------------------------------------------------
class _Identity(dict):
    """``page_of`` for a tree with no storage: a node's id is its page."""

    def __missing__(self, key: int) -> int:
        return key


def page_images(tree: RTree) -> dict[int, bytes]:
    """node id -> serialized image (empty bytes for a node with no entries)."""
    images = {}
    for node in tree.iter_nodes():
        if node.data_entries or node.branches:
            images[node.node_id] = serialize_node(node, 1 << 16, _Identity())
        else:
            images[node.node_id] = b""
    return images


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("run", range(2))
def test_every_changed_image_is_reported(variant: str, run: int) -> None:
    rng = random.Random(f"{SEED}/{variant}/{run}")
    tree = build(variant)
    tree._dirty = set()
    live: dict[int, Rect] = {}
    before = page_images(tree)
    reported_total = changed_total = deletes = 0
    for step in range(300):
        roll = rng.random()
        deleting = False
        if roll < 0.45 or not live:
            rect = shaped_rect(rng)
            live[tree.insert(rect)] = rect
        elif roll < 0.6:  # several inserts, one report
            for rect in [shaped_rect(rng) for _ in range(rng.randint(2, 40))]:
                live[tree.insert(rect)] = rect
        else:
            rid = rng.choice(sorted(live))
            rect = live.pop(rid)
            tree.delete(rid, hint=rect if rng.random() < 0.5 else None)
            deleting = True
        after = page_images(tree)
        reported = {node.node_id for node in tree._dirty}
        changed = {nid for nid, image in after.items() if before.get(nid) != image}
        gone = before.keys() - after.keys()
        assert changed <= reported, f"step {step}: unreported change {changed - reported}"
        assert gone <= reported, f"step {step}: unreported unlink {gone - reported}"
        for node in tree._dirty:
            if node.node_id in gone:
                assert node.parent is None and node is not tree.root
        if deleting:
            # A delete reports the pages it changed or unlinked, nothing
            # else: an ancestor of a holder keeps its image.
            assert reported == changed | gone, f"step {step}: over-reported"
            deletes += 1
        else:
            reported_total += len(reported)
            changed_total += len(changed | gone)
        tree._dirty.clear()
        before = after
    check_index(tree)
    assert deletes
    # An insert's report is a small over-approximation (a split, a
    # coalesce, an R* reinsertion), not "every ancestor".
    assert reported_total < 2 * changed_total


# ---------------------------------------------------------------------------
# (b) Local condense builds the tree the sweep did
# ---------------------------------------------------------------------------
def sweeping_condense(self: RTree, changed: list[Node]) -> None:
    """``RTree._condense`` as it was before it went local: sweep every node,
    again while anything was unlinked.  The reference, not a fallback."""
    again = True
    while again:
        again = False
        for node in list(self.iter_nodes()):
            if node.is_leaf:
                continue
            keep = []
            for b in node.branches:
                child_empty = (
                    b.child.is_leaf
                    and not b.child.data_entries
                    and b.child.assigned_region is None
                ) or (not b.child.is_leaf and not b.child.branches)
                if child_empty and not b.spanning:
                    again = True
                else:
                    keep.append(b)
            node.branches = keep
    while (
        not self.root.is_leaf
        and len(self.root.branches) == 1
        and not self.root.branches[0].spanning
    ):
        self.root = self.root.branches[0].child
        self.root.parent = None
        self._height -= 1
    if not self.root.is_leaf and not self.root.branches:
        self.root = Node(level=0)
        self._height = 1


@pytest.mark.parametrize("variant", VARIANTS)
def test_local_condense_matches_the_sweep(variant: str) -> None:
    rng = random.Random(f"{SEED}/condense/{variant}")
    cls, kwargs = VARIANTS[variant]
    local = build(variant)
    sweep = type("Sweeping", (cls,), {"_condense": sweeping_condense})(SMALL, **kwargs)
    live: dict[int, Rect] = {}
    for _ in range(400):
        rect = shaped_rect(rng)
        rid = local.insert(rect)
        assert sweep.insert(rect) == rid
        live[rid] = rect
    assert local.height >= 3
    assert shape(local) == shape(sweep)

    # Short records go first, band by band, so leaves and then whole
    # subtrees empty out under branches whose spanning records remain; the
    # long records follow, which unlinks those children; the tail of the
    # sequence shrinks the root down to an empty leaf.
    def is_long(rect: Rect) -> bool:
        return rect.highs[0] - rect.lows[0] >= 600.0

    order = sorted(
        live,
        key=lambda rid: (is_long(live[rid]), int(live[rid].lows[1] // 125), rng.random()),
    )
    seen = {"leaf": 0, "subtree": 0, "kept_under_spanning": 0, "root_shrink": 0}
    for rid in order:
        nodes, height = local.node_count(), local.height
        hint = live[rid] if rng.random() < 0.5 else None
        assert local.delete(rid, hint) == sweep.delete(rid, hint)
        assert shape(local) == shape(sweep), f"diverged deleting {rid}"
        if not any(n.level and not n.branches for n in sweep.iter_nodes()):
            # (Either condense keeps a branchless internal node while its
            # branch holds spanning records; check_index rejects that tree.)
            check_index(local)
        dropped = nodes - local.node_count()
        seen["leaf"] += dropped >= 1
        seen["subtree"] += dropped >= 2
        seen["root_shrink"] += local.height < height
        seen["kept_under_spanning"] += any(
            b.spanning and not (b.child.data_entries or b.child.branches)
            for node in local.iter_nodes()
            for b in node.branches
        )
    assert len(local) == 0
    assert seen["leaf"], seen
    if not variant.startswith("Sk"):  # an emptied skeleton leaf keeps its cell
        assert seen["subtree"] and seen["root_shrink"], seen
        assert local.height == 1 and local.root.is_leaf
    if variant in ("SR", "SR*"):
        assert seen["kept_under_spanning"], seen


# ---------------------------------------------------------------------------
# (c) No whole-tree walk inside an engine write
# ---------------------------------------------------------------------------
class Stack:
    """SR-Tree behind FileDisk + WAL + pool + ``ConcurrentIndex``."""

    def __init__(self, path, tree: RTree, *, mvcc: bool = False) -> None:
        self.path = path
        self.tree = tree
        self.disk = FileDisk(path)
        self.wal = WriteAheadLog(wal_directory_for(path))
        self.store = open_store(self.disk, self.wal, tree=tree, buffer_bytes=1 << 20, mvcc=mvcc)
        self.manager, self.engine = self.store.manager, self.store.engine

    def crash(self) -> None:
        """Stop without a checkpoint: only the log's commits survive."""
        self.store.crash()

    def recovered_items(self) -> list:
        with open_store(FileDisk(self.path), WriteAheadLog(wal_directory_for(self.path))) as store:
            return fragments(store.engine.tree)


def fragments(view) -> list:
    """Of a tree or a snapshot."""
    return sorted((rid, rect.lows, rect.highs) for rid, rect, _ in view.items())


@pytest.mark.parametrize(
    "mvcc, latched_scan",
    [(False, False), (True, False), (False, True)],
    ids=["latched", "mvcc", "after-latched-scan"],
)
def test_engine_write_walks_no_whole_tree(
    tmp_path, monkeypatch, mvcc: bool, latched_scan: bool
) -> None:
    rng = random.Random(f"{SEED}/walk")
    tree = SRTree(SMALL)
    for _ in range(1200 if latched_scan else 300):
        tree.insert(shaped_rect(rng))
    assert tree.height >= 3
    stack = Stack(tmp_path / "index.db", tree, mvcc=mvcc)
    if latched_scan:
        # A latched read that visits every node of a tree too big for any
        # fixed-size side table must leave the next write nothing to sweep.
        assert tree.node_count() > 256
        assert len(stack.engine.search(Rect((0.0, 0.0), (1000.0, 1000.0)))) == 1200
        assert stack.engine.contention_snapshot()["read_acquires"] == 1
    # 130 commits: two intervals of the sweep MVCC once ran every 64th, with
    # a snapshot held so that there is something a sweep would have to spare.
    held = stack.engine.open_snapshot() if mvcc else None
    pinned = fragments(held) if mvcc else None
    walks = []

    def counted(fn):
        return lambda *args: walks.append(fn.__qualname__) or fn(*args)

    monkeypatch.setattr(RTree, "iter_nodes", counted(RTree.iter_nodes))
    monkeypatch.setattr(PageVersionCache, "read", counted(PageVersionCache.read))
    monkeypatch.setattr(serializer, "verify_page", counted(serializer.verify_page))  # = a decode
    for i in range(65):
        rect = Rect((400.0 + i, 500.0), (420.0 + i, 500.0))
        rid = stack.engine.insert(rect)
        assert stack.engine.delete(rid, hint=rect) == 1
    monkeypatch.undo()
    assert walks == []
    assert stack.wal.stats.appends == 130
    if held is not None:
        assert fragments(held) == pinned
        held.close()
    stack.crash()
    assert stack.recovered_items() == fragments(tree)


# ---------------------------------------------------------------------------
# A delete commits the page it changed, not its ancestors
# ---------------------------------------------------------------------------
def transactions(wal_directory) -> list[list]:
    """The log's records, one list per transaction (its COMMIT last)."""
    groups: list[list] = [[]]
    for record in _scan_directory(wal_directory)[0]:
        groups[-1].append(record)
        if record.rtype == REC_COMMIT:
            groups.append([])
    return groups[:-1]


@pytest.mark.parametrize("mvcc", [False, True], ids=["latched", "mvcc"])
def test_store_deletes_log_and_publish_only_changed_pages(tmp_path, mvcc: bool) -> None:
    rng = random.Random(f"{SEED}/store-deletes/{mvcc}")
    rects = dataset_I3(4000, seed=3)
    tree = SRTree()
    ids = [tree.insert(rect) for rect in rects]
    assert tree.height == 3
    stack = Stack(tmp_path / "index.db", tree, mvcc=mvcc)
    live = dict(zip(ids, rects))
    queries = query_rectangles(1.0, 20, seed=SEED + 7)

    def answers(view) -> list[set[int]]:
        return [{rid for rid, _ in view.search(q)} for q in queries]

    def expected() -> list[set[int]]:
        return [{rid for rid, rect in live.items() if rect.intersects(q)} for q in queries]

    # Every snapshot stays open to the end, so no version is reclaimed.
    held = [(stack.engine.open_snapshot(), expected())] if mvcc else []
    for i, rid in enumerate(rng.sample(ids, 100)):
        assert stack.engine.delete(rid, hint=live.pop(rid)) == 1
        if mvcc and i % 10 == 9:
            held.append((stack.engine.open_snapshot(), expected()))
    assert answers(stack.engine) == expected()

    logged = transactions(stack.wal.directory)
    assert len(logged) == 100  # the base is the checkpoint: the log holds the deletes
    deltas = [r for records in logged for r in records if r.rtype == REC_PAGE_DELTA]
    assert deltas and all(len(r.payload) > _DELTA_PREFIX.size for r in deltas)  # non-empty
    for records in logged:
        if not any(r.rtype == REC_DEALLOC for r in records):
            assert sum(r.rtype in (REC_PAGE_IMAGE, REC_PAGE_DELTA) for r in records) == 1
    for snap, seen in held:
        assert answers(snap) == seen
    if mvcc:
        cache = stack.manager.versions
        assert cache is not None
        for version in versions_of(cache):
            assert version.prev is None or version.data != version.prev.data
        for snap, _ in held:
            snap.close()
    stack.crash()
    assert stack.recovered_items() == fragments(tree)


# ---------------------------------------------------------------------------
# (d) Arming the set changes nothing the paper measures
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("variant", PAPER_VARIANTS)
def test_arming_the_set_changes_nothing_the_paper_measures(variant: str) -> None:
    cls, kwargs = VARIANTS[variant]
    if kwargs:
        kwargs = {"expected_tuples": 5000, "domain": PAPER_DOMAIN}
    rects = dataset_I3(5000, seed=SEED)
    queries = query_rectangles(1.0, 200, seed=SEED + 1)

    def measure(armed: bool) -> tuple:
        rng = random.Random(f"{SEED}/armed")
        tree = cls(IndexConfig(), **kwargs)
        if armed:
            tree._dirty = set()
        ids = [tree.insert(rect) for rect in rects]
        for rid in rng.sample(ids, 500):
            tree.delete(rid, hint=rects[rid - 1] if rng.random() < 0.5 else None)
        accesses = [tree.search_with_stats(q)[1].nodes_accessed for q in queries]
        stats = tree.stats
        counts = (stats.splits, stats.coalesces, stats.demotions, stats.promotions, stats.cuts)
        return counts, shape(tree), accesses

    assert measure(armed=True) == measure(armed=False)


# ---------------------------------------------------------------------------
# A delete that raises changes nothing
# ---------------------------------------------------------------------------
def test_failed_delete_changes_nothing(tmp_path) -> None:
    rng = random.Random(f"{SEED}/cut")
    tree = SRTree(SMALL)
    for _ in range(600):
        tree.insert(shaped_rect(rng))
    stack = Stack(tmp_path / "index.db", tree)

    # A record cut into two fragments held by different nodes.  A delete
    # locates both, then settles its whole visit at once; let that page
    # fault fail for good (what the storage hook raises once its retries
    # are exhausted).
    def holders(rid: int) -> list[Node]:
        return [
            node
            for node in tree.iter_nodes()
            if any(e.record_id == rid for e in node.data_entries)
            or any(r.record_id == rid for _, r in node.iter_spanning())
        ]

    rid = next(
        rid
        for rid, count in sorted(tree._fragment_counts.items())
        if count == 2 and len(holders(rid)) == 2
    )
    hook = tree._storage_hook
    settles = []

    def failing_hook(nodes: list[Node]) -> None:
        settles.append(len(nodes))
        raise TransientDiskError("injected: retries exhausted")

    def state() -> tuple:
        assert tree._dirty is not None
        return shape(tree), dict(tree._fragment_counts), len(tree), set(tree._dirty)

    before = state()
    tree._storage_hook = failing_hook
    with pytest.raises(TransientDiskError):
        stack.engine.delete(rid)
    tree._storage_hook = hook
    assert settles == [tree.node_count()]  # one settle: a hint-less delete visits every node
    assert state() == before
    assert sum(1 for r, _, _ in tree.items() if r == rid) == 2

    assert stack.engine.delete(rid) == 2  # the retry removes both
    assert not any(r == rid for r, _, _ in tree.items())
    stack.engine.insert(Rect((10.0, 10.0), (20.0, 10.0)))  # acknowledged
    stack.crash()
    assert stack.recovered_items() == fragments(tree)


# ---------------------------------------------------------------------------
# Pages of unlinked nodes are freed
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("mvcc", [False, True], ids=["latched", "mvcc"])
def test_pages_of_unlinked_nodes_are_freed(tmp_path, capsys, mvcc: bool) -> None:
    rng = random.Random(f"{SEED}/pages")
    tree = SRTree(IndexConfig(leaf_node_bytes=256))
    path = tmp_path / "index.db"
    stack = Stack(path, tree, mvcc=mvcc)
    engine, manager = stack.engine, stack.manager
    peaks = []
    for round_ in range(4):
        rects = dataset_I3(500, seed=SEED + round_)
        ids = [engine.insert(rect) for rect in rects]
        live_nodes = tree.node_count()
        assert len(manager._page_of) == stack.disk.allocated_pages == live_nodes
        peaks.append(live_nodes)
        if round_ == 3:
            break  # crash with a populated tree
        order = list(zip(ids, rects))
        rng.shuffle(order)
        for rid, rect in order:
            engine.delete(rid, hint=rect)
        assert len(tree) == 0
        assert len(manager._page_of) == stack.disk.allocated_pages == tree.node_count() == 1
    assert max(peaks) < 1.25 * min(peaks)  # no growth from round to round
    assert any(r.rtype == REC_DEALLOC for r in _scan_directory(stack.wal.directory)[0])
    stack.crash()
    assert stack.recovered_items() == fragments(tree)
    assert cli_main(["fsck", str(path)]) == 0
    assert "fsck: clean" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# The version cache retires exactly the chains whose pages a commit freed
# ---------------------------------------------------------------------------
def versions_of(cache: PageVersionCache):
    for version in list(cache._heads.values()):
        while version is not None:
            yield version
            version = version.prev


@pytest.mark.parametrize("variant", VARIANTS)
def test_live_version_chains_are_the_linked_nodes(variant: str) -> None:
    """After every commit: chains not marked dead == pages of linked nodes,
    so no death goes unreported (a leak) and none is invented (a lost page);
    a held snapshot never changes; a payload dies with its last version."""
    rng = random.Random(f"{SEED}/chains/{variant}")
    tree = build(variant)
    live: dict[int, Rect] = {}
    for i in range(200):  # the base commit
        rect = shaped_rect(rng)
        live[tree.insert(rect, f"base{i}" if i % 2 else None)] = rect
    assert tree.height >= 3
    store = open_store(SimulatedDisk(), tree=tree, buffer_bytes=1 << 20, mvcc=True)
    engine, manager = store.engine, store.manager
    cache = manager.versions
    held: list = []

    def view(snap) -> list:
        return sorted((rid, rect.lows, rect.highs, p) for rid, rect, p in snap.items())

    def linked_pages() -> set[int]:
        if not (tree.root.data_entries or tree.root.branches):
            return set()  # root page 0: the emptied tree
        return {manager._page_of[node.node_id] for node in tree.iter_nodes()}

    def check(step) -> None:
        assert cache._heads.keys() - cache._dead.keys() == linked_pages(), step
        cache.verify_accounting()

    def insert(step) -> None:
        rect = shaped_rect(rng)
        live[engine.insert(rect, f"p{step}" if rng.random() < 0.5 else None)] = rect

    def delete() -> None:
        rid = rng.choice(sorted(live))
        rect = live.pop(rid)
        assert engine.delete(rid, hint=rect if rng.random() < 0.5 else None) >= 1

    def close(at: int) -> None:
        snap, seen = held.pop(at)
        assert view(snap) == seen
        snap.close()

    def quiesce() -> None:
        while held:
            close(0)
        engine.run_version_gc()
        check("quiescent")
        assert cache.version_count == cache.chains == len(linked_pages())

    check("base")
    for step in range(400):
        roll = rng.random()
        if roll < 0.4 or not live:
            insert(step)
        elif roll < 0.5:  # several inserts, one commit
            for rect in [shaped_rect(rng) for _ in range(rng.randint(2, 30))]:
                live[tree.insert(rect, f"b{step}")] = rect
            manager.commit_write()
        elif roll < 0.85:
            delete()
        elif roll < 0.95 and len(held) < 4:
            snap = engine.open_snapshot()
            held.append((snap, view(snap)))
        elif held:
            close(rng.randrange(len(held)))
        check(step)

    # A payload is visible to the snapshot opened before its record's delete
    # and held by no version once that snapshot has closed.
    marker = f"marker/{variant}"
    rect = shaped_rect(rng)
    rid = engine.insert(rect, marker)
    snap = engine.open_snapshot()
    engine.delete(rid, hint=rect)
    insert("after the delete")
    assert (rid, marker) in snap.search(rect)
    assert (rid, marker) not in engine.search(rect)
    held.append((snap, view(snap)))
    quiesce()
    assert not any(marker in (v.payloads or {}).values() for v in versions_of(cache))

    # Delete everything under a held snapshot, then refill: an organic
    # tree passes through root page 0, and its root's page comes back.
    snap = engine.open_snapshot()
    held.append((snap, view(snap)))
    while live:
        delete()
        check("emptying")
    quiesce()
    if not variant.startswith("Sk"):  # a skeleton keeps its empty cells
        assert cache.latest.root_page == 0 and cache.chains == 0
    for step in range(60):
        insert(step)
        check("refill")
    with engine.open_snapshot() as snap:
        assert [row[:3] for row in view(snap)] == fragments(tree)
    quiesce()


def test_emptied_child_under_a_spanning_branch_republishes(tmp_path) -> None:
    """A leaf that loses its last record stays linked while its branch holds
    spanning records; its page must lose the record too, or recovery (and
    snapshots) resurrect it."""
    rng = random.Random(f"{SEED}/republish")
    tree = SRTree(SMALL)
    stack = Stack(tmp_path / "index.db", tree)
    live = {}
    for _ in range(400):
        rect = shaped_rect(rng)
        live[stack.engine.insert(rect)] = rect
    shorts = sorted(
        (rid for rid, rect in live.items() if rect.highs[0] - rect.lows[0] < 600.0),
        key=lambda rid: (int(live[rid].lows[1] // 125), rng.random()),
    )
    for rid in shorts:
        stack.engine.delete(rid, hint=live[rid])
        if any(
            b.spanning and b.child.is_leaf and not b.child.data_entries
            for node in tree.iter_nodes()
            for b in node.branches
        ):
            break
    else:
        pytest.fail("no emptied child was kept under a spanning branch")
    stack.crash()
    assert stack.recovered_items() == fragments(tree)
