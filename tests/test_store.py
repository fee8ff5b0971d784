"""Opening a store: ``open_store`` recovers, adopts, sweeps — and never grows.

Reopening must cost what the log tail costs and nothing else: no second
page per node, no checkpoint, no write of a page that checkpoint + replayed
log already hold.  The crash sweep kills the open itself at every store
operation and checks that a clean open afterwards still lands on the
acknowledged state.  Carries the ``faults`` marker so CI runs it across the
``REPRO_FAULT_SEED`` matrix.
"""

import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro import Rect, SRTree, check_index, open_store
from repro.exceptions import StorageError
from repro.storage import (
    Fault,
    FaultInjectingDisk,
    FileDisk,
    StorageManager,
    WriteAheadLog,
    recover_tree,
    scan_wal,
    wal_directory_for,
)
from repro.storage.wal import REC_PAGE_DELTA, REC_PAGE_IMAGE, _frame, _scan_directory

from .conftest import random_segments
from .test_differential_batch import CONFIG, _apply, _oracle_hits, _ops

pytestmark = pytest.mark.faults

BASE_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))
WHOLE = Rect((0.0, 0.0), (100_000.0, 100_000.0))


def rects(n, seed):
    return random_segments(n, seed=BASE_SEED * 1000 + seed, long_fraction=0.2)


def reopen(path, disk=None, **options):
    """The store at ``path`` (on ``disk`` when it is wrapped), recovered."""
    wal = WriteAheadLog(wal_directory_for(path), segment_bytes=2 * 1024)
    return open_store(disk if disk is not None else FileDisk(path), wal, **options)


def fragments(tree):
    return sorted((rid, rect.lows, rect.highs) for rid, rect, _ in tree.items())


def assert_no_leak(store):
    disk, tree = store.manager.disk, store.engine.tree
    assert disk.allocated_pages == tree.node_count()
    assert disk.allocated_bytes == tree.total_index_bytes()


def crashed_store(path, n=60):
    """A small-page store that took ``n`` logged inserts and died with its
    whole history in the log tail; returns ``{record id: rect}``."""
    store = reopen(path, tree=SRTree(CONFIG))
    live = {store.engine.insert(rect): rect for rect in rects(n, seed=5)}
    store.crash()
    return live


# ---------------------------------------------------------------------------
# (a) Reopening never grows a store, and writes only what replay re-applies
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("mvcc", [False, True], ids=["latched", "mvcc"])
def test_reopening_never_grows_the_store(tmp_path, mvcc):
    path = tmp_path / "pages.dat"
    live = crashed_store(path)
    rng = random.Random(f"{BASE_SEED}/reopen")
    for round_ in range(5):
        info = FileDisk(path)
        recovery_lsn = int((info.checkpoint_info or {}).get("wal_lsn") or 0)
        info.close(sync=False)
        tail_pages = sum(
            1
            for record in _scan_directory(wal_directory_for(path))[0]
            if record.lsn > recovery_lsn and record.rtype in (REC_PAGE_IMAGE, REC_PAGE_DELTA)
        )
        store = reopen(path, mvcc=mvcc == (round_ % 2 == 0))  # both modes, alternating
        disk = store.manager.disk
        assert_no_leak(store)
        assert store.swept == (0, 0)
        # The open re-applied the tail's page records and wrote nothing else:
        # no checkpoint, no sync, not one page when the tail is empty.
        assert (disk.stats.writes, disk.stats.fsyncs) == (tail_pages, 0)
        assert store.manager.wal.stats.truncations == 0
        assert {rid for rid, _ in store.engine.search(WHOLE)} == set(live)
        for rect in rects(4, seed=100 + round_):
            live[store.engine.insert(rect)] = rect
        victim = rng.choice(sorted(live))
        assert store.engine.delete(victim, hint=live.pop(victim))
        if round_ % 2:
            store.crash()  # the next open replays a tail
        else:
            store.manager.checkpoint()  # ...and the one after this finds none
            store.close()
            assert scan_wal(wal_directory_for(path)).records == 0
    final = reopen(path)
    check_index(final.engine.tree)
    assert {rid for rid, _ in final.engine.search(WHOLE)} == set(live)
    assert_no_leak(final)
    final.close()


def test_open_with_an_empty_tail_writes_nothing(tmp_path):
    path = tmp_path / "pages.dat"
    with reopen(path, tree=SRTree(CONFIG)) as store:
        for rect in rects(80, seed=9):
            store.engine.insert(rect)
        store.manager.checkpoint()
        pages = store.manager.disk.allocated_pages
    size = path.stat().st_size
    for _ in range(3):
        with reopen(path) as store:
            stats = store.manager.disk.stats
            assert (stats.writes, stats.fsyncs, store.replay.commits_applied) == (0, 0, 0)
            assert store.manager.disk.allocated_pages == pages
    assert path.stat().st_size == size


# ---------------------------------------------------------------------------
# (b) Pages nothing reaches are freed at open
# ---------------------------------------------------------------------------
def test_leaked_and_orphaned_pages_are_swept(tmp_path):
    path = tmp_path / "pages.dat"
    live = crashed_store(path)
    # The composition this PR replaced: load, forget which page each node
    # came from, attach (a second page per node + a checkpoint onto them).
    disk = FileDisk(path)
    tree, _ = recover_tree(disk)
    nodes = tree.node_count()
    tree._loaded_pages = None
    wal = WriteAheadLog(wal_directory_for(path))
    StorageManager(tree, disk=disk, wal=wal).detach()
    assert disk.allocated_pages == 2 * nodes
    # ...and two pages a crash allocated that no commit ever named.
    disk.allocate(10_001, 1024)
    disk.allocate(10_002, 2048)
    wal.close()
    disk.close()

    store = reopen(path)
    assert store.swept == (nodes + 2, tree.total_index_bytes() + 1024 + 2048)
    assert_no_leak(store)
    check_index(store.engine.tree)
    for rid, rect in live.items():
        assert rid in store.engine.search_ids(rect)
    store.close()
    with reopen(path) as again:  # the sweep is durable with the clean close
        assert again.swept == (0, 0)
        assert_no_leak(again)


def test_fsck_reports_unreachable_pages(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "pages.dat"
    crashed_store(path)
    disk = FileDisk(path)
    disk.allocate(10_001, 1024)
    disk.close()
    assert main(["fsck", str(path)]) == 0  # a warning: older stores all have them
    assert "1 page(s) unreachable from the root (1024 bytes)" in capsys.readouterr().out
    reopen(path).close()
    assert main(["fsck", str(path)]) == 0
    assert "0 page(s) unreachable from the root (0 bytes)" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# (c) A crash at every store operation of the open itself
# ---------------------------------------------------------------------------
def test_crash_during_open_then_clean_open(tmp_path):
    origin = tmp_path / "origin"
    origin.mkdir()
    live = crashed_store(origin / "pages.dat")
    leak = FileDisk(origin / "pages.dat")  # give the sweep something to free
    leak.allocate(10_001, 1024)
    leak.close()

    def copy(name):
        shutil.copytree(origin, tmp_path / name)
        return tmp_path / name / "pages.dat"

    def open_twice(path):
        reopen(path).close()
        store = reopen(path)
        state = fragments(store.engine.tree)
        assert_no_leak(store)
        store.close()
        return state

    reference = open_twice(copy("reference"))
    assert {rid for rid, _, _ in reference} == set(live)

    probe_path = copy("probe")
    probe = FaultInjectingDisk(FileDisk(probe_path), seed=BASE_SEED)
    reopen(probe_path, probe).crash()
    boundaries = {op: probe.op_counts.get(op, 0) for op in ("write", "allocate", "deallocate")}
    assert boundaries["write"] > 0 and boundaries["deallocate"] == 1

    for op, total in boundaries.items():
        for at in range(1, total + 1):
            path = copy(f"{op}-{at}")
            crashing = FaultInjectingDisk(
                FileDisk(path), [Fault("crash", op=op, at=at)], seed=BASE_SEED
            )
            with pytest.raises(StorageError):
                reopen(path, crashing)
            store = reopen(path)
            assert_no_leak(store)
            check_index(store.engine.tree)
            for rid, rect in live.items():
                assert rid in store.engine.search_ids(rect), f"{op}#{at} lost {rid}"
            assert fragments(store.engine.tree) == reference
            store.close()
            assert open_twice(path) == reference  # recovery stays idempotent


# ---------------------------------------------------------------------------
# (d) The four entry states x MVCC, against the differential oracle
# ---------------------------------------------------------------------------
def _enter(state, path):
    """Leave a store at ``path`` in ``state``; returns the oracle dict."""
    if state == "fresh":
        return {}
    store = reopen(path, tree=SRTree(CONFIG))
    live = {}
    for i in range(30):
        rect = Rect((float(i * 37 % 1000), float(i * 59 % 1000)),
                    (float(i * 37 % 1000) + 20.0, float(i * 59 % 1000) + 20.0))
        live[store.engine.insert(rect)] = rect
    if state == "checkpointed-clean":
        store.manager.checkpoint()
        store.close()
    elif state == "crashed-with-tail":
        store.manager.checkpoint()
        for rid in sorted(live)[::3]:
            store.engine.delete(rid, hint=live.pop(rid))
        store.crash()
    else:  # emptied: the last commit names root page 0
        for rid in sorted(live):
            store.engine.delete(rid, hint=live.pop(rid))
        store.crash()
    return live


def _through_the_engine(ops):
    """The oracle's ops with the batched forms spelled one at a time: an
    engine serves single writes and its own ``batch_search``."""
    for op in ops:
        if op[0] == "insert_batch":
            yield ("insert_seq", op[1])
        elif op[0] == "batch_search":
            yield from (("search", query) for query in op[1])
        else:
            yield op


@pytest.mark.parametrize("mvcc", [False, True], ids=["latched", "mvcc"])
@pytest.mark.parametrize(
    "state", ["fresh", "checkpointed-clean", "crashed-with-tail", "emptied"]
)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(ops=_ops())
def test_entry_states_against_the_oracle(state, mvcc, ops):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pages.dat"
        live = _enter(state, path)
        store = reopen(path, mvcc=mvcc, **({"tree": SRTree(CONFIG)} if state == "fresh" else {}))
        assert (store.replay is None) == (state == "fresh")
        assert_no_leak(store)
        assert len(store.engine) == len(live)
        for op in _through_the_engine(ops):
            _apply(store.engine, live, op)
        whole = Rect((0.0, 0.0), (1000.0, 1000.0))
        assert {rid for rid, _ in store.engine.search(whole)} == _oracle_hits(live, whole)
        store.crash()
        with reopen(path, mvcc=not mvcc) as again:  # the log alone carries the ops
            check_index(again.engine.tree)
            assert {rid for rid, _ in again.engine.search(whole)} == set(live)
            assert_no_leak(again)


# ---------------------------------------------------------------------------
# open_store's own contract
# ---------------------------------------------------------------------------
def test_a_tree_for_a_store_that_holds_one_is_refused(tmp_path):
    path = tmp_path / "pages.dat"
    crashed_store(path)
    disk, wal = FileDisk(path), WriteAheadLog(wal_directory_for(path))
    with pytest.raises(StorageError, match="already holds an index"):
        open_store(disk, wal, tree=SRTree(CONFIG))
    wal.close()
    disk.close(sync=False)


def test_a_loaded_tree_written_before_attach_is_not_adopted(tmp_path):
    """The loader's map describes the pages as loaded: a tree written since
    gets fresh pages and a base checkpoint, as any preloaded tree does."""
    path = tmp_path / "pages.dat"
    live = crashed_store(path)
    disk = FileDisk(path)
    tree, _ = recover_tree(disk)
    extra = rects(1, seed=77)[0]
    live[tree.insert(extra)] = extra  # behind every manager's back
    wal = WriteAheadLog(wal_directory_for(path))
    manager = StorageManager(tree, disk=disk, wal=wal)
    assert wal.stats.truncations == 1  # it bootstrapped
    manager.detach()
    wal.abort()
    disk.abort()
    with reopen(path) as store:
        assert {rid for rid, _ in store.engine.search(WHOLE)} == set(live)


def test_detach_unhooks_only_itself(tmp_path):
    """Detaching a stale manager must not silence the live one: an insert
    through B's engine used to be acknowledged and append nothing."""
    tree = SRTree(CONFIG)
    stale = StorageManager(tree, disk=FileDisk(tmp_path / "a.dat"),
                           wal=WriteAheadLog(tmp_path / "a.wal"))
    live = open_store(FileDisk(tmp_path / "b.dat"), WriteAheadLog(tmp_path / "b.wal"), tree=tree)
    stale.detach()
    appends = live.manager.wal.stats.appends
    rid = live.engine.insert(rects(1, seed=3)[0])
    assert live.manager.wal.stats.appends == appends + 1
    live.crash()
    stale.wal.close()
    stale.disk.close()
    with open_store(FileDisk(tmp_path / "b.dat"), WriteAheadLog(tmp_path / "b.wal")) as again:
        assert rid in {r for r, _ in again.engine.search(WHOLE)}
    live.manager.detach()  # its own hook: now the tree is bare again
    assert tree._storage_hook is None and tree._dirty is None


def test_reopened_log_drops_an_uncommitted_transaction(tmp_path):
    """A torn append can leave whole records of a transaction whose COMMIT
    never landed.  With no checkpoint at open to truncate them away, the
    next COMMIT would adopt them on replay: the log drops them on reopen."""
    path = tmp_path / "pages.dat"
    live = crashed_store(path, n=20)
    segment = sorted(wal_directory_for(path).iterdir())[-1]
    last = scan_wal(wal_directory_for(path)).last_lsn
    # Two whole records of a transaction that died before its COMMIT: an
    # image that would wipe the root page, and a page that should not exist.
    with FileDisk(path) as probe:
        root_page = recover_tree(probe)[1].root_page
        size = probe.page_size(root_page)
        probe._write_failed = True  # a probe: commit nothing
    with segment.open("ab") as fh:
        fh.write(_frame(last + 1, REC_PAGE_IMAGE, root_page, bytes(size)))
        fh.write(_frame(last + 2, REC_PAGE_IMAGE, 10_001, bytes(1024)))

    store = reopen(path)
    assert store.manager.wal.last_lsn == last
    extra = rects(1, seed=41)[0]
    live[store.engine.insert(extra)] = extra
    store.crash()
    with reopen(path) as again:
        check_index(again.engine.tree)
        assert {rid for rid, _ in again.engine.search(WHOLE)} == set(live)
        assert_no_leak(again)


def checkpointed_store_without_its_log(path):
    """50 inserts, checkpointed, then the log's segments deleted: the disk
    records a recovery LSN the (empty) log never reached."""
    with reopen(path, tree=SRTree(CONFIG)) as store:
        live = {store.engine.insert(rect): rect for rect in rects(50, seed=61)}
        store.manager.checkpoint()
        lsn = store.manager.disk.checkpoint_info["wal_lsn"]
        assert lsn == store.manager.wal.last_lsn > 50
    for segment in wal_directory_for(path).iterdir():
        segment.unlink()
    return live, lsn


def test_a_log_opened_below_the_checkpoint_continues_after_it(tmp_path):
    """An empty log beside a checkpointed disk used to start at LSN 1, and
    replay then skipped every commit at or below the checkpoint's LSN."""
    path = tmp_path / "pages.dat"
    live, lsn = checkpointed_store_without_its_log(path)
    store = reopen(path)
    assert store.manager.wal.last_lsn == lsn
    for rect in rects(5, seed=62):
        live[store.engine.insert(rect)] = rect
    store.crash()
    assert scan_wal(wal_directory_for(path)).first_lsn == lsn + 1
    with reopen(path) as again:
        assert len(again.engine.tree) == 55
        assert {rid for rid, _ in again.engine.search(WHOLE)} == set(live)
        check_index(again.engine.tree)


def test_a_log_whose_frames_end_below_the_checkpoint_is_refused(tmp_path):
    """Frames that stop short of the checkpoint's LSN are some other log:
    appending after them would be skipped by replay just the same."""
    path = tmp_path / "pages.dat"
    live, lsn = checkpointed_store_without_its_log(path)
    wal = WriteAheadLog(wal_directory_for(path))
    wal.log_commit({}, root_page=0)  # one frame, at LSN 1
    wal.close()
    disk, wal = FileDisk(path), WriteAheadLog(wal_directory_for(path))
    with pytest.raises(StorageError, match=f"below the checkpoint's LSN {lsn}"):
        open_store(disk, wal)
    wal.close()
    disk.close(sync=False)
    assert scan_wal(wal_directory_for(path)).last_lsn == 1  # left as it was


# ---------------------------------------------------------------------------
# `repro serve` starts without the laboratory
# ---------------------------------------------------------------------------
def test_serve_does_not_import_the_laboratory():
    script = """
import sys
from repro import Rect
from repro.cli import _parser
from repro.core.config import DOMAIN
from repro.sharding import build_router

args = _parser().parse_args(["serve", "--shards", "1", "--transport", "local"])
bounds = Rect(tuple(lo for lo, _ in DOMAIN), tuple(hi for _, hi in DOMAIN))
router = build_router(args.shards, bounds=bounds, transport=args.transport,
                      buffer_bytes=args.buffer_bytes)
router.insert(Rect((1.0, 1.0), (2.0, 2.0)))
router.close()
heavy = sorted(
    name for name in sys.modules
    if name == "numpy" or name.startswith(("repro.bench", "repro.workloads"))
    or name == "repro.concurrency.stress"
)
print(heavy)
"""
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_parser_names_match_the_laboratory():
    from repro import cli
    from repro.bench import FIGURES, INDEX_TYPES
    from repro.workloads import DATASETS

    assert cli.DATASET_NAMES == tuple(sorted(DATASETS))
    assert cli.GRAPH_NAMES == tuple(sorted(FIGURES))
    assert cli.INDEX_TYPES == INDEX_TYPES
