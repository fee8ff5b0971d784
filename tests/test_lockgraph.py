"""Tests for the runtime lock-order recorder and ``repro racecheck``.

The recorder (:mod:`repro.obs.lockgraph`) builds an Eraser-style
acquisition graph from per-thread held-lock stacks; these tests exercise
the graph mechanics directly (edges, ascents, cycles, re-entry and
read/read skips, CV-wait classification) and then the full
``run_racecheck`` pipeline, including the planted-inversion selftest the
detector must flag.
"""

import threading

from repro.cli import main
from repro.concurrency.latch import RWLatch
from repro.concurrency.racecheck import (
    run_inversion_selftest,
    run_overhead_probe,
    run_racecheck,
)
from repro.obs.lockgraph import (
    LockOrderRecorder,
    TrackedCondition,
    active_recorder,
    recording,
)


# ----------------------------------------------------------------------
# Recorder mechanics
# ----------------------------------------------------------------------
def test_recording_installs_and_uninstalls():
    assert active_recorder() is None
    with recording() as rec:
        assert active_recorder() is rec
    assert active_recorder() is None


def test_descending_nest_records_edge_not_ascent():
    rec = LockOrderRecorder()
    outer = TrackedCondition("buffer")
    inner = TrackedCondition("wal")
    with recording(rec):
        with outer:
            with inner:
                pass
    report = rec.report()
    assert report["ok"]
    assert len(report["edges"]) == 1
    (edge,) = report["edges"]
    assert (edge["src_level"], edge["dst_level"]) == ("buffer", "wal")
    assert edge["ascending"] is False
    assert report["ascending_edges"] == []
    assert report["cycles"] == []


def test_ascending_nest_flagged():
    rec = LockOrderRecorder()
    wal = TrackedCondition("wal")
    buf = TrackedCondition("buffer")
    with recording(rec):
        with wal:
            with buf:
                pass
    report = rec.report()
    assert not report["ok"]
    (edge,) = report["ascending_edges"]
    assert (edge["src_level"], edge["dst_level"]) == ("wal", "buffer")
    # A one-thread ascent is not yet a cycle.
    assert report["cycles"] == []


def test_ab_ba_inversion_builds_cycle():
    rec = LockOrderRecorder()
    a = TrackedCondition("buffer")
    b = TrackedCondition("buffer")

    def take(first, second):
        with first:
            with second:
                pass

    with recording(rec):
        t1 = threading.Thread(target=take, args=(a, b))
        t1.start()
        t1.join()
        t2 = threading.Thread(target=take, args=(b, a))
        t2.start()
        t2.join()
    report = rec.report()
    assert not report["ok"]
    assert len(report["cycles"]) == 1
    assert len(report["cycles"][0]) == 2


def test_same_level_fixed_order_is_not_a_cycle():
    # Instance granularity: two buffer-level mutexes always taken in the
    # same order are fine, which level-granularity graphs cannot express.
    rec = LockOrderRecorder()
    a = TrackedCondition("buffer")
    b = TrackedCondition("buffer")
    with recording(rec):
        for _ in range(3):
            with a:
                with b:
                    pass
    report = rec.report()
    assert report["cycles"] == []
    assert report["ascending_edges"] == []
    (edge,) = report["edges"]
    assert edge["count"] == 3


def test_reentrant_acquisition_records_nothing():
    rec = LockOrderRecorder()
    cond = TrackedCondition("buffer", threading.RLock())
    with recording(rec):
        with cond:
            with cond:
                pass
    report = rec.report()
    assert report["edges"] == []
    assert report["attempts_with_held"] == 0


def test_node_write_under_read_is_recorded():
    rec = LockOrderRecorder()
    parent = RWLatch("index")
    child = RWLatch("index")
    with recording(rec):
        with parent.read():
            with child.write():
                pass
    (edge,) = rec.report()["edges"]
    assert (edge["src_mode"], edge["dst_mode"]) == ("read", "write")


def test_undeclared_level_fails_the_report():
    # A level lockspec does not declare ranks last and can never ascend;
    # it has to fail the report by name instead.
    rec = LockOrderRecorder()
    with recording(rec):
        with RWLatch("node").read():
            pass
    report = rec.report()
    assert report["undeclared_levels"] == ["node"]
    assert report["ok"] is False


def test_release_pops_latest_matching_hold():
    rec = LockOrderRecorder()
    latch = RWLatch("index")
    cond = TrackedCondition("buffer")
    with recording(rec):
        latch.acquire_read()
        with cond:
            pass
        latch.release_read()
        # After both releases the stack is empty: a fresh acquisition
        # records no edges.
        with cond:
            pass
    report = rec.report()
    assert len(report["edges"]) == 1  # only index -> buffer from the nest


def test_cv_wait_with_lower_ranked_hold_is_risky():
    rec = LockOrderRecorder()
    wal_cv = TrackedCondition("wal")
    buf = TrackedCondition("buffer")

    def waiter():
        with buf:  # rank 2 held...
            with wal_cv:
                wal_cv.wait(timeout=0.01)  # ...while waiting at rank 3

    with recording(rec):
        t = threading.Thread(target=waiter)
        t.start()
        t.join()
    report = rec.report()
    # Holding buffer (rank 2) across a wal-CV wait (rank 3) descends the
    # hierarchy: reported as held-while-blocking, but not risky.
    assert report["held_while_blocking"]
    assert report["risky_waits"] == []

    rec2 = LockOrderRecorder()
    buf_cv = TrackedCondition("buffer")
    wal_mutex = TrackedCondition("wal")

    def risky_waiter():
        with wal_mutex:  # rank 3 held while waiting on rank-2 CV
            with buf_cv:
                buf_cv.wait(timeout=0.01)

    with recording(rec2):
        t = threading.Thread(target=risky_waiter)
        t.start()
        t.join()
    report2 = rec2.report()
    assert report2["risky_waits"]
    assert report2["risky_waits"][0]["count"] == 1


def test_cv_wait_with_only_read_holds_not_reported():
    rec = LockOrderRecorder()
    latch = RWLatch("index")
    cv = TrackedCondition("wal")

    def waiter():
        with latch.read():
            with cv:
                cv.wait(timeout=0.01)

    with recording(rec):
        t = threading.Thread(target=waiter)
        t.start()
        t.join()
    assert rec.report()["held_while_blocking"] == []


def test_uninstalled_recorder_ignores_traffic():
    rec = LockOrderRecorder()
    cond = TrackedCondition("buffer")
    with cond:  # no recorder installed
        pass
    with recording(rec):
        pass
    report = rec.report()
    assert report["acquisitions"] == 0 and report["edges"] == []


def test_pool_hit_reports_to_an_installed_recorder():
    """The one-section hit path is cheap when nothing records, not
    invisible when something does."""
    from repro.storage import BufferPool, SimulatedDisk

    disk = SimulatedDisk()
    disk.allocate(1, 64)
    pool = BufferPool(disk, capacity_bytes=1024)
    pool.touch(1)  # the miss, before recording starts
    index = TrackedCondition("index")
    with recording() as rec:
        with index:
            pool.touch(1)
    assert pool.stats.hits == 1
    report = rec.report()
    assert report["ok"] and report["acquisitions"] == 2
    (edge,) = report["edges"]
    assert (edge["src_level"], edge["dst_level"], edge["count"]) == ("index", "buffer", 1)


# ----------------------------------------------------------------------
# Planted violations of the classes the retired lint rules R5 and R7
# covered: the recorder has to fail each one
# ----------------------------------------------------------------------
def _storage_manager():
    from repro import SRTree
    from repro.storage import StorageManager

    return StorageManager(SRTree(), buffer_bytes=4 * 1024)


def test_latch_taken_under_the_page_lock_is_an_ascent():
    page_lock = _storage_manager()._page_lock
    with recording() as rec:
        with page_lock:
            with RWLatch("index").write():
                pass
    report = rec.report()
    assert not report["ok"]
    (edge,) = report["ascending_edges"]
    assert (edge["src_level"], edge["dst_level"]) == ("buffer", "index")


def test_page_lock_and_pool_mutex_in_opposite_orders_is_a_cycle():
    manager = _storage_manager()
    page_lock, pool_cond = manager._page_lock, manager.pool._cond

    def take(first, second):
        with first:
            with second:
                pass

    with recording() as rec:
        for pair in ((page_lock, pool_cond), (pool_cond, page_lock)):
            t = threading.Thread(target=take, args=pair)
            t.start()
            t.join(timeout=10)
            assert not t.is_alive()
    report = rec.report()
    assert not report["ok"]
    assert report["ascending_edges"] == []  # both are buffer-level
    (cycle,) = report["cycles"]
    assert sorted(report["locks"][key] for key in cycle) == ["buffer", "buffer"]


def test_thread_exiting_with_a_write_latch_held_is_unreleased():
    latch = RWLatch("index")
    with recording() as rec:
        t = threading.Thread(target=latch.acquire_write, name="leaker")
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
    report = rec.report()
    assert report["ok"] is False
    (held,) = report["unreleased"]
    assert report["locks"][held["lock"]] == "index"
    assert (held["thread"], held["mode"]) == ("leaker", "write")


# ----------------------------------------------------------------------
# racecheck pipeline
# ----------------------------------------------------------------------
def test_inversion_selftest_detects_planted_deadlock_shape():
    result = run_inversion_selftest()
    assert result["detected"] is True
    assert result["cycles"] and result["ascending_edges"]


def test_overhead_probe_shape():
    probe = run_overhead_probe(iterations=200)
    assert probe["iterations"] == 200
    assert probe["baseline_seconds"] > 0
    assert probe["recording_seconds"] > 0
    assert probe["overhead_ratio"] > 0


def test_racecheck_clean_on_real_workloads():
    report = run_racecheck(
        seed=0,
        kinds=("SR-Tree",),
        readers=2,
        writers=1,
        ops_per_thread=12,
        wal_writers=2,
        wal_records=24,
        probe_iterations=200,
    )
    assert report["ok"] is True
    assert report["selftest"]["detected"] is True
    graph = report["lock_order"]
    assert graph["cycles"] == [] and graph["ascending_edges"] == []
    assert graph["unreleased"] == []
    assert graph["acquisitions"] > 0
    # The workloads really ran.
    names = [w["workload"] for w in report["workloads"]]
    assert names == [
        "stress/SR-Tree",
        "stress-mvcc/SR-Tree",
        "wal-group-commit",
        "stress-shard",
    ]
    by_name = {w["workload"]: w for w in report["workloads"]}
    # The latched read path is in the graph by construction, and every
    # recorded lock belongs to a level the hierarchy declares.
    latched = by_name["stress/SR-Tree"]
    assert latched["read_acquires"] >= latched["searches"] > 0
    assert graph["undeclared_levels"] == []
    assert set(graph["locks"].values()) <= {"router", "index", "buffer", "wal"}
    # MVCC snapshot reads recorded no read-side latch acquisitions.
    assert by_name["stress-mvcc/SR-Tree"]["snapshot_reads"] > 0
    assert by_name["stress-mvcc/SR-Tree"]["read_latch_acquires"] == 0
    assert by_name["wal-group-commit"]["commits_acked"] == 24  # records total
    # The sharded tier's traffic and its mid-run rebalance were recorded.
    shard = by_name["stress-shard"]
    assert shard["searches"] > 0 and shard["inserts"] > 0
    assert shard["rebalances"] == 1 and shard["shards"] == 3


def test_cli_racecheck_json_and_artifact(tmp_path, capsys):
    out = tmp_path / "racecheck.json"
    code = main(
        [
            "racecheck",
            "--readers", "2",
            "--writers", "1",
            "--ops", "8",
            "--wal-writers", "2",
            "--wal-records", "8",
            "--format", "json",
            "--output", str(out),
        ]
    )
    assert code == 0
    import json

    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    saved = json.loads(out.read_text())
    assert saved["ok"] is True and saved["version"] == 1
