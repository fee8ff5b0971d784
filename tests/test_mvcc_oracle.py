"""Snapshot isolation vs. a brute-force oracle, across interleavings.

Hypothesis draws an operation sequence (inserts/deletes); a writer
thread commits it through the MVCC engine while readers open snapshots
at arbitrary points — before, during, and after the stream — hold them
across later commits, then search.  Every result set must equal a
brute-force replay of *exactly* the operations committed at the pinned
epoch: the base state captured when MVCC was enabled plus every
commit-log note with ``epoch <= snapshot.epoch``.

Seeding follows the differential-test convention: ``REPRO_DIFF_SEED``
pins hypothesis's seed (and turns derandomization off),
``REPRO_DIFF_EXAMPLES`` scales the example count.  All five index
variants are exercised.
"""

import os
import threading
import time

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro import ConcurrentIndex, IndexConfig, Rect
from repro.concurrency.stress import STRESS_INDEX_TYPES, _make_index
from repro.storage import StorageManager

MAX_EXAMPLES = int(os.environ.get("REPRO_DIFF_EXAMPLES", "20"))
_SEED = os.environ.get("REPRO_DIFF_SEED")
DIFF_SETTINGS = settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    derandomize=_SEED is None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _seeded(fn):
    return seed(int(_SEED))(fn) if _SEED is not None else fn


DOMAIN = 1000.0
CONFIG = IndexConfig(leaf_node_bytes=256, coalesce_interval=0)


def _box_strategy(max_side=DOMAIN * 0.05):
    coord = st.floats(0.0, DOMAIN, allow_nan=False, width=32)
    side = st.floats(0.0, max_side, allow_nan=False, width=32)

    def make(cx, cy, w, h):
        return Rect(
            (max(cx - w, 0.0), max(cy - h, 0.0)),
            (min(cx + w, DOMAIN), min(cy + h, DOMAIN)),
        )

    return st.builds(make, coord, coord, side, side)


def _op_strategy():
    return st.one_of(
        st.tuples(st.just("insert"), _box_strategy()),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=10**6)),
    )


def _build_engine(kind, initial):
    tree = _make_index(kind, CONFIG, list(initial), DOMAIN)
    manager = StorageManager(tree, buffer_bytes=1 << 16)
    engine = ConcurrentIndex(tree, storage=manager, mvcc=True)
    manager.versions.commit_log = []  # armed: the oracle below reads it
    return tree, manager, engine


# ---------------------------------------------------------------------------
# The oracle: base fragments + commit-log replay
# ---------------------------------------------------------------------------
def _base_registry(tree):
    """rid -> fragment rects at the MVCC base epoch (fragments tile the
    original rectangle, so any-fragment-intersects == rect-intersects)."""
    registry = {}
    for rid, rect, _payload in tree.items():
        registry.setdefault(rid, []).append(rect)
    return registry


def _replay(base, commit_log, epoch):
    """Apply exactly the committed notes with ``note_epoch <= epoch``."""
    registry = {rid: list(rects) for rid, rects in base.items()}
    for note_epoch, note in commit_log:
        if note_epoch > epoch:
            break  # the log is appended in commit (epoch) order
        if note[0] == "insert":
            _, rid, rect, _payload = note
            registry[rid] = [rect]
        else:
            registry.pop(note[1], None)
    return registry


def _expected_ids(registry, query):
    return {
        rid
        for rid, rects in registry.items()
        if any(query.intersects(r) for r in rects)
    }


def _apply_ops(engine, ops, live):
    """The writer: each op is one commit; deletes pick from the live set
    deterministically (modulo its current size)."""
    for op in ops:
        if op[0] == "insert":
            live.append(engine.insert(op[1], payload="w"))
        elif live:
            target = live.pop(op[1] % len(live))
            engine.delete(target)


# ---------------------------------------------------------------------------
# Deterministic interleaving: snapshots held across serial commits
# ---------------------------------------------------------------------------
class TestSerialOracle:
    @pytest.mark.parametrize("kind", STRESS_INDEX_TYPES)
    def test_snapshot_pins_its_epoch_exactly(self, kind):
        initial = [
            Rect((10.0 * i, 5.0 * i), (10.0 * i + 8.0, 5.0 * i + 4.0))
            for i in range(14)
        ]
        tree, manager, engine = _build_engine(kind, initial)
        try:
            base = _base_registry(tree)
            cache = manager.versions
            live = sorted(base)
            snaps = [engine.open_snapshot()]
            ops = [
                ("insert", Rect((3.0, 3.0), (40.0, 40.0))),
                ("delete", 2),
                ("insert", Rect((70.0, 10.0), (90.0, 30.0))),
                ("delete", 0),
                ("insert", Rect((0.0, 0.0), (5.0, 5.0))),
            ]
            for op in ops:  # one snapshot pinned after every commit
                _apply_ops(engine, [op], live)
                snaps.append(engine.open_snapshot())
            queries = [
                Rect((0.0, 0.0), (DOMAIN, DOMAIN)),
                Rect((0.0, 0.0), (45.0, 45.0)),
                Rect((69.0, 9.0), (71.0, 11.0)),
            ]
            for snap in snaps:
                registry = _replay(base, list(cache.commit_log), snap.epoch)
                for q in queries:
                    assert snap.search_ids(q) == _expected_ids(registry, q), (
                        f"{kind}: snapshot at epoch {snap.epoch} diverged"
                    )
                assert len(snap) == len(registry)
            # Epochs pinned strictly increase: one commit per op.
            epochs = [s.epoch for s in snaps]
            assert epochs == sorted(set(epochs))
            for snap in snaps:
                snap.close()
        finally:
            engine.detach()
            manager.detach()


# ---------------------------------------------------------------------------
# Hypothesis interleavings: a free-running writer, readers that sleep
# across its commits before searching
# ---------------------------------------------------------------------------
class TestHypothesisOracle:
    @pytest.mark.parametrize("kind", STRESS_INDEX_TYPES)
    @_seeded
    @DIFF_SETTINGS
    @given(data=st.data())
    def test_concurrent_snapshots_match_oracle(self, kind, data):
        initial = data.draw(
            st.lists(_box_strategy(), min_size=8, max_size=16), label="initial"
        )
        ops = data.draw(
            st.lists(_op_strategy(), min_size=6, max_size=24), label="ops"
        )
        queries = data.draw(
            st.lists(_box_strategy(max_side=DOMAIN * 0.3), min_size=1, max_size=3),
            label="queries",
        )
        tree, manager, engine = _build_engine(kind, initial)
        try:
            base = _base_registry(tree)
            cache = manager.versions
            live = sorted(base)
            writer = threading.Thread(target=_apply_ops, args=(engine, ops, live))

            # Snapshots pinned before / during / after the writer's run;
            # each is *held* across subsequent commits and only searched
            # once the stream is over.
            early = engine.open_snapshot()
            writer.start()
            time.sleep(0.001)  # sleep across some commits
            middle = engine.open_snapshot()
            writer.join()
            late = engine.open_snapshot()

            log = list(cache.commit_log)
            assert late.epoch == (log[-1][0] if log else early.epoch)
            for snap in (early, middle, late):
                registry = _replay(base, log, snap.epoch)
                for q in queries:
                    assert snap.search_ids(q) == _expected_ids(registry, q), (
                        f"{kind}: snapshot at epoch {snap.epoch} diverged "
                        f"from oracle replay"
                    )
                snap.close()
        finally:
            engine.detach()
            manager.detach()
