"""BufferPool eviction accounting vs. emitted trace events (satellite:
BufferStats.evictions / dirty_writebacks must match the eviction events
under a byte-budget-constrained workload)."""

from repro import NULL_TRACER, SRTree, Tracer, segment
from repro.obs import RingBufferSink
from repro.storage import BufferPool, SimulatedDisk, StorageManager


class TestBufferPoolEvictionEvents:
    def test_eviction_events_match_stats(self):
        disk = SimulatedDisk()
        page_bytes = 1024
        for page_id in range(1, 21):
            disk.allocate(page_id, page_bytes)
        tracer = Tracer(RingBufferSink())
        pool = BufferPool(disk, capacity_bytes=4 * page_bytes, tracer=tracer)

        # Cycle through 20 pages twice with room for only 4: constant
        # evictions; mark every third access dirty to force writebacks.
        for round_no in range(2):
            for page_id in range(1, 21):
                if page_id % 3 == 0:
                    pool.write(page_id, bytes([round_no + 1]) * page_bytes)
                else:
                    pool.read(page_id)

        events = tracer.events
        evictions = [e for e in events if e.etype == "eviction"]
        fetches = [e for e in events if e.etype == "page_fetch"]
        assert pool.stats.evictions > 0, "workload must actually evict"
        assert len(evictions) == pool.stats.evictions
        dirty_evictions = sum(1 for e in evictions if e.fields["dirty"])
        assert dirty_evictions == pool.stats.dirty_writebacks
        assert len(fetches) == pool.stats.accesses
        hits = sum(1 for e in fetches if e.fields["hit"])
        assert hits == pool.stats.hits
        for event in evictions:
            assert event.fields["page_bytes"] == page_bytes

    def test_flush_writebacks_are_not_evictions(self):
        disk = SimulatedDisk()
        disk.allocate(1, 512)
        tracer = Tracer(RingBufferSink())
        pool = BufferPool(disk, capacity_bytes=2048, tracer=tracer)
        pool.write(1, b"d" * 512)
        pool.flush()
        assert pool.stats.dirty_writebacks == 1
        assert pool.stats.evictions == 0
        assert not [e for e in tracer.events if e.etype == "eviction"]

    def test_end_to_end_constrained_search_reconciles(self):
        """A real index under a tiny buffer budget: every eviction the
        stats claim has a matching trace event."""
        tree = SRTree()
        for i in range(1200):
            tree.insert(segment(i % 61, i % 61 + 1.5, float(i)))
        manager = StorageManager(tree, buffer_bytes=6 * 1024)
        tracer = Tracer(RingBufferSink(capacity=200_000))
        manager.set_tracer(tracer)
        for q in range(0, 60, 5):
            tree.search(segment(float(q), float(q) + 2.0, float(q * 10)))
        manager.set_tracer(NULL_TRACER)
        evictions = [e for e in tracer.events if e.etype == "eviction"]
        assert tree.stats.searches == 12
        assert pool_evictions(manager) == len(evictions)
        assert pool_evictions(manager) > 0


def pool_evictions(manager: StorageManager) -> int:
    return manager.pool.stats.evictions
