"""Tests for the simulated storage stack: pages, disk, buffer pool."""

import pytest

from repro.exceptions import StorageError
from repro.storage import BufferPool, Page, SimulatedDisk


class TestPage:
    def test_fresh_page_zeroed(self):
        p = Page(1, 64)
        assert p.data == b"\x00" * 64
        assert not p.dirty

    def test_bad_size_rejected(self):
        with pytest.raises(StorageError):
            Page(1, 0)

    def test_mismatched_buffer_rejected(self):
        with pytest.raises(StorageError):
            Page(1, 16, bytearray(8))


class TestSimulatedDisk:
    def test_allocate_read_write(self):
        disk = SimulatedDisk()
        disk.allocate(1, 32)
        assert disk.read_page(1) == b"\x00" * 32
        disk.write_page(1, b"a" * 32)
        assert disk.read_page(1) == b"a" * 32
        assert disk.stats.reads == 2
        assert disk.stats.writes == 1
        assert disk.stats.bytes_written == 32

    def test_variable_page_sizes(self):
        disk = SimulatedDisk()
        disk.allocate(1, 1024)
        disk.allocate(2, 2048)
        assert disk.page_size(1) == 1024
        assert disk.page_size(2) == 2048
        assert disk.allocated_bytes == 3072
        assert disk.allocated_pages == 2

    def test_double_allocate_rejected(self):
        disk = SimulatedDisk()
        disk.allocate(1, 32)
        with pytest.raises(StorageError):
            disk.allocate(1, 32)

    def test_unallocated_access_rejected(self):
        disk = SimulatedDisk()
        with pytest.raises(StorageError):
            disk.read_page(9)
        with pytest.raises(StorageError):
            disk.write_page(9, b"")

    def test_size_mismatch_write_rejected(self):
        disk = SimulatedDisk()
        disk.allocate(1, 32)
        with pytest.raises(StorageError):
            disk.write_page(1, b"short")

    def test_deallocate(self):
        disk = SimulatedDisk()
        disk.allocate(1, 32)
        disk.deallocate(1)
        assert disk.allocated_pages == 0
        with pytest.raises(StorageError):
            disk.deallocate(1)


class TestBufferPool:
    def _disk(self, pages=10, size=64):
        disk = SimulatedDisk()
        for i in range(1, pages + 1):
            disk.allocate(i, size)
        return disk

    def test_miss_then_hit(self):
        pool = BufferPool(self._disk(), capacity_bytes=256)
        pool.touch(1)
        pool.touch(1)
        assert pool.stats.misses == 1
        assert pool.stats.hits == 1
        assert pool.stats.hit_ratio == 0.5

    def test_eviction_lru_order(self):
        pool = BufferPool(self._disk(), capacity_bytes=128)  # two 64B frames
        pool.touch(1)
        pool.touch(2)
        pool.touch(1)  # 1 is now MRU
        pool.touch(3)  # evicts 2
        assert pool.stats.evictions == 1
        pool.touch(1)
        assert pool.stats.hits == 2  # 1 stayed resident

    def test_dirty_writeback_on_eviction(self):
        disk = self._disk()
        pool = BufferPool(disk, capacity_bytes=64)
        pool.write(1, b"x" * 64)
        pool.touch(2)  # evicts dirty page 1
        assert pool.stats.dirty_writebacks == 1
        assert disk.read_page(1) == b"x" * 64

    def test_flush_writes_dirty(self):
        disk = self._disk()
        pool = BufferPool(disk, capacity_bytes=256)
        pool.write(1, b"y" * 64)
        pool.flush()
        assert disk.read_page(1) == b"y" * 64

    def test_oversized_page_rejected(self):
        disk = SimulatedDisk()
        disk.allocate(1, 1024)
        pool = BufferPool(disk, capacity_bytes=512)
        with pytest.raises(StorageError):
            pool.read(1)

    def test_variable_size_accounting(self):
        disk = SimulatedDisk()
        disk.allocate(1, 1024)
        disk.allocate(2, 2048)
        pool = BufferPool(disk, capacity_bytes=3072)
        pool.touch(1)
        pool.touch(2)
        assert pool.resident_bytes == 3072
        assert pool.resident_pages == 2

    def test_bad_capacity_rejected(self):
        with pytest.raises(StorageError):
            BufferPool(SimulatedDisk(), capacity_bytes=0)

    def test_drop_clears_dirty_flag(self):
        disk = self._disk()
        pool = BufferPool(disk, capacity_bytes=256)
        pool.write(1, b"z" * 64)
        frame = pool._frames[1]
        pool.drop(1)
        # Dropped means discarded: no writeback, and the stale frame
        # object cannot leak its dirty flag into a re-allocated page id.
        assert frame.dirty is False
        assert pool.stats.dirty_writebacks == 0
        assert disk.read_page(1) == b"\x00" * 64

    def test_write_of_a_wrong_size_image_is_refused_on_a_hit(self):
        disk = self._disk()
        pool = BufferPool(disk, capacity_bytes=256)
        pool.write(1, b"a" * 64)
        stats = pool.stats.snapshot()
        for image in (b"b" * 10, b"b" * 65):
            with pytest.raises(StorageError, match=f"write of {len(image)} bytes != page size 64"):
                pool.write(1, image)
        assert pool.stats.snapshot() == stats
        assert pool.read(1) == b"a" * 64  # no splice of the new prefix
        pool.flush()
        assert disk.read_page(1) == b"a" * 64

    def test_write_of_a_wrong_size_image_is_refused_on_a_miss(self):
        disk = self._disk()
        pool = BufferPool(disk, capacity_bytes=256)
        with pytest.raises(StorageError, match="write of 10 bytes != page size 64"):
            pool.write(2, b"b" * 10)
        assert pool.stats.accesses == 0 and pool.resident_pages == 0
        assert disk.stats.reads == 0
        assert pool.read(2) == bytes(64)  # nothing padded into a frame
        pool.flush()
        assert disk.stats.writes == 0

    def test_drop_nonresident_is_noop(self):
        pool = BufferPool(self._disk(), capacity_bytes=256)
        pool.drop(99)  # never resident, never allocated: silently ignored
        pool.verify_accounting()
