"""Tests for the file-backed page store and end-to-end persistence."""

import random
import sys
import threading

import pytest

from repro import Rect, SRTree, check_index
from repro.exceptions import StorageError
from repro.storage import (
    BufferPool,
    FileDisk,
    StorageManager,
    recover_tree,
    serialize_node,
    verify_page,
)

from .conftest import random_segments


class TestFileDisk:
    def test_allocate_write_read(self, tmp_path):
        disk = FileDisk(tmp_path / "pages.db")
        disk.allocate(1, 64)
        disk.allocate(2, 128)
        disk.write_page(1, b"a" * 64)
        disk.write_page(2, b"b" * 128)
        assert disk.read_page(1) == b"a" * 64
        assert disk.read_page(2) == b"b" * 128
        assert disk.allocated_bytes == 192
        disk.close()

    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "pages.db"
        disk = FileDisk(path)
        disk.allocate(7, 32)
        disk.write_page(7, b"x" * 32)
        disk.close()

        reopened = FileDisk(path)
        assert reopened.page_size(7) == 32
        assert reopened.read_page(7) == b"x" * 32
        reopened.close()

    def test_fresh_page_zeroed(self, tmp_path):
        disk = FileDisk(tmp_path / "p.db")
        disk.allocate(1, 16)
        assert disk.read_page(1) == bytes(16)
        disk.close()

    def test_errors(self, tmp_path):
        disk = FileDisk(tmp_path / "p.db")
        disk.allocate(1, 16)
        with pytest.raises(StorageError):
            disk.allocate(1, 16)
        with pytest.raises(StorageError):
            disk.read_page(9)
        with pytest.raises(StorageError):
            disk.write_page(1, b"short")
        disk.deallocate(1)
        with pytest.raises(StorageError):
            disk.deallocate(1)
        disk.close()
        with pytest.raises(StorageError):
            disk.read_page(1)

    def test_abort_drops_the_unsynced_buffered_write(self, tmp_path):
        path = tmp_path / "p.db"
        disk = FileDisk(path)
        disk.allocate(1, 64)
        disk.write_page(1, b"a" * 64)
        disk.sync()
        disk.write_page(1, b"b" * 64)  # after the sync: still in the handle's buffer
        disk.abort()
        assert b"b" * 64 not in path.read_bytes()
        recovered = FileDisk(path)
        assert recovered.read_page(1) == b"a" * 64  # the last sync's image
        recovered.close(sync=False)

    def test_context_manager(self, tmp_path):
        path = tmp_path / "p.db"
        with FileDisk(path) as disk:
            disk.allocate(1, 8)
        assert path.exists()
        assert (tmp_path / "p.db.meta").exists()

    def test_failed_meta_write_leaves_no_tmp_file(self, tmp_path, monkeypatch):
        # Regression: a sync that died between writing .meta.tmp and the
        # atomic rename left the stale .tmp behind, shadowing the real
        # sidecars in directory listings and manual inspection forever.
        import os as os_module

        disk = FileDisk(tmp_path / "p.db")
        disk.allocate(1, 16)
        disk.sync()
        real_replace = os_module.replace

        def failing_replace(src, dst):
            if str(src).endswith(".tmp"):
                raise OSError("injected rename failure")
            return real_replace(src, dst)

        monkeypatch.setattr("repro.storage.filedisk.os.replace", failing_replace)
        with pytest.raises(OSError):
            disk.sync()
        monkeypatch.undo()
        assert not (tmp_path / "p.db.meta.tmp").exists()
        disk.close(sync=False)
        # A valid generation survives (the failed rename demoted .meta to
        # .meta.prev before dying) and the store reopens from it.
        reopened = FileDisk(tmp_path / "p.db")
        assert reopened.generation == 1
        assert reopened.page_size(1) == 16
        reopened.close(sync=False)

    @staticmethod
    def _node_image(y):
        tree = SRTree()
        tree.insert(Rect((0.0, y), (5.0, y)))
        return serialize_node(tree.root, 1024, {})

    def test_two_readers_never_share_a_file_position(self, tmp_path):
        """Reads never move the shared handle: a write parked between its
        seek and its write while two readers read other pages still lands
        at its own offset, and each reader gets its own page whole.  The
        handle proxy parks the write until both reads are done (or, when
        the reads wait for the write, until a timeout)."""
        pages = {page_id: self._node_image(10.0 * page_id) for page_id in (1, 2, 3)}
        disk = FileDisk(tmp_path / "pages.db")
        for page_id, image in pages.items():
            disk.allocate(page_id, 1024)
            disk.write_page(page_id, image)
        disk.read_page(1)  # flushes the writes above; the reads below need nothing
        rewrite = self._node_image(40.0)

        class ParkingHandle:
            def __init__(self, handle):
                self._handle = handle
                self.parked = threading.Event()
                self.reads_done = threading.Event()

            def write(self, data):
                self.parked.set()
                self.reads_done.wait(timeout=0.3)
                return self._handle.write(data)

            def __getattr__(self, name):
                return getattr(self._handle, name)

        handle = disk._file = ParkingHandle(disk._file)
        writer = threading.Thread(target=disk.write_page, args=(1, rewrite))
        writer.start()
        assert handle.parked.wait(timeout=10)
        got = {}
        readers = [
            threading.Thread(target=lambda p=p: got.update({p: disk.read_page(p)}))
            for p in (2, 3)
        ]
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join(timeout=10)
        handle.reads_done.set()
        writer.join(timeout=10)
        assert not writer.is_alive() and not any(r.is_alive() for r in readers)
        disk._file = handle._handle
        for page_id in (2, 3):
            verify_page(got[page_id], page_id)
            assert got[page_id] == pages[page_id]
        # Page 1 is at offset 0, where no read leaves the handle.
        assert disk.read_page(1) == rewrite
        assert [disk.read_page(p) for p in (2, 3)] == [pages[2], pages[3]]
        disk.close()

    def test_an_unsynced_write_reads_back(self, tmp_path):
        """A read sees a write still held in the handle's buffer: a read
        flushes what writes have left there, every time they have."""
        disk = FileDisk(tmp_path / "pages.db")
        disk.allocate(1, 64)
        disk.allocate(2, 64)
        disk.write_page(1, b"a" * 64)
        assert disk.read_page(1) == b"a" * 64
        disk.write_page(1, b"b" * 64)
        disk.write_page(2, b"c" * 64)
        assert disk.read_page(1) == b"b" * 64
        assert disk.read_page(2) == b"c" * 64
        assert disk.stats.fsyncs == 0
        disk.close()

    def test_reads_beside_writes_of_other_pages_are_whole(self, tmp_path):
        """Two reader threads reading pages 1-4 while two writer threads
        rewrite pages 5-8 always get whole, CRC-valid images of their own
        pages; each writer reads back what it just wrote, which a write
        left unflushed by a racing read's flush would break."""
        disk = FileDisk(tmp_path / "pages.db")
        versions = {
            page_id: [self._node_image(10.0 * page_id + v) for v in (0.0, 0.5)]
            for page_id in range(1, 9)
        }
        for page_id, (image, _) in versions.items():
            disk.allocate(page_id, 1024)
            disk.write_page(page_id, image)
        errors = []
        writers_left = [2]
        count_lock = threading.Lock()

        def write(own):
            try:
                for i in range(200):
                    for page_id in own:
                        disk.write_page(page_id, versions[page_id][i % 2])
                        assert disk.read_page(page_id) == versions[page_id][i % 2]
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                with count_lock:
                    writers_left[0] -= 1

        def read():
            try:
                while writers_left[0]:
                    for page_id in range(1, 5):
                        data = disk.read_page(page_id)
                        verify_page(data, page_id)
                        assert data == versions[page_id][0]
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=write, args=((5, 6),)),
                threading.Thread(target=write, args=((7, 8),)),
                threading.Thread(target=read),
                threading.Thread(target=read),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for page_id in range(1, 9):
            last = 199 % 2 if page_id >= 5 else 0
            assert disk.read_page(page_id) == versions[page_id][last]
        disk.close()

    def test_works_under_buffer_pool(self, tmp_path):
        disk = FileDisk(tmp_path / "p.db")
        for i in range(1, 6):
            disk.allocate(i, 64)
        pool = BufferPool(disk, capacity_bytes=128)
        pool.write(1, b"q" * 64)
        pool.touch(2)
        pool.touch(3)  # evicts the dirty page 1
        assert disk.read_page(1) == b"q" * 64
        disk.close()


class TestEndToEndPersistence:
    def test_index_survives_file_round_trip(self, tmp_path, small_config):
        path = tmp_path / "index.db"
        tree = SRTree(small_config)
        data = {}
        for rect in random_segments(300, seed=80, long_fraction=0.3):
            data[tree.insert(rect, payload=f"p{len(data)}")] = rect
        manager = StorageManager(tree, disk=FileDisk(path))
        root_page = manager.checkpoint()
        manager.disk.sync()

        # Reload from the reopened file: the checkpoint describes itself.
        reopened_disk = FileDisk(path)
        assert reopened_disk.checkpoint_info["root_page"] == root_page
        clone, _ = recover_tree(reopened_disk, payloads=manager._payloads)
        assert type(clone) is SRTree and clone.config == small_config
        check_index(clone)
        rng = random.Random(81)
        for _ in range(30):
            cx, cy = rng.uniform(0, 100_000), rng.uniform(0, 100_000)
            q = Rect((cx, cy), (cx + 3000, cy + 3000))
            assert clone.search_ids(q) == tree.search_ids(q)
        reopened_disk.close()
        manager.disk.close()
