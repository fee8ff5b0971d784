"""Tests for the file-backed page store and end-to-end persistence."""

import random
import threading

import pytest

from repro import Rect, SRTree, check_index
from repro.exceptions import StorageError
from repro.storage import BufferPool, FileDisk, StorageManager, recover_tree

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

    def test_two_readers_never_share_a_file_position(self, tmp_path):
        """Each seek + read pair is atomic: a second reader cannot move
        the shared handle's position between them.  The handle proxy parks
        the first seek until the second reader has seeked too (or, when
        the pair is locked and it cannot, until a timeout)."""
        from repro.storage import serialize_node, verify_page

        pages = {}
        disk = FileDisk(tmp_path / "pages.db")
        for page_id, y in ((1, 10.0), (2, 20.0)):
            tree = SRTree()
            tree.insert(Rect((0.0, y), (5.0, y)))
            pages[page_id] = serialize_node(tree.root, 1024, {})
            disk.allocate(page_id, 1024)
            disk.write_page(page_id, pages[page_id])

        class ParkingHandle:
            def __init__(self, handle):
                self._handle = handle
                self._seeks = 0
                self._gate = threading.Lock()
                self._second_seeked = threading.Event()

            def seek(self, offset):
                with self._gate:
                    self._seeks += 1
                    first = self._seeks == 1
                self._handle.seek(offset)
                if first:
                    self._second_seeked.wait(timeout=0.3)
                else:
                    self._second_seeked.set()

            def __getattr__(self, name):
                return getattr(self._handle, name)

        disk._file = ParkingHandle(disk._file)
        got = {}
        readers = [
            threading.Thread(target=lambda p=p: got.update({p: disk.read_page(p)}))
            for p in pages
        ]
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join(timeout=10)
        assert not any(reader.is_alive() for reader in readers)
        for page_id, image in pages.items():
            verify_page(got[page_id], page_id)
            assert got[page_id] == image
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
