"""The stacks a workload drives, built only from ``repro``'s public surface.

``EngineStack`` is the durable single-process engine (``FileDisk`` +
``WriteAheadLog`` + ``StorageManager`` + ``ConcurrentIndex``); ``Server`` is
``python -m repro serve`` as a subprocess, always reaped; ``TcpClient`` speaks
its JSON-lines protocol with the method names of the in-process indexes, so
one driver loop serves every workload.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from repro import ConcurrentIndex, Rect, RTree
from repro.storage import FileDisk, StorageManager, WriteAheadLog, wal_directory_for

from .measure import WAIT_S, process_tree
from .spec import ROOT


class WorkDir:
    """Scratch space under the checkout (``.perf_out/work-<pid>``), removed on exit."""

    def __init__(self) -> None:
        self.path = Path.cwd() / ".perf_out" / f"work-{os.getpid()}"
        self._stores = 0

    def __enter__(self) -> "WorkDir":
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self

    def __exit__(self, *exc: object) -> None:
        shutil.rmtree(self.path, ignore_errors=True)

    def store(self) -> Path:
        """A fresh page-file path (its WAL directory sits beside it)."""
        self._stores += 1
        directory = self.path / f"store-{self._stores}"
        directory.mkdir()
        return directory / "pages.dat"


class EngineStack:
    """A preloaded tree behind disk, log, buffer pool and the latched engine."""

    def __init__(
        self, tree: RTree, path: Path, buffer_bytes: int, *, mvcc: bool = False, wal: bool = True
    ) -> None:
        self.path = path
        self.disk = FileDisk(path)
        self.wal = WriteAheadLog(wal_directory_for(path)) if wal else None
        self.manager = StorageManager(
            tree, buffer_bytes=buffer_bytes, disk=self.disk, wal=self.wal
        )
        self.engine = ConcurrentIndex(tree, storage=self.manager, mvcc=mvcc)

    def _detach(self) -> None:
        self.engine.detach()
        self.manager.detach()

    def close(self) -> None:
        self._detach()
        if self.wal is not None:
            self.wal.close()
        self.disk.close()

    def crash(self) -> None:
        """Stop without a checkpoint: only what the log made durable survives."""
        self._detach()
        if self.wal is not None:
            self.wal.abort()
        self.disk.abort()


class TcpClient:
    """One connection to ``repro serve``; an ``{"ok": false}`` frame raises."""

    def __init__(self, port: int) -> None:
        self._sock = socket.create_connection(("127.0.0.1", port), timeout=WAIT_S)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._lines = self._sock.makefile("rb")

    def call(self, frame: dict) -> Any:
        self._sock.sendall(json.dumps(frame).encode() + b"\n")
        line = self._lines.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        reply = json.loads(line)
        if not reply.get("ok"):
            raise RuntimeError(f"{reply.get('error_type')}: {reply.get('error')}")
        return reply["value"]

    def search(self, rect: Rect) -> list:
        return self.call({"op": "search", "lows": rect.lows, "highs": rect.highs})

    def stab(self, *coords: float) -> list:
        return self.call({"op": "stab", "coords": coords})

    def insert(self, rect: Rect) -> int:
        return self.call({"op": "insert", "lows": rect.lows, "highs": rect.highs})

    def delete(self, record_id: int, hint: "Rect | None" = None) -> int:
        return self.call({"op": "delete", "record_id": record_id})

    def stats(self) -> dict:
        return self.call({"op": "stats"})

    def close(self) -> None:
        self._lines.close()
        self._sock.close()


def _running(pid: int) -> bool:
    """False once ``pid`` has exited (a zombie awaiting its reaper has exited)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class Server:
    """``python -m repro serve`` with two process shards and fitting pools."""

    def __init__(self, shards: int = 2, buffer_bytes: int = 16 * 1024 * 1024) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.process = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro", "serve",
                "--shards", str(shards), "--transport", "process",
                "--buffer-bytes", str(buffer_bytes), "--port", "0",
            ],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        # The shard workers are forked before the server listens.  They are
        # remembered now because a worker outlives a killed server (each holds
        # the router's end of its own pipe, inherited at fork, so it never sees
        # the pipe close) and must then be reaped by pid.
        self.workers: list[int] = []
        try:
            assert self.process.stdout is not None
            banner = self.process.stdout.readline()
            self.port = int(banner.rsplit(":", 1)[1])
            self.workers = [
                pid for pid in process_tree(self.process.pid) if pid != self.process.pid
            ]
        except (IndexError, ValueError):
            self.stop()
            raise RuntimeError(f"repro serve did not start: {banner!r}") from None

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the server and its shard workers."""
        return sum(process_tree(self.process.pid).values())

    def stop(self) -> None:
        """Interrupt, then kill; the server and its workers are waited for."""
        workers = self.workers
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(10.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
        self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        # After a clean shutdown the workers are gone; they are not our children, so poll.
        deadline = time.monotonic() + 2.0
        while workers and time.monotonic() < deadline:
            workers = [pid for pid in workers if _running(pid)]
            time.sleep(0.01)
        for pid in workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()
