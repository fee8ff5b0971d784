"""Paged storage: pages, disks, LRU buffer pool, serialization, faults.

The durability stack, bottom to top: :class:`FileDisk` (crash-safe paged
file with atomic generational checkpoints), optionally wrapped in a
:class:`FaultInjectingDisk` (deterministic fault injection), under a
:class:`BufferPool`, driven by a :class:`StorageManager` (CRC-verified
page images, transient-error retries, checkpoint/load).  A
:class:`WriteAheadLog` attached to the manager makes individual commits
durable between checkpoints (group-committed redo logging; recovery =
checkpoint + :func:`recover_tree` replay).
"""

from .buffer import BufferPool, BufferStats
from .disk import DiskStats, LatencyDisk, SimulatedDisk
from .faults import Fault, FaultInjectingDisk, FaultStats
from .filedisk import FileDisk
from .page import Page, PageId
from .pager import RetryPolicy, StorageManager, recover_tree
from .wal import (
    TornWalAppend,
    WalReplayResult,
    WalScanInfo,
    WalStats,
    WriteAheadLog,
    replay_wal,
    scan_wal,
    wal_directory_for,
)
from .serializer import (
    BranchImage,
    NodeImage,
    PAGE_MAGIC,
    RecordImage,
    deserialize_node,
    entry_physical_bytes,
    serialize_node,
    verify_page,
)

__all__ = [
    "BufferPool",
    "BufferStats",
    "DiskStats",
    "Fault",
    "FaultInjectingDisk",
    "FaultStats",
    "FileDisk",
    "LatencyDisk",
    "SimulatedDisk",
    "Page",
    "PageId",
    "PAGE_MAGIC",
    "RetryPolicy",
    "StorageManager",
    "TornWalAppend",
    "WalReplayResult",
    "WalScanInfo",
    "WalStats",
    "WriteAheadLog",
    "recover_tree",
    "replay_wal",
    "scan_wal",
    "wal_directory_for",
    "BranchImage",
    "NodeImage",
    "RecordImage",
    "deserialize_node",
    "entry_physical_bytes",
    "serialize_node",
    "verify_page",
]
