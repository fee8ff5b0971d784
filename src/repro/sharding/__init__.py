"""Sharded scatter-gather serving tier.

Partitions the curve-key space (:mod:`repro.sharding.partition`'s
Hilbert / Z-order keys) into contiguous ranges, one per shard worker — each
worker a private tree + buffer pool, optionally in its own OS process —
behind a :class:`~repro.sharding.router.ShardRouter` that routes writes
by curve key, scatter-gathers reads with bounds-based shard pruning, and
rebalances hot shards by range splitting.  See DESIGN.md ("Sharded
serving tier") for the protocol walk-through.
"""

from .admission import AdmissionController
from .partition import CurveRangePartitioner, ShardRange
from .router import TRANSPORTS, ShardRouter, build_router
from .service import ShardedService, serve
from .transport import LocalShardClient, ProcessShardClient, ShardClient
from .worker import ShardSpec, ShardWorker

__all__ = [
    "AdmissionController",
    "CurveRangePartitioner",
    "ShardRange",
    "ShardRouter",
    "ShardSpec",
    "ShardWorker",
    "ShardClient",
    "LocalShardClient",
    "ProcessShardClient",
    "ShardedService",
    "TRANSPORTS",
    "build_router",
    "serve",
]
