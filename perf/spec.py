"""The benchmark contract (``BENCHMARK.json``) and the two input scales."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"


def load_spec() -> dict:
    """``BENCHMARK.json`` — the only place names, units and bounds live."""
    return json.loads(SPEC_PATH.read_text())


def units(spec: dict, section: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``."""
    return {m["name"]: m["unit"] for m in spec[section]}


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``full`` is what the contract measures; ``tiny`` lets the
    smoke tests run every workload in under three seconds."""

    name: str
    qar_records: int  # index_qar: records per tree
    qar_queries: int  # index_qar: queries per QAR (the paper uses 100)
    engine_records: int  # engine_*: records preloaded before the stack attaches
    engine_q: int  # engine_*: operations in the query set Q
    engine_spill_bytes: int  # engine_spill: pool size, ~1/8 of the checkpointed tree
    tcp_records: int  # shard_tcp: records inserted over TCP
    tcp_q: int  # shard_tcp: operations in Q
    setup_repeats: int  # set-ups per run; setup_s is their median
    trace_writes: int  # traced run: inserts (and deletes) timed at each stack level
    open_seconds: float  # traced shard_tcp: length of each open-loop step


FULL = Scale("full", 5000, 100, 12000, 4000, 96 * 1024, 4000, 1000, 3, 150, 3.0)
TINY = Scale("tiny", 400, 4, 500, 200, 8 * 1024, 300, 100, 1, 20, 0.4)
SCALES = {"full": FULL, "tiny": TINY}

#: Pool that holds the whole engine working set (engine_fit, engine_mvcc, shard workers).
FIT_BYTES = 16 * 1024 * 1024
#: The paced "churn" writer's fixed commit rate.
CHURN_RATE = 100.0
#: Open-loop ladder for shard_tcp (ops/s) and its latency limit from the due time.
OPEN_RATES = (400, 800, 1600)
OPEN_P99_LIMIT_US = 25_000.0
