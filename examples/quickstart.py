#!/usr/bin/env python3
"""Quickstart: index interval data with an SR-Tree in five minutes.

Walks through the public API: building an index, inserting segments,
rectangles and points, intersection/stabbing searches, statistics, the
skeleton variant, and persistence through the paged storage layer.
"""

import tempfile
from pathlib import Path

from repro import (
    IndexConfig,
    Rect,
    SkeletonSRTree,
    SRTree,
    check_index,
    open_store,
    point,
    segment,
)
from repro.storage import FileDisk


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A plain SR-Tree with the paper's parameters (1 KB leaf pages,
    #    node size doubling, 2/3 branch reservation).
    # ------------------------------------------------------------------
    tree = SRTree(IndexConfig())

    # Horizontal segments: an interval in X at a point in Y — the shape of
    # historical data (Figure 1 in the paper).
    alice = tree.insert(segment(1985.0, 1988.5, 30_000.0), payload="alice@30K")
    tree.insert(segment(1988.5, 1991.0, 45_000.0), payload="alice@45K")
    tree.insert(segment(1986.0, 1990.0, 20_000.0), payload="bob@20K")

    # Arbitrary boxes and points insert through the same method.
    tree.insert(Rect((1987.0, 10_000.0), (1989.0, 50_000.0)), payload="audit-window")
    tree.insert(point(1990.0, 45_000.0), payload="raise-event")

    # ------------------------------------------------------------------
    # 2. Searches: intersection queries and point stabs.
    # ------------------------------------------------------------------
    q = Rect((1986.5, 15_000.0), (1987.5, 35_000.0))
    print("who earned 15K-35K during 1986.5-1987.5?")
    for record_id, payload in tree.search(q):
        print(f"  record {record_id}: {payload}")

    print("what intersects the time=1990 line?")
    for _, payload in tree.search(Rect((1990.0, 0.0), (1990.0, 100_000.0))):
        print(f"  {payload}")

    # Per-query cost (the paper's metric: nodes accessed).
    _, stats = tree.search_with_stats(q)
    print(f"last search touched {stats.nodes_accessed} index nodes")

    # ------------------------------------------------------------------
    # 3. Records can be deleted by id (the original rect speeds it up).
    # ------------------------------------------------------------------
    tree.delete(alice, hint=segment(1985.0, 1988.5, 30_000.0))
    print(f"after delete: {len(tree)} records")
    check_index(tree)  # structural invariants hold

    # ------------------------------------------------------------------
    # 4. A Skeleton SR-Tree pre-partitions the domain; with distribution
    #    prediction it buffers the first inserts, learns histograms, then
    #    builds itself (Section 4 of the paper).
    # ------------------------------------------------------------------
    skeleton = SkeletonSRTree(
        expected_tuples=10_000,
        domain=[(0.0, 100_000.0), (0.0, 100_000.0)],
        prediction_fraction=0.05,
    )
    import random

    rng = random.Random(0)
    for i in range(10_000):
        x0 = rng.uniform(0, 99_000)
        length = rng.expovariate(1 / 2000.0)
        y = rng.uniform(0, 100_000)
        skeleton.insert(segment(x0, min(x0 + length, 100_000.0), y), payload=i)
    print(
        f"skeleton index: {len(skeleton)} records, height {skeleton.height}, "
        f"{skeleton.stats.spanning_placements} spanning records, "
        f"{skeleton.stats.coalesces} coalesces"
    )

    # ------------------------------------------------------------------
    # 5. Paged storage: buffer-pool behaviour + persistence.  open_store
    #    composes disk, buffer pool and serving engine (pass a
    #    WriteAheadLog too for durable commits between checkpoints).
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.db"
        with open_store(FileDisk(path), tree=skeleton, buffer_bytes=64 * 1024) as store:
            store.engine.search(Rect((0.0, 0.0), (5_000.0, 100_000.0)))
            print(f"io after one search: {store.manager.io_summary()}")
            store.manager.checkpoint()
        with open_store(FileDisk(path)) as store:  # the same pages, none rewritten
            print(
                f"reopened from disk: {len(store.engine)} records, "
                f"{store.manager.disk.stats.writes} pages written by the open"
            )


if __name__ == "__main__":
    main()
