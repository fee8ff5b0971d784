"""Configuration shared by every index in the family.

The paper's experimental setup (Section 5) maps onto the defaults here:

* leaf node size 1 KB, doubled at each successive level (all index types);
* SR-Trees reserve 2/3 of non-leaf node entries for branches, leaving 1/3
  for spanning index records;
* coalescing checked every 1 000 insertions among the 10 least frequently
  modified nodes (skeleton indexes).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ConfigError

__all__ = ["DOMAIN", "DOMAIN_HIGH", "IndexConfig", "NODE_HEADER_BYTES", "PAGE_HEADER_BYTES"]

#: The paper's domain upper bound in every dimension (Section 5).
DOMAIN_HIGH = 100_000.0

#: The experiment domain: [0, 100K] in both dimensions (here, not with the
#: generators that fill it: the serving tier bounds its shards by it).
DOMAIN: list[tuple[float, float]] = [(0.0, DOMAIN_HIGH), (0.0, DOMAIN_HIGH)]

#: Bytes of per-node header (level, dims, entry count) — see
#: repro.storage.serializer for the physical layout.
NODE_HEADER_BYTES = 4

#: Bytes of per-page integrity header (magic, generation, CRC32) that the
#: serializer prepends to every page image so bit-flips and torn writes are
#: detected on read instead of silently deserialized.
PAGE_HEADER_BYTES = 12


@dataclass(frozen=True)
class IndexConfig:
    """Tuning knobs for the R-Tree / SR-Tree family.

    Attributes:
        dims: Number of dimensions K (>= 1).
        leaf_node_bytes: Page size of leaf nodes (paper: 1 KB).
        entry_bytes: Bytes consumed by one entry.  Branch entries and data
            entries have the same footprint: 2K coordinates plus a child
            pointer / record reference.  With K=2 and 8-byte floats this is
            4*8 + 8 = 40 bytes.
        node_size_doubling: When True (the paper's tactic 2, Section 2.1.2)
            a node at level L occupies ``leaf_node_bytes * 2**L``; when
            False every node has the leaf size.
        max_level_for_doubling: Levels above this use the same size as this
            level, bounding page growth for very tall trees.
        branch_fraction: Fraction of a non-leaf node's entry slots reserved
            for branches in an SR-Tree (paper: 2/3; Section 4 also suggests
            1/2 and 3/4).  Plain R-Trees ignore this.
        min_fill: Guttman's minimum node fill factor m/M used by the node
            split algorithms.
        split_algorithm: "quadratic" (paper/Guttman default) or "linear".
        coalesce_interval: Skeleton indexes look for nodes to coalesce after
            every this many insertions (paper: 1000).  ``0`` disables
            coalescing.
        coalesce_candidates: Number of least-frequently-modified leaf nodes
            examined by each coalescing pass (paper: 10).
        spanning_overflow_policy: What an SR-Tree does when a spanning
            insert finds the node's spanning area full: "split" the node
            (the paper's "overflow due to an attempt to insert ... a
            spanning index record", which lets the non-leaf level grow) or
            let the record "descend" towards the leaves.  "descend" keeps
            the index smaller; "split" stores more records high up.
    """

    dims: int = 2
    leaf_node_bytes: int = 1024
    entry_bytes: int = 40
    node_size_doubling: bool = True
    max_level_for_doubling: int = 8
    branch_fraction: float = 2.0 / 3.0
    min_fill: float = 0.4
    split_algorithm: str = "quadratic"
    coalesce_interval: int = 1000
    coalesce_candidates: int = 10
    spanning_overflow_policy: str = "descend"

    def __post_init__(self) -> None:
        if self.dims < 1:
            raise ConfigError("dims must be >= 1")
        if self.leaf_node_bytes < 2 * self.entry_bytes:
            raise ConfigError("leaf nodes must hold at least two entries")
        if not 0.0 < self.branch_fraction <= 1.0:
            raise ConfigError("branch_fraction must be in (0, 1]")
        if not 0.0 < self.min_fill <= 0.5:
            raise ConfigError("min_fill must be in (0, 0.5]")
        if self.split_algorithm not in ("quadratic", "linear", "rstar"):
            raise ConfigError(f"unknown split algorithm {self.split_algorithm!r}")
        if self.coalesce_interval < 0:
            raise ConfigError("coalesce_interval must be >= 0")
        if self.coalesce_candidates < 1:
            raise ConfigError("coalesce_candidates must be >= 1")
        if self.spanning_overflow_policy not in ("split", "descend"):
            raise ConfigError(
                f"unknown spanning overflow policy {self.spanning_overflow_policy!r}"
            )

    def node_bytes(self, level: int) -> int:
        """Page size of a node at ``level`` (0 = leaf)."""
        if not self.node_size_doubling:
            return self.leaf_node_bytes
        capped = min(level, self.max_level_for_doubling)
        return self.leaf_node_bytes * (2 ** capped)

    def capacity(self, level: int) -> int:
        """Total entry slots available on a node at ``level`` (the page
        minus its integrity and node headers, divided by the entry
        footprint)."""
        usable = self.node_bytes(level) - NODE_HEADER_BYTES - PAGE_HEADER_BYTES
        return usable // self.entry_bytes

    def branch_capacity(self, level: int, segment_index: bool) -> int:
        """Planned branch fanout of a non-leaf node.

        Plain R-Trees plan for every slot to hold a branch; SR-Trees plan
        for ``branch_fraction`` of the slots (Section 5: 2/3 branches, 1/3
        spanning records).  This drives skeleton sizing (Section 4: "the
        fanout at each level is a function of the node size and the number
        of node entries that are reserved for node branch entries").  It is
        a *plan*, not a hard limit: a node whose spanning area is unused can
        fill every slot with branches, which is why an SR-Tree holding no
        spanning records behaves identically to the R-Tree (Graphs 1, 2, 5).
        """
        total = self.capacity(level)
        if not segment_index or level == 0:
            return total
        return max(2, int(total * self.branch_fraction))

    def spanning_capacity(self, level: int) -> int:
        """Maximum spanning records an SR-Tree non-leaf node may hold
        (the reserved ``1 - branch_fraction`` share of its slots)."""
        if level == 0:
            return 0
        total = self.capacity(level)
        return max(1, total - max(2, int(total * self.branch_fraction)))

    def min_entries(self, level: int) -> int:
        """Guttman's m: minimum entries per node after a split."""
        return max(1, int(self.capacity(level) * self.min_fill))
