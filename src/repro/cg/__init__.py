"""Main-memory Computational Geometry structures (paper Section 1).

These are the binary-tree ancestors the Segment Index borrows from:
the Segment Tree contributes the spanning-storage idea; the Interval Tree
is the classic alternative for 1-D stabbing queries.  Both also serve as
correctness oracles in the test suite.
"""

from .interval_tree import IntervalTree
from .priority_search_tree import PrioritySearchTree
from .segment_tree import SegmentTree

__all__ = [
    "IntervalTree",
    "PrioritySearchTree",
    "SegmentTree",
]
