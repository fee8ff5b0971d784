"""Rule locks on a 1-D Segment Index (Section 2.2)."""

from .locks import RuleLock, RuleLockIndex

__all__ = ["RuleLock", "RuleLockIndex"]
