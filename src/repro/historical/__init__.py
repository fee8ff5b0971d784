"""Historical (temporal) data management over Segment Indexes (Figure 1)."""

from .store import HistoricalStore, Version

__all__ = ["HistoricalStore", "Version"]
