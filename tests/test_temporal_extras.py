"""Tests for temporal analytics over the historical store."""

import pytest

from repro.exceptions import WorkloadError
from repro.historical import HistoricalStore


class TestTemporalAnalytics:
    def _store(self):
        store = HistoricalStore()
        store.record("alice", 30_000, 1980.0)
        store.record("alice", 40_000, 1985.0)
        store.record("bob", 20_000, 1982.0)
        store.close("bob", 1988.0)
        return store

    def test_as_of_map(self):
        store = self._store()
        assert store.as_of_map(1983.0) == {"alice": 30_000.0, "bob": 20_000.0}
        assert store.as_of_map(1989.0) == {"alice": 40_000.0}
        # At the transition instant the newer version wins.
        assert store.as_of_map(1985.0)["alice"] == 40_000.0

    def test_changes_window(self):
        store = self._store()
        events = store.changes(1981.0, 1986.0)
        assert [(v.key, v.value) for v in events] == [
            ("bob", 20_000.0),
            ("alice", 40_000.0),
        ]

    def test_changes_with_value_filter(self):
        store = self._store()
        events = store.changes(1980.0, 1990.0, value_low=35_000)
        assert [(v.key, v.value) for v in events] == [("alice", 40_000.0)]

    def test_time_weighted_average_single_key(self):
        store = self._store()
        # Alice: 30K over [1980,1985], 40K over [1985,1990] -> 35K average.
        avg = store.time_weighted_average(1980.0, 1990.0, key="alice")
        assert avg == pytest.approx(35_000.0)

    def test_time_weighted_average_all_keys(self):
        store = self._store()
        # Windows: alice 30K x 2y; bob 20K x 1y (closed at 1988 but window
        # ends 1984).
        avg = store.time_weighted_average(1982.0, 1984.0)
        assert avg == pytest.approx((30_000 * 2 + 20_000 * 2) / 4)

    def test_time_weighted_average_empty_window(self):
        store = HistoricalStore()
        assert store.time_weighted_average(0.0, 1.0) == 0.0
        with pytest.raises(WorkloadError):
            store.time_weighted_average(5.0, 5.0)

    def test_count_valid_at(self):
        store = self._store()
        assert store.count_valid_at(1983.0) == 2
        assert store.count_valid_at(1989.0) == 1
        assert store.count_valid_at(1970.0) == 0

    def test_store_and_timetravel_agree(self):
        """The disk-oriented store answers as-of reads like a replay of
        the same update stream into a plain dict."""
        import random

        rng = random.Random(5)
        store = HistoricalStore()
        updates = []
        t = 0.0
        for _ in range(300):
            t += rng.uniform(0.01, 1.0)
            key = f"k{rng.randrange(12)}"
            value = round(rng.uniform(0, 100_000), 2)
            store.record(key, value, t)
            updates.append((t, key, value))
        for probe in [t * f for f in (0.1, 0.3, 0.5, 0.8, 1.0)]:
            want = {key: value for at, key, value in updates if at <= probe}
            assert store.as_of_map(probe) == want
