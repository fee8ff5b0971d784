"""Tests for the rule-lock index (paper Section 2.2)."""

import random

import pytest

from repro import IndexConfig, check_index
from repro.exceptions import WorkloadError
from repro.rules import RuleLock, RuleLockIndex


class TestPaperExample:
    """The office-assignment rules from Section 2.2."""

    def setup_method(self):
        self.locks = RuleLockIndex()
        # Rule 1: 10K < salary <= 20K -> at least 1 window
        self.locks.lock_range("rule1", 10_000, 20_000)
        # Rule 2: salary = 100K -> at least 4 windows
        self.locks.lock_point("rule2", 100_000)

    def test_interval_rule_triggers(self):
        assert [l.rule_id for l in self.locks.locks_for_value(15_000)] == ["rule1"]

    def test_point_rule_triggers_only_on_equality(self):
        assert [l.rule_id for l in self.locks.locks_for_value(100_000)] == ["rule2"]
        assert self.locks.locks_for_value(99_999.99) == []

    def test_no_rule_triggers(self):
        assert self.locks.locks_for_value(50_000) == []


class TestLockManagement:
    def test_unlock(self):
        locks = RuleLockIndex()
        h = locks.lock_range("r", 0, 10)
        assert len(locks) == 1
        assert locks.unlock(h) is True
        assert len(locks) == 0
        assert locks.locks_for_value(5) == []
        assert locks.unlock(h) is False

    def test_second_unlock_false_without_corrupting_state(self):
        locks = RuleLockIndex()
        h1 = locks.lock_range("r1", 0, 10)
        h2 = locks.lock_range("r2", 20, 30)
        assert locks.unlock(h1) is True
        assert locks.unlock(h1) is False  # second unlock: clean refusal
        # The surviving lock is untouched by the refused unlock.
        assert len(locks) == 1
        assert [l.rule_id for l in locks.locks_for_value(25)] == ["r2"]
        assert locks.unlock(h2) is True
        assert len(locks) == 0

    def test_failed_tree_delete_keeps_handle_entry(self, monkeypatch):
        locks = RuleLockIndex()
        h = locks.lock_range("r", 0, 10)
        # If the tree delete removes nothing, unlock must report failure
        # and keep the handle entry so a retry can still succeed (the old
        # pop-before-delete ordering stranded the lock forever).
        monkeypatch.setattr(locks._tree, "delete", lambda *a, **k: 0)
        assert locks.unlock(h) is False
        assert len(locks) == 1
        monkeypatch.undo()
        assert locks.unlock(h) is True
        assert len(locks) == 0
        assert locks.locks_for_value(5) == []

    def test_inverted_range_rejected(self):
        locks = RuleLockIndex()
        with pytest.raises(WorkloadError):
            locks.lock_range("r", 10, 0)

    def test_multi_dim_config_rejected(self):
        with pytest.raises(WorkloadError):
            RuleLockIndex(IndexConfig(dims=2))

    def test_locks_for_range(self):
        locks = RuleLockIndex()
        locks.lock_range("a", 0, 10)
        locks.lock_range("b", 20, 30)
        locks.lock_point("c", 15)
        got = {l.rule_id for l in locks.locks_for_range(5, 22)}
        assert got == {"a", "b", "c"}

    def test_conflicting_modes(self):
        locks = RuleLockIndex()
        locks.lock_range("shared1", 0, 10, mode="shared")
        locks.lock_range("excl1", 5, 15, mode="exclusive")
        # Exclusive acquisition conflicts with everything it overlaps.
        assert {l.rule_id for l in locks.conflicting(0, 20, "exclusive")} == {
            "shared1",
            "excl1",
        }
        # Shared acquisition only conflicts with exclusive locks.
        assert {l.rule_id for l in locks.conflicting(0, 20, "shared")} == {"excl1"}

    def test_unknown_mode_rejected(self):
        # A mistyped mode must not be silently treated as shared.
        locks = RuleLockIndex()
        with pytest.raises(WorkloadError):
            locks.lock_range("w", 10, 20, mode="Exclusive")
        with pytest.raises(WorkloadError):
            locks.lock_point("w", 10, mode="excl")
        assert len(locks) == 0
        locks.lock_range("w", 10, 20, mode="exclusive")
        with pytest.raises(WorkloadError):
            locks.conflicting(12, 13, mode="Shared")


class TestEscalation:
    def test_broad_locks_escalate(self):
        cfg = IndexConfig(dims=1, leaf_node_bytes=200)
        locks = RuleLockIndex(cfg)
        rng = random.Random(1)
        # Many narrow locks build structure; broad locks must escalate.
        for i in range(500):
            lo = rng.uniform(0, 99_000)
            locks.lock_range(f"narrow{i}", lo, lo + rng.uniform(0, 50))
        for i in range(20):
            lo = rng.uniform(0, 30_000)
            locks.lock_range(f"broad{i}", lo, lo + rng.uniform(40_000, 70_000))
        escalated = list(locks.escalated_locks())
        assert escalated, "broad locks should be promoted above the leaves"
        assert any(lock.rule_id.startswith("broad") for _, lock in escalated)
        assert 0 < locks.escalation_ratio() < 1
        check_index(locks.index)

    def test_probe_correctness_with_escalation(self):
        cfg = IndexConfig(dims=1, leaf_node_bytes=200)
        locks = RuleLockIndex(cfg)
        rng = random.Random(2)
        spec = []
        for i in range(400):
            lo = rng.uniform(0, 90_000)
            hi = lo + (rng.uniform(0, 30) if i % 3 else rng.uniform(20_000, 60_000))
            hi = min(hi, 100_000)
            locks.lock_range(i, lo, hi)
            spec.append((lo, hi, i))
        for _ in range(300):
            v = rng.uniform(0, 100_000)
            want = {rid for lo, hi, rid in spec if lo <= v <= hi}
            got = {l.rule_id for l in locks.locks_for_value(v)}
            assert got == want


class TestRuleLockDataclass:
    def test_is_point(self):
        assert RuleLock("r", 5.0, 5.0).is_point
        assert not RuleLock("r", 5.0, 6.0).is_point
