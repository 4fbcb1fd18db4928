"""Wall-clock budgets, driven by an injected fake clock."""

import pytest

from repro.robust.budget import (
    Budget,
    CancelFlag,
    ambient_budget,
    cancel_scope,
    cancelled,
)


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class TestUnlimited:
    def test_never_expires(self):
        clock = FakeClock()
        budget = Budget(None, clock=clock)
        clock.advance(1e9)
        assert not budget.expired
        assert budget.remaining() == float("inf")

    def test_unlimited_constructor(self):
        assert not Budget().expired

    def test_elapsed_tracks_clock(self):
        clock = FakeClock(5.0)
        budget = Budget(None, clock=clock)
        clock.advance(2.5)
        assert budget.elapsed() == 2.5


class TestExpiry:
    def test_expires_at_deadline(self):
        clock = FakeClock()
        budget = Budget(1.0, clock=clock)
        assert not budget.expired
        clock.advance(0.999)
        assert not budget.expired
        clock.advance(0.001)
        assert budget.expired

    def test_remaining_clamps_to_zero(self):
        clock = FakeClock()
        budget = Budget(1.0, clock=clock)
        clock.advance(5.0)
        assert budget.remaining() == 0.0

    def test_zero_budget_expires_immediately(self):
        assert Budget(0.0, clock=FakeClock()).expired

    def test_negative_seconds_rejected(self):
        with pytest.raises(ValueError):
            Budget(-1.0)


class TestChild:
    def test_child_clamped_to_parent_remaining(self):
        clock = FakeClock()
        parent = Budget(1.0, clock=clock)
        clock.advance(0.75)
        child = parent.child(10.0)
        assert child.seconds == pytest.approx(0.25)

    def test_child_inherits_remaining_when_unspecified(self):
        clock = FakeClock()
        parent = Budget(2.0, clock=clock)
        clock.advance(0.5)
        child = parent.child()
        assert child.seconds == pytest.approx(1.5)

    def test_child_of_unlimited_parent(self):
        parent = Budget(None, clock=FakeClock())
        assert parent.child().seconds is None
        assert parent.child(3.0).seconds == 3.0

    def test_child_shares_clock(self):
        clock = FakeClock()
        child = Budget(10.0, clock=clock).child(1.0)
        clock.advance(1.5)
        assert child.expired


class TestCancellation:
    """The CancelFlag sentinel and its Budget/ambient integration."""

    def _flag(self, tmp_path, clock):
        return CancelFlag(
            str(tmp_path / "job.cancel"), poll_seconds=0.05, clock=clock
        )

    def test_set_creates_sentinel_and_latches(self, tmp_path):
        clock = FakeClock()
        flag = self._flag(tmp_path, clock)
        assert not flag.is_set()
        flag.set()
        clock.advance(0.1)
        assert flag.is_set()
        # latched: the file can disappear, the observation stands
        import os

        os.remove(flag.path)
        assert flag.is_set()

    def test_clear_resets_the_latch(self, tmp_path):
        clock = FakeClock()
        flag = self._flag(tmp_path, clock)
        flag.set()
        clock.advance(0.1)
        assert flag.is_set()
        flag.clear()
        assert not flag.is_set()

    def test_polls_are_throttled(self, tmp_path, monkeypatch):
        clock = FakeClock()
        flag = self._flag(tmp_path, clock)
        calls = []
        import os.path as osp

        real_exists = osp.exists
        monkeypatch.setattr(
            "os.path.exists", lambda p: calls.append(p) or real_exists(p)
        )
        for _ in range(100):
            flag.is_set()  # clock frozen: only the first call may stat
        assert len(calls) == 1
        clock.advance(0.06)
        flag.is_set()
        assert len(calls) == 2

    def test_scope_installs_and_restores(self, tmp_path):
        clock = FakeClock()
        flag = self._flag(tmp_path, clock)
        assert not cancelled()
        with cancel_scope(flag):
            assert not cancelled()
            flag.set()
            clock.advance(0.1)
            assert cancelled()
        assert not cancelled()

    def test_scopes_nest(self, tmp_path):
        clock = FakeClock()
        outer = self._flag(tmp_path, clock)
        outer.set()
        clock.advance(0.1)
        with cancel_scope(outer):
            assert cancelled()
            with cancel_scope(None):
                assert not cancelled()
            assert cancelled()

    def test_ambient_budget_requires_a_flag(self, tmp_path):
        assert ambient_budget() is None
        with cancel_scope(self._flag(tmp_path, FakeClock())):
            budget = ambient_budget()
            assert budget is not None and budget.seconds is None

    def test_cancellation_expires_every_budget(self, tmp_path):
        clock = FakeClock()
        flag = self._flag(tmp_path, clock)
        with cancel_scope(flag):
            unlimited = Budget(None, clock=clock)
            timed = Budget(100.0, clock=clock)
            assert not unlimited.expired and not timed.expired
            flag.set()
            clock.advance(0.1)
            assert unlimited.expired and timed.expired
