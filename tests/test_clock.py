"""SimClock accounting semantics."""

import pytest

from repro.device import SimClock


class TestAdvance:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(start=5.0).now == 5.0

    def test_advance_moves_time(self):
        clock = SimClock()
        clock.advance(1.5)
        assert clock.now == pytest.approx(1.5)

    def test_advance_accumulates_busy_per_component(self):
        clock = SimClock()
        clock.advance(1.0, component="cpu")
        clock.advance(2.0, component="gpu")
        clock.advance(0.5, component="cpu")
        assert clock.busy_seconds("cpu") == pytest.approx(1.5)
        assert clock.busy_seconds("gpu") == pytest.approx(2.0)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    def test_unknown_component_busy_is_zero(self):
        assert SimClock().busy_seconds("nope") == 0.0


class TestBackground:
    def test_background_does_not_advance_time(self):
        clock = SimClock()
        clock.charge_background(3.0, component="ssd")
        assert clock.now == 0.0

    def test_background_counts_as_busy(self):
        clock = SimClock()
        clock.charge_background(3.0, component="ssd")
        assert clock.busy_seconds("ssd") == pytest.approx(3.0)

    def test_negative_background_rejected(self):
        with pytest.raises(ValueError):
            SimClock().charge_background(-0.1)


class TestDrain:
    def test_drain_hides_backlog_behind_foreground(self):
        clock = SimClock()
        clock.advance(5.0)
        clock.charge_background(3.0)
        assert clock.drain() == pytest.approx(0.0)
        assert clock.now == pytest.approx(5.0)

    def test_drain_charges_excess_backlog(self):
        clock = SimClock()
        clock.advance(1.0)
        clock.charge_background(3.0)
        stalled = clock.drain()
        assert stalled == pytest.approx(2.0)
        assert clock.now == pytest.approx(3.0)

    def test_drain_clears_backlog(self):
        clock = SimClock()
        clock.charge_background(3.0)
        clock.drain()
        assert clock.drain() == pytest.approx(0.0)


class TestDrainStep:
    def test_within_window_is_hidden(self):
        clock = SimClock()
        clock.advance(2.0)
        clock.charge_background(1.0)
        assert clock.drain_step(max_carry_seconds=0.0) == pytest.approx(0.0)

    def test_carry_defers_backlog(self):
        clock = SimClock()
        clock.advance(0.5)
        clock.charge_background(2.0)
        stalled = clock.drain_step(max_carry_seconds=10.0)
        assert stalled == pytest.approx(0.0)  # carried, not stalled

    def test_excess_beyond_carry_stalls(self):
        clock = SimClock()
        clock.advance(0.5)
        clock.charge_background(2.0)
        stalled = clock.drain_step(max_carry_seconds=1.0)
        assert stalled == pytest.approx(0.5)  # 2.0 - 0.5 hidden - 1.0 carry

    def test_carry_is_hidden_by_later_steps(self):
        clock = SimClock()
        clock.advance(0.1)
        clock.charge_background(1.0)
        clock.drain_step(max_carry_seconds=5.0)
        clock.advance(2.0)  # a long later step
        assert clock.drain_step(max_carry_seconds=5.0) == pytest.approx(0.0)
        assert clock.drain() == pytest.approx(0.0)

    def test_negative_carry_rejected(self):
        with pytest.raises(ValueError):
            SimClock().drain_step(-1.0)


class TestSnapshotRestore:
    def test_restore_rewinds_time_and_busy(self):
        clock = SimClock()
        clock.advance(1.0, "cpu")
        state = clock.snapshot()
        clock.advance(9.0, "gpu")
        clock.charge_background(4.0)
        clock.restore(state)
        assert clock.now == pytest.approx(1.0)
        assert clock.busy_seconds("gpu") == 0.0
        assert clock.drain() == pytest.approx(0.0)

    def test_reset_zeroes_everything(self):
        clock = SimClock()
        clock.advance(1.0)
        clock.charge_background(1.0)
        clock.reset()
        assert clock.now == 0.0
        assert clock.components() == {}


class TestRepeatedCharges:
    """A batched charge is the loop's additions in the loop's order: the
    simulated clock is compared bit for bit, and float sums are not
    associative."""

    COST = 80e-6 + 4096 / 1024e6  # one random 4 KiB read

    def test_advance_each_equals_that_many_advances(self):
        looped, batched = SimClock(start=0.123), SimClock(start=0.123)
        for clock in (looped, batched):
            clock.advance(0.7e-6, component="ssd")
        for _ in range(2309):
            looped.advance(self.COST, component="ssd")
        batched.advance_each(self.COST, 2309, component="ssd")
        assert batched.now == looped.now
        assert batched.busy_seconds("ssd") == looped.busy_seconds("ssd")
        # ... which one multiplication does not reproduce.
        assert looped.now != 0.123 + 0.7e-6 + 2309 * self.COST

    def test_charge_background_each_equals_that_many_charges(self):
        looped, batched = SimClock(), SimClock()
        for _ in range(1950):
            looped.charge_background(self.COST / 32, component="ssd")
        batched.charge_background_each(self.COST / 32, 1950, component="ssd")
        assert batched.now == looped.now == 0.0
        assert batched.busy_seconds("ssd") == looped.busy_seconds("ssd")
        assert batched.drain() == looped.drain()
        assert batched.now == looped.now

    def test_zero_count_charges_nothing(self):
        clock = SimClock()
        clock.advance_each(1.0, 0)
        clock.charge_background_each(1.0, 0)
        assert clock.now == clock.busy_seconds("cpu") == clock.busy_seconds("ssd") == 0.0

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance_each(-1.0, 3)
        with pytest.raises(ValueError):
            SimClock().charge_background_each(-1.0, 3)
