"""Unit tests for the DES kernel and core bank."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.resources import CoreBank


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, order.append, "b")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(3.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 3.0
        assert sim.events_processed == 3

    def test_ties_break_by_scheduling_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "first")
        sim.schedule(1.0, order.append, "second")
        sim.run()
        assert order == ["first", "second"]

    def test_schedule_during_run(self):
        sim = Simulator()
        order = []

        def chain():
            order.append("root")
            sim.schedule_after(1.0, order.append, "child")

        sim.schedule(1.0, chain)
        sim.run()
        assert order == ["root", "child"]
        assert sim.now == 2.0

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule(1.0, lambda: None)

    @pytest.mark.parametrize("time", [float("nan"), float("inf")])
    def test_cannot_schedule_at_non_finite_time(self, time):
        # ``time < now`` is False for NaN: the event used to be accepted
        # and then ran *first*, ahead of every finite-time event.
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(time, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_after(time, lambda: None)
        assert sim.pending_events == 0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule_after(-1.0, lambda: None)

    def test_run_until_leaves_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(10.0, fired.append, 10)
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        assert sim.pending_events == 1
        sim.run()
        assert fired == [1, 10]

    def test_run_until_keeps_tie_order_of_deferred_events(self):
        sim = Simulator()
        fired = []
        for label in "abc":
            sim.schedule(10.0, fired.append, label)
        sim.run(until=5.0)
        sim.run(until=7.0)
        assert fired == []
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_run_until_beyond_last_event_advances_clock(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(until=100.0)
        assert sim.now == 100.0

    @pytest.mark.parametrize(
        "drive",
        [
            lambda sim: sim.run(),
            lambda sim: sim.run(until=10.0),
            lambda sim: [None for _ in iter(sim.step, False)],
        ],
        ids=["run", "run_until", "step"],
    )
    def test_cancelled_event_neither_runs_nor_counts(self, drive):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "kept")
        handle = sim.schedule(2.0, fired.append, "cancelled")
        sim.schedule(3.0, fired.append, "last")
        handle.cancel()
        assert handle.cancelled
        drive(sim)
        assert fired == ["kept", "last"]
        assert sim.events_processed == 2
        assert sim.pending_events == 0

    def test_cancelled_head_does_not_advance_clock_past_until(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None).cancel()
        sim.schedule(8.0, lambda: None)
        sim.run(until=5.0)
        assert sim.now == 5.0
        assert sim.events_processed == 0
        assert sim.pending_events == 1

    def test_cancel_from_a_callback(self):
        sim = Simulator()
        fired = []
        later = sim.schedule(2.0, fired.append, "later")
        sim.schedule(1.0, later.cancel)
        sim.run()
        assert fired == []
        assert sim.events_processed == 1

    def test_cancel_after_firing_is_a_no_op(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "once")
        sim.run()
        handle.cancel()
        handle.cancel()
        sim.run()
        assert fired == ["once"]
        assert sim.events_processed == 1

    @pytest.mark.parametrize("until", [None, 10.0])
    def test_events_processed_exact_when_a_callback_raises(self, until):
        sim = Simulator()
        fired = []

        def boom():
            raise RuntimeError("callback failed")

        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, boom)
        sim.schedule(3.0, fired.append, 3)
        with pytest.raises(RuntimeError):
            sim.run(until=until)
        assert sim.events_processed == 2
        assert sim.now == 2.0
        assert sim.pending_events == 1
        sim.run(until=until)
        assert fired == [1, 3]
        assert sim.events_processed == 3

    def test_step(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "x")
        assert sim.step() is True
        assert fired == ["x"]
        assert sim.step() is False


class TestCoreBank:
    def test_idle_core_starts_immediately(self):
        bank = CoreBank(2)
        start, end = bank.submit(5.0, 1.0)
        assert start == 5.0
        assert end == 6.0

    def test_parallel_tasks_use_separate_cores(self):
        bank = CoreBank(2)
        _, end_a = bank.submit(0.0, 1.0)
        _, end_b = bank.submit(0.0, 1.0)
        assert end_a == 1.0
        assert end_b == 1.0

    def test_third_task_queues(self):
        bank = CoreBank(2)
        bank.submit(0.0, 1.0)
        bank.submit(0.0, 1.0)
        start, end = bank.submit(0.0, 1.0)
        assert start == 1.0
        assert end == 2.0

    def test_fcfs_order(self):
        bank = CoreBank(1)
        _, end_a = bank.submit(0.0, 2.0)
        start_b, _ = bank.submit(0.5, 1.0)
        assert start_b == end_a

    def test_speed_scales_duration(self):
        bank = CoreBank(1, speed=0.5)
        start, end = bank.submit(0.0, 1.0)
        assert end - start == pytest.approx(2.0)

    def test_out_of_order_submission_rejected(self):
        bank = CoreBank(1)
        bank.submit(5.0, 1.0)
        with pytest.raises(ValueError):
            bank.submit(4.0, 1.0)

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            CoreBank(1).submit(0.0, -1.0)

    def test_zero_demand_allowed(self):
        start, end = CoreBank(1).submit(1.0, 0.0)
        assert start == end == 1.0

    def test_utilization(self):
        bank = CoreBank(2)
        bank.submit(0.0, 1.0)
        bank.submit(0.0, 1.0)
        assert bank.utilization(2.0) == pytest.approx(0.5)
        assert bank.busy_time == pytest.approx(2.0)

    def test_utilization_accounts_speed(self):
        bank = CoreBank(1, speed=2.0)
        bank.submit(0.0, 4.0)  # runs for 2 wall seconds
        assert bank.utilization(4.0) == pytest.approx(0.5)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            CoreBank(0)
        with pytest.raises(ValueError):
            CoreBank(1, speed=0)

    def test_next_free_time(self):
        bank = CoreBank(2)
        bank.submit(0.0, 3.0)
        assert bank.next_free_time() == 0.0
        bank.submit(0.0, 1.0)
        assert bank.next_free_time() == 1.0
