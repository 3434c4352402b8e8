"""Tests for stop-the-world pause injection."""

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.hiccups import HiccupConfig, HiccupSchedule
from repro.sim.resources import CoreBank


def schedule(mean_interval=1.0, pause=0.1, sigma=0.0, seed=0):
    return HiccupSchedule(
        HiccupConfig(
            mean_interval=mean_interval,
            pause_duration=pause,
            duration_sigma=sigma,
        ),
        np.random.default_rng(seed),
    )


def walk(sched, start, busy_seconds):
    """Reference: the task walked over every pause, with no shortcut."""
    sched._extend_past(start)
    index = bisect_right(sched._ends, start)
    clock = start
    if index < len(sched._starts) and sched._starts[index] <= clock:
        clock = sched._ends[index]
        index += 1
    actual_start = clock
    remaining = busy_seconds
    while remaining > 0:
        sched._extend_past(clock + remaining)
        if (
            index < len(sched._starts)
            and sched._starts[index] < clock + remaining
        ):
            remaining -= sched._starts[index] - clock
            clock = sched._ends[index]
            index += 1
        else:
            clock += remaining
            remaining = 0.0
    return actual_start, clock


class TestHiccupConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            HiccupConfig(mean_interval=0.0, pause_duration=0.1)
        with pytest.raises(ValueError):
            HiccupConfig(mean_interval=1.0, pause_duration=0.0)
        with pytest.raises(ValueError):
            HiccupConfig(
                mean_interval=1.0, pause_duration=0.1, duration_sigma=-1.0
            )


class TestHiccupSchedule:
    def test_pauses_never_overlap(self):
        pauses = schedule(mean_interval=0.05, pause=0.1).pauses_up_to(20.0)
        assert len(pauses) > 10
        for (_, end), (next_start, _) in zip(pauses, pauses[1:]):
            assert next_start >= end

    def test_deterministic(self):
        first = schedule(seed=3).pauses_up_to(50.0)
        second = schedule(seed=3).pauses_up_to(50.0)
        assert first == second

    def test_fixed_durations(self):
        for start, end in schedule(pause=0.07).pauses_up_to(30.0):
            assert end - start == pytest.approx(0.07)

    def test_lognormal_durations_vary(self):
        durations = [
            end - start
            for start, end in schedule(sigma=0.5, seed=5).pauses_up_to(100.0)
        ]
        assert np.std(durations) > 0
        assert np.mean(durations) == pytest.approx(0.1, rel=0.3)

    def test_execute_no_pause_in_window(self):
        # First pause of seed-0/interval-1000 starts far out.
        sched = schedule(mean_interval=1_000.0)
        start, end = sched.execute(0.0, 1.0)
        assert start == 0.0
        assert end == pytest.approx(1.0)

    def test_execute_spans_pause(self):
        sched = schedule(mean_interval=1.0, pause=0.1, seed=0)
        pauses = sched.pauses_up_to(10.0)
        pause_start, pause_end = pauses[0]
        # Start just before the pause with work that crosses it.
        begin = pause_start - 0.05
        start, end = sched.execute(begin, 0.2)
        assert start == begin
        assert end == pytest.approx(begin + 0.2 + 0.1)

    def test_execute_start_inside_pause_is_deferred(self):
        sched = schedule(mean_interval=1.0, pause=0.1, seed=0)
        pause_start, pause_end = sched.pauses_up_to(10.0)[0]
        start, end = sched.execute(pause_start + 0.02, 0.0)
        assert start == pytest.approx(pause_end)
        assert end == start

    def test_execute_negative_rejected(self):
        with pytest.raises(ValueError):
            schedule().execute(0.0, -1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        begin=st.floats(min_value=0.0, max_value=50.0),
        busy=st.floats(min_value=0.0, max_value=5.0),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_execute_invariants(self, begin, busy, seed):
        """End - start ≥ busy time, and the non-paused time inside
        [start, end] equals exactly the busy time."""
        sched = schedule(mean_interval=0.5, pause=0.05, seed=seed)
        start, end = sched.execute(begin, busy)
        assert start >= begin
        assert end >= start + busy - 1e-12
        paused = sum(
            max(0.0, min(end, pause_end) - max(start, pause_start))
            for pause_start, pause_end in sched.pauses_up_to(end + 1.0)
        )
        assert (end - start) - paused == pytest.approx(busy, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(
        tasks=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=0.5),
                st.sampled_from([0.0, 0.01, 0.03, 0.2]),
            ),
            max_size=40,
        ),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_pause_free_shortcut_equals_the_walk(self, tasks, seed):
        """``execute`` answers a task no pause overlaps without walking;
        every answer, and every pause drawn, equals the full walk's."""
        sched = schedule(mean_interval=0.3, pause=0.05, seed=seed)
        twin = schedule(mean_interval=0.3, pause=0.05, seed=seed)
        clock = 0.0
        for gap, busy in tasks:
            clock += gap
            assert sched.execute(clock, busy) == walk(twin, clock, busy)
        # Starting and ending exactly on a pause's edges.
        for pause_start, pause_end in twin.pauses_up_to(clock):
            for begin, busy in [
                (pause_start, 0.0),
                (pause_end, 0.0),
                (pause_start - 0.01, 0.01),
                (pause_end, pause_start - pause_end + 0.3),
            ]:
                assert sched.execute(begin, busy) == walk(twin, begin, busy)
        assert sched.pauses_up_to(clock + 1.0) == twin.pauses_up_to(
            clock + 1.0
        )


class TestCoreBankWithHiccups:
    def test_task_stretched_across_pause(self):
        sched = schedule(mean_interval=1.0, pause=0.5, seed=0)
        pause_start, _ = sched.pauses_up_to(10.0)[0]
        bank = CoreBank(1, hiccups=sched)
        start, end = bank.submit(max(0.0, pause_start - 0.1), 0.2)
        assert end - start >= 0.2 + 0.5 - 1e-9

    def test_busy_time_counts_work_not_pauses(self):
        sched = schedule(mean_interval=0.2, pause=0.1, seed=1)
        bank = CoreBank(1, hiccups=sched)
        bank.submit(0.0, 1.0)
        assert bank.busy_time == pytest.approx(1.0)
