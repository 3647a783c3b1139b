"""Tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(5.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(3.0, fired.append, "middle")
        sim.run()
        assert fired == ["early", "middle", "late"]

    def test_ties_break_by_insertion_order(self, sim):
        fired = []
        for tag in ("a", "b", "c"):
            sim.schedule(1.0, fired.append, tag)
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self, sim):
        sim.schedule(2.5, lambda: None)
        sim.run()
        assert sim.now == 2.5

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_nan_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)

    def test_schedule_at_absolute_time(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        marks = []
        sim.schedule_at(4.0, marks.append, "x")
        sim.run()
        assert sim.now == 4.0 and marks == ["x"]

    def test_events_scheduled_during_run_fire(self, sim):
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                sim.schedule(1.0, chain, depth + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 3.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert event.cancelled

    def test_other_events_still_fire(self, sim):
        fired = []
        victim = sim.schedule(1.0, fired.append, "victim")
        sim.schedule(2.0, fired.append, "survivor")
        victim.cancel()
        sim.run()
        assert fired == ["survivor"]


class TestRunControl:
    def test_run_returns_fired_count(self, sim):
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        assert sim.run() == 5

    def test_run_max_events(self, sim):
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        assert sim.run(max_events=2) == 2
        assert sim.pending_events == 3

    def test_run_until_stops_at_boundary(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, fired.append, 2)
        sim.schedule(3.0, fired.append, 3)
        sim.run_until(2.0)
        assert fired == [1, 2]
        assert sim.now == 2.0

    def test_run_until_advances_clock_past_empty_queue(self, sim):
        sim.run_until(10.0)
        assert sim.now == 10.0

    def test_run_until_rejects_past_target(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run_until(1.0)

    def test_step_on_empty_queue_returns_false(self, sim):
        assert sim.step() is False

    def test_clear_drops_pending_events(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.clear()
        assert sim.run() == 0

    def test_events_processed_counter(self, sim):
        for _ in range(3):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 3


class TestFastPath:
    """The fire-and-forget tuple path (post / post_at / post_train)."""

    def test_post_fires_in_time_order(self, sim):
        fired = []
        sim.post(5.0, fired.append, "late")
        sim.post(1.0, fired.append, "early")
        assert sim.run() == 2
        assert fired == ["early", "late"]
        assert sim.now == 5.0

    def test_post_returns_no_handle(self, sim):
        assert sim.post(1.0, lambda: None) is None

    def test_post_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.post(-1.0, lambda: None)

    def test_post_nan_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.post(float("nan"), lambda: None)

    def test_post_at_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.post_at(1.0, lambda: None)

    def test_post_train_schedules_train(self, sim):
        fired = []
        with pytest.raises(SimulationError):
            sim.post_train((3.0, 1.0, 2.0), fired.append, lambda i: (i,))
        assert sim.pending_events == 0
        assert sim.post_train((), fired.append, lambda i: (i,)) == 0
        built = []

        def make_args(index):
            built.append((index, sim.now))
            return (index,)

        assert sim.post_train((1.0, 2.0, 3.0), fired.append, make_args) == 3
        # One heap entry for the whole train; no member built yet.
        assert sim.pending_events == 1
        assert built == []
        assert sim.run() == 3
        assert fired == [0, 1, 2]
        assert built == [(0, 1.0), (1, 2.0), (2, 3.0)]

    def test_post_train_rejects_past_nan_and_decreasing_times(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        nan = float("nan")
        for times in ((1.0,), (nan,), (6.0, nan), (nan, 6.0),
                      (6.0, 7.0, 6.5), (6.0, 4.0)):
            with pytest.raises(SimulationError):
                sim.post_train(times, lambda *args: None, lambda i: ())
            assert sim.pending_events == 0
        # Nothing was reserved either: the next entry gets the next seq.
        sim.post(0.0, lambda: None)
        assert sim._heap[0][1] == 1

    def test_tie_break_by_insertion_across_both_paths(self, sim):
        """>= 3 same-time events, mixing cancellable, fast-path and
        train entries, fire in exact insertion order."""
        fired = []
        sim.post(1.0, fired.append, "a")
        sim.schedule(1.0, fired.append, "b")
        tags = ("c", "d")
        sim.post_train((1.0, 1.0), fired.append, lambda i: (tags[i],))
        sim.post(1.0, fired.append, "e")
        sim.run()
        assert fired == ["a", "b", "c", "d", "e"]

    def test_schedule_at_exactly_now_fires_at_now(self, sim):
        sim.schedule(2.0, lambda: None)
        sim.run()
        fired = []
        sim.schedule_at(sim.now, fired.append, "now")
        sim.post_at(sim.now, fired.append, "now-fast")
        sim.run()
        assert fired == ["now", "now-fast"]
        assert sim.now == 2.0

    def test_step_interleaves_both_entry_kinds(self, sim):
        fired = []
        sim.post(1.0, fired.append, "fast")
        sim.schedule(2.0, fired.append, "slow")
        assert sim.step() and sim.step()
        assert sim.step() is False
        assert fired == ["fast", "slow"]
        assert sim.events_processed == 2


class TestCancellationAccounting:
    def test_live_pending_excludes_cancelled(self, sim):
        keep = [sim.schedule(float(i), lambda: None) for i in range(5)]
        keep[1].cancel()
        keep[3].cancel()
        assert sim.pending_events == 5
        assert sim.live_pending_events == 3

    def test_cancel_after_fire_does_not_corrupt_count(self, sim):
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        event.cancel()
        assert sim.live_pending_events == 0

    def test_run_until_with_cancelled_head_event(self, sim):
        fired = []
        head = sim.schedule(1.0, fired.append, "head")
        sim.schedule(2.0, fired.append, "kept")
        sim.schedule(5.0, fired.append, "beyond")
        head.cancel()
        assert sim.run_until(3.0) == 1
        assert fired == ["kept"]
        assert sim.now == 3.0
        assert sim.live_pending_events == 1

    def test_compaction_drops_cancelled_majority(self, sim):
        events = [sim.schedule(float(i), lambda: None)
                  for i in range(200)]
        for event in events[:150]:
            event.cancel()
        # Lazy compaction rebuilt the heap once cancelled entries
        # outnumbered live ones: most tombstones are physically gone
        # (not just flagged), and live accounting stays exact.
        assert sim.live_pending_events == 50
        assert sim.live_pending_events <= sim.pending_events < 150
        assert sim.run() == 50

    def test_small_heaps_skip_compaction(self, sim):
        events = [sim.schedule(float(i), lambda: None) for i in range(10)]
        for event in events[:9]:
            event.cancel()
        assert sim.pending_events == 10
        assert sim.live_pending_events == 1
        assert sim.run() == 1

    def test_clear_resets_cancelled_accounting(self, sim):
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        sim.clear()
        assert sim.pending_events == 0
        assert sim.live_pending_events == 0

    def test_cancel_after_clear_does_not_corrupt_count(self, sim):
        """A handle whose entry was dropped by clear() must not
        decrement accounting for events scheduled afterwards."""
        stale = sim.schedule(1.0, lambda: None)
        sim.clear()
        stale.cancel()
        assert sim.live_pending_events == 0
        sim.post(1.0, lambda: None)
        assert sim.live_pending_events == 1
        assert sim.run() == 1
