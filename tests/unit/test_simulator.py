"""Unit tests for the discrete-event simulator (repro.net.simulator)."""

import pytest

from repro.net.simulator import SimulationError, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for name in "abc":
            sim.schedule(1.0, lambda name=name: fired.append(name))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_callbacks_are_never_compared(self):
        """The heap orders (time, seq) alone: fifty simultaneous events
        whose callbacks refuse ``<`` still fire in scheduling order."""

        class Unorderable:
            def __init__(self, name, fired):
                self.name, self.fired = name, fired

            def __call__(self):
                self.fired.append(self.name)

            def __lt__(self, other):
                raise AssertionError("the heap compared two callbacks")

        sim = Simulator()
        fired = []
        for name in range(50):
            sim.schedule(1.0, Unorderable(name, fired))
        sim.schedule(0.5, Unorderable("early", fired))
        sim.run()
        assert fired == ["early", *range(50)]

    def test_now_advances(self):
        sim = Simulator()
        times = []
        sim.schedule(2.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.5]
        assert sim.now == 2.5

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule(1.0, lambda: None)

    def test_schedule_after(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.schedule_after(0.5, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [1.5]

    def test_schedule_after_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_after(-0.1, lambda: None)

    def test_callbacks_can_schedule_more_events(self):
        sim = Simulator()
        fired = []

        def chain(k):
            fired.append(k)
            if k < 4:
                sim.schedule_after(1.0, lambda: chain(k + 1))

        sim.schedule(0.0, lambda: chain(0))
        sim.run()
        assert fired == [0, 1, 2, 3, 4]


class TestRunControls:
    def test_run_until_bound(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.pending_events == 1
        sim.run()
        assert fired == [1, 10]

    def test_run_until_advances_clock_when_idle(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_max_events_bound(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i), lambda: None)
        executed = sim.run(max_events=3)
        assert executed == 3
        assert sim.pending_events == 7

    def test_cancel(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("x"))
        sim.cancel(event)
        sim.run()
        assert fired == []
        assert sim.processed_events == 0

    def test_pending_counter_tracks_schedule_cancel_execute(self):
        """pending_events is a live O(1) counter; cancel decrements it
        immediately and double-cancel must not decrement twice."""
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
        assert sim.pending_events == 5
        sim.cancel(events[2])
        assert sim.pending_events == 4
        sim.cancel(events[2])  # idempotent
        assert sim.pending_events == 4
        sim.step()
        assert sim.pending_events == 3
        sim.run()
        assert sim.pending_events == 0

    def test_cancelling_head_and_middle_keeps_pending_exact(self):
        sim = Simulator()
        fired = []
        events = [
            sim.schedule(float(i + 1), lambda i=i: fired.append(i)) for i in range(5)
        ]
        sim.cancel(events[0])  # the heap head
        sim.cancel(events[2])  # an interior entry
        assert sim.pending_events == 3
        assert sim.run(until=2.0) == 1
        assert fired == [1] and sim.pending_events == 2
        assert sim.run() == 2
        assert fired == [1, 3, 4]
        assert sim.pending_events == 0 and sim.processed_events == 3

    def test_message_ids_are_per_simulator(self):
        a, b = Simulator(), Simulator()
        assert [a.next_message_id() for _ in range(3)] == [0, 1, 2]
        assert [b.next_message_id() for _ in range(3)] == [0, 1, 2]

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_processed_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.processed_events == 4

    def test_determinism_two_identical_runs(self):
        def trace():
            sim = Simulator()
            log = []
            for i in range(20):
                sim.schedule(i * 0.37 % 3.0, lambda i=i: log.append(i))
            sim.run()
            return log

        assert trace() == trace()
