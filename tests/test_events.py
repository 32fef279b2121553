"""Tests for the deterministic event queue."""

import pytest

from repro.util.events import EventQueue


def test_events_run_in_time_order():
    q = EventQueue()
    log = []
    q.schedule(10, lambda: log.append("b"))
    q.schedule(5, lambda: log.append("a"))
    q.schedule(20, lambda: log.append("c"))
    q.run()
    assert log == ["a", "b", "c"]
    assert q.now == 20


def test_ties_break_by_insertion_order():
    q = EventQueue()
    log = []
    for name in "abcd":
        q.schedule(7, lambda n=name: log.append(n))
    q.run()
    assert log == ["a", "b", "c", "d"]


def test_schedule_in_past_rejected():
    q = EventQueue()
    q.schedule(5, lambda: None)
    q.step()
    with pytest.raises(ValueError):
        q.schedule(3, lambda: None)


def test_cancelled_events_are_skipped():
    q = EventQueue()
    log = []
    event = q.schedule(5, lambda: log.append("x"))
    q.schedule(6, lambda: log.append("y"))
    event[2] = None
    q.run()
    assert log == ["y"]


def test_schedule_after_uses_current_time():
    q = EventQueue()
    log = []
    q.schedule(10, lambda: q.schedule_after(5, lambda: log.append(q.now)))
    q.run()
    assert log == [15]


def test_run_until_advances_clock_without_events():
    q = EventQueue()
    q.run_until(100)
    assert q.now == 100


def test_run_until_executes_only_due_events():
    q = EventQueue()
    log = []
    q.schedule(5, lambda: log.append(5))
    q.schedule(50, lambda: log.append(50))
    q.run_until(10)
    assert log == [5]
    assert q.now == 10
    q.run()
    assert log == [5, 50]


def test_len_counts_live_events():
    q = EventQueue()
    e1 = q.schedule(1, lambda: None)
    q.schedule(2, lambda: None)
    assert len(q) == 2
    e1[2] = None
    assert len(q) == 1


def test_len_is_exact_through_mixed_operations():
    q = EventQueue()
    events = [q.schedule(t, lambda: None) for t in range(10)]
    assert len(q) == 10
    events[3][2] = None
    events[7][2] = None
    assert len(q) == 8
    q.step()
    assert len(q) == 7
    q.run()
    assert len(q) == 0


def test_double_cancel_does_not_corrupt_count():
    q = EventQueue()
    event = q.schedule(5, lambda: None)
    q.schedule(6, lambda: None)
    event[2] = None
    event[2] = None
    assert len(q) == 1


def test_cancel_after_execution_is_harmless():
    q = EventQueue()
    event = q.schedule(5, lambda: None)
    q.schedule(6, lambda: None)
    q.step()            # runs the t=5 event
    assert len(q) == 1
    event[2] = None      # too late; must not decrement the live count
    assert len(q) == 1
    assert q.step()
    assert len(q) == 0


def test_events_scheduled_during_execution():
    q = EventQueue()
    log = []

    def chain(n):
        log.append(n)
        if n < 3:
            q.schedule_after(1, lambda: chain(n + 1))

    q.schedule(0, lambda: chain(0))
    q.run()
    assert log == [0, 1, 2, 3]
    assert q.now == 3


def test_clear_empties_the_queue():
    q = EventQueue()
    for t in (5, 6, 7):
        q.schedule(t, lambda: None)
    q.schedule(8, lambda: None)[2] = None
    q.clear()
    assert len(q) == 0
    assert q.peek_time() is None
    assert not q.step()


def test_late_cancel_of_a_cleared_event_leaves_len_alone():
    q = EventQueue()
    event = q.schedule(5, lambda: None)
    q.clear()
    q.schedule(6, lambda: None)
    event[2] = None
    assert len(q) == 1


def test_cleared_callbacks_never_fire():
    q = EventQueue()
    fired = []
    events = [q.schedule(t, lambda t=t: fired.append(t)) for t in (5, 9)]
    q.clear()
    assert all(event[2] is None for event in events)
    q.schedule(10, lambda: None)
    assert q.run() == 1
    assert fired == []


def test_scheduling_after_clear_fires_in_time_seq_order():
    q = EventQueue()
    log = []
    q.schedule(3, lambda: log.append("x"))
    q.step()
    q.schedule(9, lambda: log.append("dropped"))
    q.clear()
    assert q.now == 3
    q.schedule(8, lambda: log.append("c"))
    q.schedule(4, lambda: log.append("a"))
    q.schedule(8, lambda: log.append("d"))
    q.schedule(4, lambda: log.append("b"))
    assert len(q) == 4
    q.run()
    assert log == ["x", "a", "b", "c", "d"]
    assert q.now == 8
