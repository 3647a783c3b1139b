"""Core discrete-event simulator.

Time is a float in microseconds.  Events are callbacks scheduled at an
absolute simulated time; ties are broken by insertion order so runs are
fully deterministic for a given seed.

The heap holds two kinds of entries, both plain tuples so ordering is
resolved by C-level tuple comparison instead of a Python ``__lt__``:

* ``(time, seq, callback, args)`` -- the fire-and-forget fast path
  (:meth:`Simulator.post` / :meth:`Simulator.post_at`).  No handle
  object is allocated.
* ``(time, seq, event)`` -- the cancellable path
  (:meth:`Simulator.schedule` / :meth:`Simulator.schedule_at`), which
  returns an :class:`Event` handle supporting ``cancel()``.

A train (:meth:`Simulator.post_train`) keeps only its next member in
the heap, as one more fast-path entry ``(time, seq, train, ())``
under the member's reserved sequence number.  Firing it pushes the
member after it, then runs the member's callback.

Sequence numbers are unique, so tuple comparison never reaches the
third element and the entry shapes can share one heap.
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError

#: Heap size below which cancelled entries are never compacted (the
#: rebuild would cost more than lazily discarding them on pop).
_COMPACT_MIN_HEAP = 64


class Event:
    """A scheduled callback handle. Returned by :meth:`Simulator.schedule`.

    Events are single-shot.  Cancelling an event before it fires is
    O(1); the heap entry is lazily discarded when popped (or dropped
    in bulk when cancelled entries dominate the heap).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired",
                 "_sim")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., Any], args: tuple,
                 sim: "Simulator") -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent this event from firing. Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            # _sim is None once the event left the heap via clear();
            # fired covers normal pops.  Either way there is no heap
            # entry left to account for.
            if not self.fired and self._sim is not None:
                self._sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else (
            "fired" if self.fired else "pending")
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"<Event t={self.time:.3f} {name} {state}>"


class _Train:
    """A :meth:`Simulator.post_train` train: member *i* fires
    ``callback(*make_args(i))`` at ``times[i]`` under sequence number
    ``seq0 + i``.  Its next member's heap entry is
    ``(time, seq, train, ())``, so calling the train fires it."""

    __slots__ = ("callback", "make_args", "_sim", "_times", "_seq0",
                 "_next")

    def __init__(self, sim: "Simulator", times: List[float], seq0: int,
                 callback: Callable, make_args: Callable) -> None:
        self.callback = callback
        self.make_args = make_args
        self._sim = sim
        self._times = times
        self._seq0 = seq0
        self._next = 0

    def advance(self) -> int:
        """Push the next member's entry; return the firing index."""
        index = self._next
        after = index + 1
        self._next = after
        if after < len(self._times):
            heappush(self._sim._heap, (self._times[after],
                                       self._seq0 + after, self, ()))
        return index

    def __call__(self) -> None:
        self.callback(*self.make_args(self.advance()))


class Simulator:
    """A minimal deterministic discrete-event simulator.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.schedule(5.0, fired.append, "a")
        >>> _ = sim.schedule(1.0, fired.append, "b")
        >>> sim.run()
        2
        >>> fired
        ['b', 'a']
        >>> sim.now
        5.0
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        self._events_processed = 0
        #: cancelled Event entries still sitting in the heap.
        self._cancelled_in_heap = 0
        #: lazy-compaction passes performed (observability counter).
        self.compactions = 0
        #: the run's :class:`~repro.obs.core.Observability` context,
        #: or None (the default -- components cache this once at
        #: construction, so a disabled run pays no per-event cost).
        self.obs: Optional[Any] = None

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events that have fired so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of entries in the queue, including cancelled ones."""
        return len(self._heap)

    @property
    def live_pending_events(self) -> int:
        """Number of queued events that will actually fire.

        Unlike :attr:`pending_events` this excludes cancelled entries
        awaiting lazy removal, so it is the right drain check: a run
        has ended cleanly when no *live* work remains.
        """
        return len(self._heap) - self._cancelled_in_heap

    # ------------------------------------------------------------------
    def post(self, delay: float, callback: Callable[..., Any],
             *args: Any) -> None:
        """Fire-and-forget: schedule *callback(*args)* ``delay`` us out.

        The fast path: no :class:`Event` handle is allocated, so the
        entry cannot be cancelled.  Use :meth:`schedule` when the
        caller needs ``cancel()``.

        Raises:
            SimulationError: if *delay* is negative or not finite.
        """
        if not (delay >= 0.0):  # also rejects NaN
            raise SimulationError(f"cannot schedule in the past: {delay!r}")
        heappush(self._heap,
                 (self._now + delay, next(self._seq), callback, args))

    def post_at(self, time: float, callback: Callable[..., Any],
                *args: Any) -> None:
        """Fire-and-forget at absolute simulated time ``time``."""
        # The fire time is now + (time - now) -- the exact arithmetic
        # of schedule_at() -- so absolute-time callers see bit-identical
        # timestamps on either path.  Inlined from post(): this runs
        # several times per request.
        now = self._now
        delay = time - now
        if not (delay >= 0.0):  # also rejects NaN
            raise SimulationError(f"cannot schedule in the past: {delay!r}")
        heappush(self._heap, (now + delay, next(self._seq), callback, args))

    def post_train(self, times: Sequence[float],
                   callback: Callable[..., Any],
                   make_args: Callable[[int], tuple]) -> int:
        """Fire-and-forget ``callback(*make_args(i))`` at absolute time
        ``times[i]`` for every member *i*; return the member count.

        Every member's sequence number is reserved now, in index
        order, and ``make_args(i)`` runs when member *i* fires, so the
        train fires exactly as ``post_at(times[i], callback,
        *make_args(i))`` for every member up front would, without
        building any member early.

        Raises:
            SimulationError: if the times are not non-decreasing, are
                NaN or precede the clock (nothing is scheduled then).
        """
        now = self._now
        # post_at's arithmetic, now + (t - now), for every member.
        fire = now + (np.asarray(times, dtype=float) - now)
        count = len(fire)
        if not count:
            return 0
        if not (fire[0] >= now and (fire[1:] >= fire[:-1]).all()):
            raise SimulationError(  # also rejects NaN
                f"train times must be non-decreasing and not before "
                f"t={now!r}")
        seq = self._seq
        seq0 = next(seq)
        # Reserve the other members' numbers by advancing the shared
        # counter (the kernel loop holds its bound __next__).
        deque(itertools.islice(seq, count - 1), maxlen=0)
        train = _Train(self, fire.tolist(), seq0, callback, make_args)
        heappush(self._heap, (train._times[0], seq0, train, ()))
        return count

    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> Event:
        """Schedule *callback(*args)* ``delay`` us from now, cancellable.

        Raises:
            SimulationError: if *delay* is negative or not finite.
        """
        if not (delay >= 0.0):  # also rejects NaN
            raise SimulationError(f"cannot schedule in the past: {delay!r}")
        event = Event(self._now + delay, next(self._seq), callback, args,
                      self)
        heappush(self._heap, (event.time, event.seq, event))
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any) -> Event:
        """Schedule *callback* at absolute simulated time ``time``."""
        return self.schedule(time - self._now, callback, *args)

    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Account one newly-cancelled in-heap event; compact lazily."""
        self._cancelled_in_heap += 1
        heap = self._heap
        if (len(heap) >= _COMPACT_MIN_HEAP
                and self._cancelled_in_heap * 2 > len(heap)):
            self._heap = [entry for entry in heap
                          if len(entry) == 4 or not entry[2].cancelled]
            heapify(self._heap)
            self._cancelled_in_heap = 0
            self.compactions += 1

    def _pop_next(self) -> Optional[Tuple[float, Callable[..., Any], tuple]]:
        """Pop the next live entry as ``(time, callback, args)``."""
        heap = self._heap
        while heap:
            entry = heappop(heap)
            if len(entry) == 4:
                return (entry[0], entry[2], entry[3])
            event = entry[2]
            if event.cancelled:
                self._cancelled_in_heap -= 1
                continue
            event.fired = True
            return (event.time, event.callback, event.args)
        return None

    def step(self) -> bool:
        """Fire the next pending event. Return False if queue is empty."""
        popped = self._pop_next()
        if popped is None:
            return False
        time, callback, args = popped
        if time < self._now - 1e-9:
            raise SimulationError(
                f"event at t={time} is behind clock t={self._now}"
            )
        if time > self._now:
            self._now = time
        self._events_processed += 1
        callback(*args)
        return True

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event queue drains (or *max_events* fire).

        Returns:
            The number of events fired by this call.
        """
        if max_events is not None:
            fired = 0
            while fired < max_events and self.step():
                fired += 1
            return fired

        # Hot loop: pop/fire inline instead of bouncing through
        # step(), with heap, clock and counters in locals.  Callbacks
        # may schedule new work, so re-read nothing but the list
        # object itself (schedule/post mutate it in place; only
        # _note_cancelled rebinds it, hence the refresh at the top).
        fired = 0
        now = self._now
        while True:
            heap = self._heap
            if not heap:
                break
            entry = heappop(heap)
            if len(entry) == 4:
                time, _, callback, args = entry
            else:
                event = entry[2]
                if event.cancelled:
                    self._cancelled_in_heap -= 1
                    continue
                event.fired = True
                time = entry[0]
                callback = event.callback
                args = event.args
            if time > now:
                now = time
                self._now = time
            elif time < now - 1e-9:
                raise SimulationError(
                    f"event at t={time} is behind clock t={now}"
                )
            fired += 1
            self._events_processed += 1
            callback(*args)
            now = self._now
        return fired

    def run_until(self, time: float) -> int:
        """Run all events scheduled strictly before or at ``time``.

        Advances the clock to exactly ``time`` even if the queue drains
        earlier.  Returns the number of events fired.
        """
        if time < self._now:
            raise SimulationError(
                f"run_until target {time} is before current time {self._now}"
            )
        fired = 0
        while True:
            heap = self._heap
            if not heap:
                break
            head = heap[0]
            if len(head) == 3 and head[2].cancelled:
                heappop(heap)
                self._cancelled_in_heap -= 1
                continue
            if head[0] > time:
                break
            self.step()
            fired += 1
        self._now = time
        return fired

    def clear(self) -> None:
        """Drop all pending events (the clock is left where it is)."""
        # Detach surviving Event handles so a later cancel() cannot
        # decrement accounting for entries that no longer exist.
        for entry in self._heap:
            if len(entry) == 3:
                entry[2]._sim = None
        self._heap.clear()
        self._cancelled_in_heap = 0
