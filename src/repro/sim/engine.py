"""Discrete-event simulation kernel.

A minimal but complete event-driven simulator: events are ``(time, seq,
callback)`` triples in a binary heap; ``seq`` is a monotonically increasing
tie-breaker making same-timestamp execution order deterministic (insertion
order), which keeps every protocol run in this package reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import SimulationError
from repro.obs import OBS

__all__ = ["Event", "Simulator"]


@dataclass(order=True)
class Event:
    """A scheduled callback.  Ordering: time, then insertion sequence."""

    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event so the kernel skips it (O(1) lazy deletion)."""
        self.cancelled = True


class Simulator:
    """Priority-queue discrete-event kernel.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.0, lambda: fired.append("b"))
    >>> _ = sim.schedule(1.0, lambda: fired.append("a"))
    >>> sim.run()
    >>> (fired, sim.now)
    (['a', 'b'], 2.0)
    """

    def __init__(self) -> None:
        self._queue: list[Event] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._processed

    @property
    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return len(self._queue)

    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        ev = Event(self._now + delay, next(self._seq), callback)
        heapq.heappush(self._queue, ev)
        return ev

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at an absolute simulation time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} < now ({self._now})"
            )
        ev = Event(time, next(self._seq), callback)
        heapq.heappush(self._queue, ev)
        return ev

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending event; returns False when the queue is empty."""
        while self._queue:
            ev = heapq.heappop(self._queue)
            if ev.cancelled:
                continue
            self._now = ev.time
            self._processed += 1
            if OBS.enabled:
                # causal context is per-event: a delivery/timer hook re-sets
                # it inside the callback; nothing may leak across events
                OBS.flight.clear_cause()
            ev.callback()
            return True
        return False

    def run(
        self, *, until: float | None = None, max_events: int = 10_000_000
    ) -> None:
        """Run events in order until the queue drains (or ``until``/budget).

        Parameters
        ----------
        until:
            Stop once the next event lies strictly beyond this time (the
            clock is advanced to ``until``); ``None`` runs to exhaustion.
        max_events:
            Safety valve against runaway protocols.
        """
        executed = 0
        try:
            while self._queue:
                if executed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; runaway protocol?"
                    )
                nxt = self._queue[0]
                if nxt.cancelled:
                    heapq.heappop(self._queue)
                    continue
                if until is not None and nxt.time > until:
                    self._now = until
                    return
                self.step()
                executed += 1
            if until is not None and until > self._now:
                self._now = until
        finally:
            if OBS.enabled and executed:
                OBS.counter("sim_events_total").inc(executed)
                # sim-time hook: one row per run() slice, stamped with the
                # engine clock so trajectories plot against simulated seconds
                OBS.sample("sim", sim_t=self._now, events=executed)
