"""Discrete-event simulation kernel.

The simulator keeps a single priority queue of (time, sequence, callback)
events.  Components schedule callbacks at absolute or relative cycle times;
the sequence number makes event ordering fully deterministic for events
scheduled at the same cycle (FIFO among ties).

*Daemon* events (``schedule(..., daemon=True)``) are pure observers such as
the interval stats sampler (``repro.trace.sampler``): they live in their
own small heap, run just before the first regular event at or after their
due time, and never keep the simulation alive or advance the clock past
the last real event — so they cannot perturb a simulation's outcome.  The
main event loop only pays one truthiness test per event for their
existence, keeping untraced runs at full speed.

Fusion and switching (the core trampoline's share of the run loop)
------------------------------------------------------------------

Most events in this simulator are core-operation completions: a core
finishes a load/store/work op and schedules its own continuation a few
cycles later.  The core's trampoline (``repro.cores.core.Core._resume``)
therefore takes over the step :meth:`Simulator.run` would take next
whenever that step is another op completion.  After an op it computes the
completion time and, with the regular and daemon queues in view, either

* *fuses*: the continuation is due strictly before every pending regular
  and daemon event, so pushing it and popping it again would return the
  same entry; the clock advances and the same thread keeps running; or
* *switches*: the queue head is another core's completion, so it is the
  event :meth:`run` would pop next; the continuation is pushed with
  ``heapreplace``, which pops that head in the same step, and the
  trampoline advances the clock to it and runs that core inline; or
* pushes its continuation and returns to :meth:`run` (ULI deliveries,
  wakes, due daemons and the ``max_cycles`` error all take this path).

Both shortcuts are taken only while

* fusion is enabled and a ``run()`` is active,
* the event that runs next is due at or before ``max_cycles`` (the
  runaway guard must fire exactly as it would on the heap path), and
* no daemon event is due at or before it.

A fused continuation must be *strictly* earlier than the queue head: an
event at the same cycle as the head loses the FIFO tie-break (the queued
event holds a smaller sequence number), so it is never fused; the head
runs first, inline when it is a completion.  Daemon events run just before the
first regular event at or after their due time, so neither shortcut runs
an event past a due daemon.  Under these rules the sequence of executed
callbacks, the clock values they observe, and every statistic they record
are identical whether the shortcuts are on or off; only host-side heap
traffic and run-loop dispatch disappear.  A switched event counts in
``events_executed``, a fused one in ``events_fused``.  Set
``REPRO_NO_FUSION=1`` (or construct with ``fusion=False``) to send every
event through :meth:`run` for differential testing; the hot loop then
pays a single extra branch per completed operation.

This kernel is deliberately minimal: the memory system resolves most
latencies analytically (see ``repro.mem``), so the event queue only carries
core wake-ups, ULI deliveries, and watchdog checks.  That keeps the event
count per simulated cycle low enough for Python to simulate 64-core systems
at interactive speed.
"""

from __future__ import annotations

import heapq
import os
from typing import Callable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for fatal conditions inside a simulation (deadlock, overflow)."""


class Simulator:
    """A deterministic discrete-event simulator with a cycle-granular clock."""

    __slots__ = (
        "_queue",
        "_daemon_queue",
        "_seq",
        "now",
        "max_cycles",
        "fusion_enabled",
        "_fusible",
        "events_executed",
        "events_fused",
    )

    def __init__(self, max_cycles: int = 500_000_000, fusion: Optional[bool] = None):
        self._queue: List[Tuple[int, int, Callable[[], None]]] = []
        self._daemon_queue: List[Tuple[int, int, Callable[[], None]]] = []
        self._seq = 0
        self.now = 0
        self.max_cycles = max_cycles
        if fusion is None:
            fusion = not os.environ.get("REPRO_NO_FUSION")
        #: Whether the trampoline may fuse and switch events at all.
        self.fusion_enabled = bool(fusion)
        #: True only inside ``run()``, and only while fusion is enabled.
        self._fusible = False
        #: Events popped from the heap, by the run loop or by a core's
        #: trampoline switching to the queue head.
        self.events_executed = 0
        #: Continuations a core's trampoline ran without touching the heap.
        self.events_fused = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: int, callback: Callable[[], None], daemon: bool = False
    ) -> None:
        """Schedule ``callback`` to run ``delay`` cycles from now (>= 0).

        ``daemon`` events (observers such as the interval stats sampler)
        never keep the simulation alive: the run loop stops once only
        daemon events remain, without executing them or advancing the
        clock.  They therefore cannot perturb a simulation's outcome.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.schedule_at(self.now + int(delay), callback, daemon)

    def schedule_at(
        self, time: int, callback: Callable[[], None], daemon: bool = False
    ) -> None:
        """Schedule ``callback`` at absolute cycle ``time`` (>= now)."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        queue = self._daemon_queue if daemon else self._queue
        heapq.heappush(queue, (time, self._seq, callback))
        self._seq += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> int:
        """Drain the event queue.

        Runs until no regular (non-daemon) events remain; raises
        :class:`SimulationError` once an event is due past ``max_cycles``.
        Returns the final cycle count.
        """
        self._fusible = self.fusion_enabled
        queue = self._queue
        daemon_queue = self._daemon_queue
        heappop = heapq.heappop
        executed = 0
        try:
            while queue:
                time, _seq, callback = heappop(queue)
                if time > self.max_cycles:
                    raise SimulationError(
                        f"simulation exceeded max_cycles={self.max_cycles}; "
                        "likely deadlock or runaway spin loop"
                    )
                if daemon_queue and daemon_queue[0][0] <= time:
                    # Return the popped event before draining daemons so the
                    # heap is complete while they run: a checkpoint daemon
                    # snapshots the queue, and a raising daemon (deadlock
                    # watchdog) must leave the un-executed event in place.
                    # Re-arms always land strictly in the future, so the
                    # re-pop below cannot loop.
                    heapq.heappush(queue, (time, _seq, callback))
                    while daemon_queue and daemon_queue[0][0] <= time:
                        dtime, _dseq, dcallback = heappop(daemon_queue)
                        self.now = dtime
                        dcallback()
                    continue
                self.now = time
                executed += 1
                callback()
        finally:
            self._fusible = False
            self.events_executed += executed
        return self.now

    @property
    def pending_events(self) -> int:
        """Pending non-daemon events (the ones that drive the run loop)."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Checkpoint support (repro.engine.checkpoint)
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Clock/counter state plus the raw regular-event heap entries.

        The (time, seq, callback) entries still hold live callables; the
        checkpoint layer converts them to serializable descriptors.  Daemon
        events are deliberately not exported: daemons are observers that
        re-arm themselves relative to the restored clock.
        """
        return {
            "now": self.now,
            "seq": self._seq,
            "max_cycles": self.max_cycles,
            "events_executed": self.events_executed,
            "events_fused": self.events_fused,
            "queue": list(self._queue),
        }

    def load_state(self, state: dict, events) -> None:
        """Install clock/counters and a rebuilt regular-event heap.

        ``events`` carries (time, seq, callback) tuples whose callbacks the
        checkpoint layer has rebound to this simulator's components.  The
        daemon queue is cleared; observers must re-arm afterwards (the
        clock is already at the restored cycle, so ``schedule_at`` with an
        absolute due time keeps their phase identical to an uninterrupted
        run).
        """
        self.now = state["now"]
        self._seq = state["seq"]
        self.max_cycles = state["max_cycles"]
        self.events_executed = state["events_executed"]
        self.events_fused = state["events_fused"]
        self._queue = list(events)
        heapq.heapify(self._queue)
        self._daemon_queue.clear()

    def fusion_stats(self) -> dict:
        """Host-side event accounting: heap events vs fused continuations."""
        total = self.events_executed + self.events_fused
        return {
            "events_executed": self.events_executed,
            "events_fused": self.events_fused,
            "events_total": total,
            "fused_ratio": (self.events_fused / total) if total else 0.0,
        }
