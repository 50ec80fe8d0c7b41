"""Deadlock watchdog: turn silent stalls into structured diagnostics.

Without a watchdog, a wedged simulation (a runtime bug leaving every core
spinning on a flag nobody will ever set, a lost ULI handshake, a broken
coherence discipline) grinds until the ``max_cycles`` guard raises an
opaque :class:`~repro.engine.simulator.SimulationError` — typically after
hundreds of millions of cycles of wall-clock time.

:class:`Watchdog` is a self-re-arming *daemon* event (so it can never
perturb the simulated outcome — see the daemon rules in
``repro.engine.simulator``) that samples a caller-supplied progress
counter.  When the counter has not moved for ``grace`` cycles while the
caller still reports outstanding work, the watchdog raises
:class:`DeadlockError` carrying a JSON-able diagnostic dump assembled by
the caller (per-core ULI state, deque occupancy, runtime stats).  The
harness grid knows how to record that dump as a failed point so a large
sweep survives one wedged configuration.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.engine.simulator import SimulationError


class DeadlockError(SimulationError):
    """No progress for ``grace`` cycles with work outstanding.

    ``diagnostic`` is a JSON-able dict describing the stalled state
    (assembled by the watchdog's ``diagnose`` callback; the work-stealing
    runtime contributes per-core ULI state, deque occupancy, and its stat
    counters).  It survives pickling across the grid's worker processes.
    """

    def __init__(self, message: str, diagnostic: Optional[dict] = None):
        super().__init__(message)
        self.diagnostic = diagnostic or {}

    def __reduce__(self):
        return (self.__class__, (self.args[0], self.diagnostic))


class Watchdog:
    """Periodic no-progress detector running as a simulator daemon event."""

    def __init__(
        self,
        sim,
        progress: Callable[[], int],
        grace: int = 100_000,
        interval: Optional[int] = None,
        outstanding: Optional[Callable[[], bool]] = None,
        diagnose: Optional[Callable[[], dict]] = None,
    ):
        if grace <= 0:
            raise ValueError(f"watchdog grace must be positive, got {grace}")
        self.sim = sim
        self.progress = progress
        self.grace = grace
        #: How often to sample; several samples per grace window so the
        #: error fires within ~1.25x grace of the true stall point.
        self.interval = interval if interval is not None else max(1, grace // 4)
        if self.interval <= 0:
            raise ValueError(f"watchdog interval must be positive, got {interval}")
        self.outstanding = outstanding
        self.diagnose = diagnose
        self._last_progress: Optional[int] = None
        self._last_change = 0
        self._armed = False
        self._cancelled = False

    def arm(self) -> None:
        """Install the first daemon tick (idempotent)."""
        if self._armed:
            return
        self._armed = True
        self._cancelled = False
        self._last_progress = None
        self._last_change = self.sim.now
        self.sim.schedule(self.interval, self._tick, daemon=True)

    def cancel(self) -> None:
        """Disarm: any still-queued tick becomes a no-op and does not re-arm."""
        self._cancelled = True
        self._armed = False

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if self._cancelled:
            return
        sim = self.sim
        current = self.progress()
        if current != self._last_progress:
            self._last_progress = current
            self._last_change = sim.now
        elif sim.now - self._last_change >= self.grace:
            if self.outstanding is None or self.outstanding():
                diagnostic = {
                    "cycle": sim.now,
                    "grace": self.grace,
                    "stalled_since": self._last_change,
                    "progress_counter": current,
                    "pending_events": sim.pending_events,
                }
                if self.diagnose is not None:
                    diagnostic.update(self.diagnose())
                raise DeadlockError(
                    f"no runtime progress for {sim.now - self._last_change} cycles "
                    f"(grace {self.grace}) at cycle {sim.now} with work outstanding",
                    diagnostic,
                )
            # Work finished and the cores are still draining their last
            # events: keep watching without raising.
            self._last_change = sim.now
        self.sim.schedule(self.interval, self._tick, daemon=True)
