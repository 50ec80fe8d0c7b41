"""Interval statistics sampler: StatGroup deltas every N cycles.

The end-of-run aggregates in ``StatGroup`` explain *how much* happened but
not *when*; the sampler turns them into a time series by snapshotting a
flat statistics view every ``interval`` simulated cycles and recording the
delta since the previous snapshot.  The resulting series feeds the Chrome
trace counter tracks (hit rate, traffic, steals per interval), the CSV
export below, and any number of additional *sinks* — callables invoked
with every ``(cycle, delta)`` pair — so consumers (JSONL export, the
metrics registry in ``repro.obs.metrics``) no longer have to pose as
tracers.

Scheduling: the sampler rides the simulation's own event queue as *daemon*
events (``Simulator.schedule(..., daemon=True)``), which never keep the run
loop alive or advance the clock past the last real event.  Sampler
callbacks read statistics and touch nothing else, so a sampled run is
cycle-for-cycle identical to an unsampled one — asserted by
``tests/test_trace.py``.

Completeness invariant: the recorded deltas *telescope* — their per-key
sum equals end-of-run totals minus the baseline.  ``finalize`` therefore
always flushes the tail window, merging into the last sample when a daemon
tick already fired at the final cycle but regular events at that same
cycle mutated counters afterwards (daemon events run *before* regular
events at the same cycle, so a same-cycle tick can be stale).
"""

from __future__ import annotations

import io
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.engine.simulator import Simulator
from repro.engine.stats import StatGroup
from repro.trace.tracer import NULL_TRACER, NullTracer

Snapshot = Dict[str, Union[int, float]]

#: A sample consumer: called as ``sink(cycle, delta)`` for every sample.
Sink = Callable[[int, Snapshot], None]


class IntervalSampler:
    """Snapshot a statistics source every ``interval`` cycles.

    ``source`` is either a :class:`StatGroup` (sampled via ``snapshot()``)
    or any zero-argument callable returning a flat ``{name: number}`` dict
    (e.g. ``MetricsRegistry.collect``).  Deltas are kept in
    :attr:`samples` and forwarded to every registered sink; the ``tracer``
    argument is kept as a convenience for the original consumer and simply
    becomes the first sink.
    """

    def __init__(
        self,
        sim: Simulator,
        source: Union[StatGroup, Callable[[], Snapshot]],
        interval: int,
        tracer: NullTracer = NULL_TRACER,
    ):
        if interval < 1:
            raise ValueError(f"sample interval must be >= 1 cycle, got {interval}")
        self.sim = sim
        self.interval = interval
        self._snapshot = source.snapshot if isinstance(source, StatGroup) else source
        #: (cycle, {stat: delta}) — only stats that changed in the interval.
        self.samples: List[Tuple[int, Snapshot]] = []
        self._prev: Optional[Snapshot] = None
        self._sinks: List[Sink] = []
        if tracer is not NULL_TRACER:
            self._sinks.append(tracer.counter_sample)

    def add_sink(self, sink: Sink) -> "IntervalSampler":
        """Register an additional ``(cycle, delta)`` consumer."""
        self._sinks.append(sink)
        return self

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Take the baseline snapshot and schedule the first tick."""
        self._prev = self._snapshot()
        self.sim.schedule(self.interval, self._tick, daemon=True)

    def finalize(self) -> None:
        """Flush the tail window so no deltas are silently dropped.

        Three cases:

        * no tick fired at the final cycle — record a closing sample
          (also guarantees at least one sample for runs shorter than one
          interval, so counter tracks and CSVs are never empty);
        * a tick fired at the final cycle but regular events at that same
          cycle changed counters after it (daemons run first within a
          cycle) — merge the residue into that last sample and re-emit
          only the residue to sinks, keeping both the sample list and the
          sink stream telescoping to the end-of-run totals;
        * the last tick already saw the final state — nothing to do.
        """
        if self._prev is None:
            self._prev = self._snapshot()
        if not self.samples or self.samples[-1][0] != self.sim.now:
            self._record(self.sim.now)
            return
        residue = self._delta()
        if not residue:
            return
        cycle, last = self.samples[-1]
        merged = dict(last)
        for key, value in residue.items():
            merged[key] = merged.get(key, 0) + value
        self.samples[-1] = (cycle, merged)
        for sink in self._sinks:
            sink(cycle, residue)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        self._record(self.sim.now)
        # Daemon events never keep the run alive, so re-arming is always
        # safe: an unexecuted tick is simply left in the queue at the end.
        self.sim.schedule(self.interval, self._tick, daemon=True)

    def _delta(self) -> Snapshot:
        """Changed-stats delta since the previous snapshot; advances it."""
        snap = self._snapshot()
        prev = self._prev
        delta = {
            key: value - prev.get(key, 0)
            for key, value in snap.items()
            if value != prev.get(key, 0)
        }
        self._prev = snap
        return delta

    def _record(self, cycle: int) -> None:
        delta = self._delta()
        self.samples.append((cycle, delta))
        for sink in self._sinks:
            sink(cycle, delta)


def samples_to_csv(samples: List[Tuple[int, Snapshot]]) -> str:
    """Serialize interval samples to CSV: one row per tick, one column per
    statistic that changed at least once (sorted, so output is stable)."""
    columns: List[str] = sorted({key for _cycle, delta in samples for key in delta})
    buffer = io.StringIO()
    buffer.write(",".join(["cycle"] + columns) + "\n")
    for cycle, delta in samples:
        row = [str(cycle)]
        for key in columns:
            value = delta.get(key, 0)
            row.append(f"{value:.6g}" if isinstance(value, float) else str(value))
        buffer.write(",".join(row) + "\n")
    return buffer.getvalue()
