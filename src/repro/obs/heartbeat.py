"""Live run telemetry: periodic atomic JSON progress snapshots.

A :class:`HeartbeatWriter` rides the simulation's own event queue as
*daemon* events — exactly the scheduling mechanism of
``repro.trace.sampler.IntervalSampler`` — so an instrumented run executes
the same callbacks at the same cycles as a bare run: daemon events never
keep the run loop alive, never advance the clock past the last real event,
and only *read* simulated state.  (A due daemon event does block the
event-fusion fast path for that cycle, but fusion is itself outcome-neutral
by construction, so cycle counts, statistics, and memory contents are
untouched; ``tests/test_determinism.py`` asserts this.)

Each beat atomically replaces one JSON file (temp file + ``os.replace``)
with the run's progress: simulated cycle, host-side event throughput,
fusion ratio, per-core busy/idle/deque-depth, tasks outstanding, and the
sanitizer/watchdog status.  Grid workers inherit ``REPRO_HEARTBEAT_DIR``
from the parent, so a sweep fans one snapshot file per in-flight run into
a single directory — which ``repro top`` (``repro.obs.top``) tails as a
live top-style view.

Off by default: no environment variable, no heartbeat, zero new work in
the engine.
"""

from __future__ import annotations

import json
import os
import time
from typing import Optional

#: Schema tag for snapshot files (repro top refuses unknown schemas).
HEARTBEAT_SCHEMA = 1

#: Default beat cadence in *simulated* cycles.
DEFAULT_INTERVAL = 25_000

#: Per-process run sequence so one process (e.g. a serial grid) gets a
#: distinct snapshot file per experiment.
_RUN_SEQ = 0


def heartbeat_dir() -> Optional[str]:
    """The ambient snapshot directory (``REPRO_HEARTBEAT_DIR``), or None."""
    return os.environ.get("REPRO_HEARTBEAT_DIR") or None


def heartbeat_interval() -> int:
    """Beat cadence in cycles (``REPRO_HEARTBEAT_INTERVAL``, default 25000)."""
    try:
        return max(1, int(os.environ.get("REPRO_HEARTBEAT_INTERVAL", "")))
    except ValueError:
        return DEFAULT_INTERVAL


class HeartbeatWriter:
    """Periodic atomic progress snapshots for one simulation run."""

    def __init__(
        self,
        machine,
        runtime,
        path: str,
        interval: Optional[int] = None,
        min_wall_s: float = 0.2,
        meta: Optional[dict] = None,
    ):
        self.machine = machine
        self.runtime = runtime
        self.path = path
        self.interval = interval if interval is not None else heartbeat_interval()
        if self.interval < 1:
            raise ValueError(f"heartbeat interval must be >= 1 cycle, got {self.interval}")
        #: Minimum host seconds between file writes: a tiny simulation can
        #: cross thousands of beat boundaries per wall second, and the
        #: snapshot is only for human/top consumption.
        self.min_wall_s = min_wall_s
        self.meta = dict(meta or {})
        self.beats = 0
        self._started_at = 0.0
        self._last_write = 0.0
        self._last_events = 0
        self._last_cycle = 0

    @classmethod
    def for_run(cls, machine, runtime, directory: str, meta: dict) -> "HeartbeatWriter":
        """A writer with a fresh per-run snapshot file under ``directory``."""
        global _RUN_SEQ
        _RUN_SEQ += 1
        os.makedirs(directory, exist_ok=True)
        app = str(meta.get("app", "run")).replace(os.sep, "_")
        name = f"{os.getpid()}-{_RUN_SEQ:04d}-{app}.json"
        return cls(machine, runtime, os.path.join(directory, name), meta=meta)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Write the initial beat and schedule the first daemon tick."""
        now = time.time()
        self._started_at = now
        sim = self.machine.sim
        self._last_events = sim.events_executed + sim.events_fused
        self._last_cycle = sim.now
        self._write(self.snapshot("running"))
        sim.schedule(self.interval, self._tick, daemon=True)

    def finalize(self, status: str = "done", error: Optional[str] = None) -> None:
        """Write the closing beat (always, regardless of the throttle)."""
        self._write(self.snapshot(status, error=error))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        # Daemon events never keep the run alive; re-arming is always safe.
        self.machine.sim.schedule(self.interval, self._tick, daemon=True)
        now = time.time()
        if now - self._last_write < self.min_wall_s:
            return
        self._write(self.snapshot("running"))

    def _deque_depth(self, deque) -> int:
        head = self.machine.host_read_word(deque.head_addr)
        tail = self.machine.host_read_word(deque.tail_addr)
        return max(0, tail - head)

    def snapshot(self, status: str, error: Optional[str] = None) -> dict:
        """Build the progress snapshot (a pure read of simulated state)."""
        machine = self.machine
        runtime = self.runtime
        sim = machine.sim
        now = time.time()
        wall = now - self._started_at
        events = sim.events_executed + sim.events_fused
        d_wall = now - self._last_write
        d_events = events - self._last_events
        d_cycles = sim.now - self._last_cycle
        self._last_events = events
        self._last_cycle = sim.now
        rt_stats = runtime.stats
        spawned = rt_stats.get("spawns")
        executed = rt_stats.get("tasks_executed")
        cores = []
        for core in machine.cores:
            cores.append(
                {
                    "id": core.core_id,
                    "big": bool(core.is_big),
                    "busy": core.busy_cycles(),
                    "idle": core.stats.get("cycles_idle"),
                    "deque": self._deque_depth(runtime.deques[core.core_id]),
                }
            )
        self.beats += 1
        return {
            "schema": HEARTBEAT_SCHEMA,
            "pid": os.getpid(),
            "meta": self.meta,
            "status": status,
            "error": error,
            "started_at": self._started_at,
            "updated_at": now,
            "wall_s": wall,
            "beats": self.beats,
            "cycle": sim.now,
            "max_cycles": sim.max_cycles,
            "events": dict(sim.fusion_stats()),
            "events_per_sec": (d_events / d_wall) if d_wall > 0 else 0.0,
            "cycles_per_sec": (d_cycles / d_wall) if d_wall > 0 else 0.0,
            "tasks": {
                "spawned": spawned,
                "executed": executed,
                "outstanding": max(0, spawned - executed),
                "steals": rt_stats.get("steals"),
                "steal_attempts": rt_stats.get("steal_attempts"),
            },
            "cores": cores,
            "sanitizer": (
                {"walks": machine.sanitizer.stats.get("walks")}
                if machine.sanitizer is not None
                else None
            ),
            "watchdog": runtime.watchdog_grace,
        }

    def _write(self, snap: dict) -> None:
        """Atomic replace so ``repro top`` can never read a torn file."""
        tmp = f"{self.path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(snap, fh, sort_keys=True)
        os.replace(tmp, self.path)
        self._last_write = time.time()
