"""``repro top`` — a live, curses-free view over heartbeat snapshots.

Reads every ``*.json`` heartbeat file in a directory (each one atomically
replaced by a :class:`repro.obs.heartbeat.HeartbeatWriter` in some other
process), renders a top-style table, and repeats.  No curses: one ANSI
home+clear escape per frame keeps the output a plain stdout stream that
works in CI logs, ``watch``, and dumb terminals alike (``--once`` skips
the escape entirely and prints a single frame).

Because writers use temp-file + ``os.replace``, a reader can never observe
a torn snapshot; files that fail to parse anyway (foreign files, future
schemas) are counted and skipped, never fatal.

``--prom FILE`` additionally maintains a Prometheus textfile with sweep
aggregates on every refresh, for any scraper that watches a sweep.
"""

from __future__ import annotations

import json
import os
import time
from typing import List, Optional, Tuple

from repro.obs.heartbeat import HEARTBEAT_SCHEMA
from repro.obs.metrics import write_prometheus_textfile

#: Clear screen + cursor home, the whole "TUI".
_ANSI_HOME = "\x1b[H\x1b[J"

#: A run whose file hasn't been replaced for this many seconds is flagged
#: stale (worker wedged but still alive).  Overridable per call
#: (``--stale-after``).
STALE_AFTER_S = 30.0


def _pid_alive(pid) -> bool:
    """Best-effort liveness probe; unknown/foreign pids count as alive
    (never claim a run is dead on weak evidence)."""
    if not pid:
        return True
    try:
        os.kill(int(pid), 0)
    except ProcessLookupError:
        return False
    except (OSError, ValueError):
        return True
    return True


def gc_dead_snapshots(directory: str) -> List[str]:
    """Remove snapshots orphaned by dead writers; returns removed names.

    A snapshot claiming ``running`` whose writer pid no longer exists can
    never be replaced or finalized — without collection it would sit in
    the table flagged forever.  Finished runs (``done``/``failed``) keep
    their files: those are informative, not wedged.
    """
    removed: List[str] = []
    snaps, _skipped = read_snapshots(directory)
    for snap in snaps:
        if snap.get("status") == "running" and not _pid_alive(snap.get("pid")):
            try:
                os.unlink(os.path.join(directory, snap["_file"]))
            except OSError:
                continue
            removed.append(snap["_file"])
    return removed


def read_snapshots(directory: str) -> Tuple[List[dict], int]:
    """(parsed snapshots, skipped file count) for one directory sweep."""
    snaps: List[dict] = []
    skipped = 0
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return [], 0
    for name in names:
        if not name.endswith(".json"):
            continue
        path = os.path.join(directory, name)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                snap = json.load(fh)
        except (OSError, ValueError):
            skipped += 1
            continue
        if not isinstance(snap, dict) or snap.get("schema") != HEARTBEAT_SCHEMA:
            skipped += 1
            continue
        snap["_file"] = name
        snaps.append(snap)
    return snaps, skipped


def _core_bar(snap: dict, width: int = 16) -> str:
    """Compact per-core utilization strip: one glyph per core.

    ``#`` ≥75% busy, ``+`` ≥25%, ``.`` <25%, ``!`` non-empty deque on an
    otherwise idle core (work waiting with nobody running it).
    """
    cores = snap.get("cores") or []
    glyphs = []
    for core in cores[:width]:
        busy = core.get("busy", 0)
        idle = core.get("idle", 0)
        total = busy + idle
        share = busy / total if total else 0.0
        if share >= 0.75:
            glyphs.append("#")
        elif share >= 0.25:
            glyphs.append("+")
        elif core.get("deque", 0) > 0:
            glyphs.append("!")
        else:
            glyphs.append(".")
    if len(cores) > width:
        glyphs.append("…")
    return "".join(glyphs)


def render(
    snaps: List[dict],
    skipped: int = 0,
    now: Optional[float] = None,
    stale_after: Optional[float] = None,
) -> str:
    """One frame of the top view as a plain string."""
    now = time.time() if now is None else now
    stale_after = STALE_AFTER_S if stale_after is None else stale_after
    by_status: dict = {}
    for snap in snaps:
        by_status[snap["status"]] = by_status.get(snap["status"], 0) + 1
    counts = "  ".join(f"{status}:{n}" for status, n in sorted(by_status.items()))
    header = [
        f"repro top — {len(snaps)} run(s)  {counts}"
        + (f"  [{skipped} unreadable]" if skipped else ""),
        f"{'pid':>7} {'app':<14} {'config':<16} {'scale':<6} {'status':<8} "
        f"{'cycle':>12} {'%':>5} {'Mev/s':>6} {'fused%':>6} {'tasks':>6} "
        f"{'age':>5} cores",
    ]
    rows = []
    # Running first (most recently updated at the top), then the rest.
    order = {"running": 0, "failed": 1, "done": 2}
    for snap in sorted(
        snaps,
        key=lambda s: (order.get(s["status"], 3), -s.get("updated_at", 0.0)),
    ):
        meta = snap.get("meta", {})
        cycle = snap.get("cycle", 0)
        max_cycles = snap.get("max_cycles") or 0
        pct = f"{100 * cycle / max_cycles:.0f}" if max_cycles else "-"
        events = snap.get("events", {})
        fused = events.get("fused_ratio")
        age = now - snap.get("updated_at", now)
        status = snap["status"]
        if status == "running" and not _pid_alive(snap.get("pid")):
            # The writer died without finalizing: this file will never be
            # replaced.  "dead" (not "stale?") — and ``--clean`` collects it.
            status = "dead"
        elif status == "running" and age > stale_after:
            status = "stale?"
        tasks = snap.get("tasks") or {}
        rows.append(
            f"{snap.get('pid', 0):>7} {str(meta.get('app', '?')):<14} "
            f"{str(meta.get('kind', '?')):<16} {str(meta.get('scale', '?')):<6} "
            f"{status:<8} {cycle:>12} {pct:>5} "
            f"{snap.get('events_per_sec', 0.0) / 1e6:>6.2f} "
            f"{100 * fused if fused is not None else 0.0:>5.1f}% "
            f"{tasks.get('outstanding', 0):>6} "
            f"{age:>4.0f}s {_core_bar(snap)}"
        )
    if not rows:
        rows.append("  (no heartbeat snapshots yet — is REPRO_HEARTBEAT_DIR set?)")
    return "\n".join(header + rows)


def sweep_gauges(snaps: List[dict]) -> dict:
    """Aggregate gauges for the Prometheus textfile exporter."""
    gauges = {
        "top.runs": len(snaps),
        "top.runs_running": 0,
        "top.runs_done": 0,
        "top.runs_failed": 0,
        "top.events_per_sec": 0.0,
        "top.tasks_outstanding": 0,
        "top.cycles": 0,
    }
    for snap in snaps:
        key = f"top.runs_{snap['status']}"
        if key in gauges:
            gauges[key] += 1
        if snap["status"] == "running":
            gauges["top.events_per_sec"] += snap.get("events_per_sec", 0.0)
            gauges["top.tasks_outstanding"] += (snap.get("tasks") or {}).get(
                "outstanding", 0
            )
        gauges["top.cycles"] += snap.get("cycle", 0)
    return gauges


def run_top(
    directory: str,
    interval: float = 1.0,
    once: bool = False,
    prom_path: Optional[str] = None,
    frames: Optional[int] = None,
    clean: bool = False,
    stale_after: Optional[float] = None,
) -> int:
    """The ``repro top`` main loop; returns a process exit code."""
    shown = 0
    while True:
        if clean:
            for name in gc_dead_snapshots(directory):
                print(f"repro top: collected dead snapshot {name}")
        snaps, skipped = read_snapshots(directory)
        frame = render(snaps, skipped, stale_after=stale_after)
        if once or frames is not None:
            print(frame)
        else:
            print(f"{_ANSI_HOME}{frame}", flush=True)
        if prom_path:
            write_prometheus_textfile(prom_path, sweep_gauges(snaps))
        shown += 1
        if once or (frames is not None and shown >= frames):
            return 0
        try:
            time.sleep(interval)
        except KeyboardInterrupt:
            return 0
