"""Engine self-profiling: wall-clock attribution for the hot loop.

The engine floor (~0.4 µs/op on the perf mix) cannot be attacked blind:
"the simulator is slow" is not actionable, "38% of wall time is inside
``frame.send`` and 22% inside the L2 directory" is.  This module measures
where *host* wall-clock time goes during a simulation, per architectural
op kind and per component:

=====================  ====================================================
label                  what it covers
=====================  ====================================================
``runtime.coroutine``  ``frame.send`` — app/runtime generator code between
                       yields (the paper's "software" side)
``op.<kind>``          the ``_op_*`` dispatch body for each op kind,
                       exclusive of the memory system underneath
``mem.l1``             L1 load/store/AMO/flush/invalidate, exclusive of L2
``mem.l2``             shared-L2 directory + bank operations, exclusive of
                       DRAM
``mem.dram``           DRAM controller accesses
``noc.uli``            ULI network latency computation
``trace.tracer``       tracer emission (only when a real tracer is wired)
``sanitize.walk``      coherence-sanitizer walks
``engine.loop``        everything not measured directly: heap push/pop,
                       event dispatch, the fusion test, Python interpreter
                       overhead between probes (computed as residual)
=====================  ====================================================

Attribution is **exclusive**: :class:`WallProfiler` keeps an enter/exit
stack and charges elapsed time to the label on top, so nested probes
(``op.load`` → ``mem.l1`` → ``mem.l2`` → ``mem.dram``) split one op's wall
time across the layers that actually spent it.

Cost model: profiling is **off by default** and gated per core by the
``Core._prof`` slot — a bare run pays exactly one ``is not None`` test per
trampoline entry (<3% on the perf mix, enforced by the wall-clock bench).
When on, every op pays a few ``perf_counter`` calls; simulated results are
bit-identical either way, only host time changes
(``tests/test_determinism.py`` asserts this).

``repro profile`` drives :func:`run_profile` over the perf mix and renders
:func:`format_profile`; ``--trace`` additionally writes a Chrome-trace
JSON (:func:`chrome_trace`) that catapult / Perfetto render as a
flamegraph-style timeline.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Dict, List, Optional

#: Components the acceptance criterion counts as "named": every label the
#: profiler can emit, including the residual.
RESIDUAL_LABEL = "engine.loop"


class WallProfiler:
    """Exclusive wall-time attribution via an enter/exit label stack.

    ``enter(label)`` charges the elapsed slice to the current top-of-stack
    label and pushes ``label``; ``exit()`` charges and pops.  Labels nest
    arbitrarily; the sum over ``seconds`` equals the wall time spent
    between the outermost enter and exit (minus probe overhead, which ends
    up in the enclosing label).
    """

    __slots__ = ("seconds", "calls", "_stack", "op_labels")

    def __init__(self):
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: [label, timestamp-of-last-charge] pairs (lists: slot 1 mutates).
        self._stack: List[list] = []
        #: Interned "op.<kind>" strings so the hot loop never formats.
        self.op_labels: Dict[str, str] = {}

    def enter(self, label: str) -> None:
        now = time.perf_counter()
        stack = self._stack
        if stack:
            top = stack[-1]
            self.seconds[top[0]] += now - top[1]
        stack.append([label, now])
        self.calls[label] += 1

    def exit(self) -> None:
        now = time.perf_counter()
        label, since = self._stack.pop()
        self.seconds[label] += now - since
        if self._stack:
            self._stack[-1][1] = now

    def op_label(self, kind: str) -> str:
        label = self.op_labels.get(kind)
        if label is None:
            label = self.op_labels[kind] = f"op.{kind}"
        return label

    def wrap(self, obj, method_names, label: str) -> None:
        """Instance-level wrap of bound methods, charging ``label``."""
        for name in method_names:
            fn = getattr(obj, name)
            setattr(obj, name, _probe(self, label, fn))


def _probe(prof: WallProfiler, label: str, fn):
    def probed(*args, **kwargs):
        prof.enter(label)
        try:
            return fn(*args, **kwargs)
        finally:
            prof.exit()

    return probed


#: Methods wrapped per component.  These are the complete call surface the
#: cores use; anything else (snoop paths) is invoked from within these and
#: lands in the right bucket via nesting.
_L1_METHODS = ("load", "store", "amo", "invalidate_all", "flush_all")
_L2_METHODS = (
    "fetch_shared",
    "fetch_exclusive",
    "upgrade",
    "writeback_line",
    "write_through_word",
    "amo_word",
    "read_word_bypass",
    "eviction_notice",
)
_DRAM_METHODS = ("access",)
_ULI_METHODS = ("send_latency",)
_TRACER_METHODS = ("core_state", "push_state", "pop_state", "counter_sample")
_SANITIZER_METHODS = ("check_now",)


class EngineProfiler:
    """Wires a :class:`WallProfiler` into one machine's hot paths.

    ``install`` arms the per-core trampoline probe (``core._prof``) and
    wraps the memory/NoC/tracer/sanitizer entry points as instance
    attributes — the classes themselves are untouched, so a profiled
    machine coexists with bare machines in one process.
    """

    def __init__(self, profiler: Optional[WallProfiler] = None):
        self.wall = profiler if profiler is not None else WallProfiler()
        #: Host seconds for the whole run (set by the driver around
        #: ``runtime.run``); the residual is measured against this.
        self.total_wall = 0.0

    def install(self, machine) -> "EngineProfiler":
        prof = self.wall
        for core in machine.cores:
            core._prof = prof
        for l1 in machine.l1s:
            prof.wrap(l1, _L1_METHODS, "mem.l1")
        prof.wrap(machine.l2, _L2_METHODS, "mem.l2")
        for dram in machine.l2.dram:
            prof.wrap(dram, _DRAM_METHODS, "mem.dram")
        if machine.uli_network is not None:
            prof.wrap(machine.uli_network, _ULI_METHODS, "noc.uli")
        if machine.tracer is not None and getattr(machine.tracer, "enabled", False):
            prof.wrap(machine.tracer, _TRACER_METHODS, "trace.tracer")
        if machine.sanitizer is not None:
            prof.wrap(machine.sanitizer, _SANITIZER_METHODS, "sanitize.walk")
        return self

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def attribution(self) -> dict:
        """Ranked attribution with the unmeasured residual made explicit."""
        measured = dict(self.wall.seconds)
        measured_total = sum(measured.values())
        total = max(self.total_wall, measured_total)
        residual = max(0.0, total - measured_total)
        rows = [
            {
                "component": label,
                "seconds": secs,
                "calls": self.wall.calls.get(label, 0),
                "share": secs / total if total > 0 else 0.0,
            }
            for label, secs in measured.items()
        ]
        rows.append(
            {
                "component": RESIDUAL_LABEL,
                "seconds": residual,
                "calls": 0,
                "share": residual / total if total > 0 else 0.0,
            }
        )
        rows.sort(key=lambda r: r["seconds"], reverse=True)
        return {
            "total_wall_s": total,
            "measured_wall_s": measured_total,
            # Fraction of wall time attributed by direct probes (the
            # residual bucket is named but not *measured*).
            "coverage": measured_total / total if total > 0 else 0.0,
            "components": rows,
        }


# ----------------------------------------------------------------------
# The `repro profile` driver
# ----------------------------------------------------------------------
def profile_entry(entry, profiler: Optional[EngineProfiler] = None) -> EngineProfiler:
    """Run one perf-mix entry under a profiled machine.

    Mirrors ``repro.harness.perf._run_once`` (fresh machine, fusion on) so
    the attribution describes the same workload the wall-clock bench
    measures.  Passing one ``profiler`` across entries accumulates a
    mix-wide attribution.
    """
    from repro.apps import make_app
    from repro.config import make_config
    from repro.core import WorkStealingRuntime
    from repro.harness.params import app_params
    from repro.machine import Machine

    prof = profiler if profiler is not None else EngineProfiler()
    app = make_app(entry.app, **app_params(entry.app, entry.scale))
    machine = Machine(make_config(entry.kind, entry.scale))
    app.setup(machine)
    prof.install(machine)
    kwargs = {"serial_elision": True} if entry.serial else {}
    runtime = WorkStealingRuntime(machine, **kwargs)
    start = time.perf_counter()
    runtime.run(app.make_root(serial=False))
    prof.total_wall += time.perf_counter() - start
    app.check()
    return prof


def run_profile(mix=None, repeats: int = 1, quick: bool = False) -> dict:
    """Profile the perf mix; returns the attribution payload."""
    from repro.harness.perf import DEFAULT_MIX, SMOKE_MIX

    if mix is None:
        mix = list(SMOKE_MIX if quick else DEFAULT_MIX)
    prof = EngineProfiler()
    for entry in mix:
        for _ in range(max(1, repeats)):
            profile_entry(entry, prof)
    payload = prof.attribution()
    payload["mix"] = [
        {"app": e.app, "kind": e.kind, "scale": e.scale, "serial": e.serial}
        for e in mix
    ]
    payload["repeats"] = repeats
    return payload


def format_profile(payload: dict) -> str:
    """Ranked attribution table for the CLI."""
    total = payload["total_wall_s"]
    lines = [
        f"profiled wall time: {total:.3f}s  "
        f"(direct probe coverage {100 * payload['coverage']:.1f}%)",
        f"{'component':<20} {'seconds':>9} {'share':>7} {'calls':>12}",
    ]
    for row in payload["components"]:
        if row["seconds"] <= 0 and row["calls"] == 0:
            continue
        lines.append(
            f"{row['component']:<20} {row['seconds']:>9.4f} "
            f"{100 * row['share']:>6.1f}% {row['calls']:>12}"
        )
    return "\n".join(lines)


def chrome_trace(payload: dict) -> dict:
    """Attribution as Chrome trace-event JSON (flamegraph-style).

    Each component becomes one complete ("X") event laid out sequentially
    on a single track, sized by its exclusive seconds — load the file in
    ``chrome://tracing`` / Perfetto and the width ordering *is* the ranked
    attribution.  (A true call-by-call timeline would be gigabytes for a
    perf-mix run; this is the summary view.)
    """
    events = []
    t_us = 0.0
    for row in payload["components"]:
        dur_us = row["seconds"] * 1e6
        if dur_us <= 0:
            continue
        events.append(
            {
                "name": row["component"],
                "ph": "X",
                "ts": t_us,
                "dur": dur_us,
                "pid": 1,
                "tid": 1,
                "args": {"calls": row["calls"], "share": row["share"]},
            }
        )
        t_us += dur_us
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_profile(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_chrome_trace(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(payload), fh)
        fh.write("\n")
