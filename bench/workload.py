"""One benchmark workload, measured in its own process.

``run.py`` starts this file once per workload (and a few more times with
``--setup-only`` to sample set-up time)::

    python3 bench/workload.py --workload serial-elision --seed 0 --seconds 25 --trace 0

It prints one JSON record as the last line of stdout.  Every workload
repeats a fixed *unit* of work (a sweep or a pass of simulations) until
the next unit would overrun ``--seconds``; every timing is the fastest
repetition (``run.timing``; for in-process passes, simulation by
simulation, summed over the pass).  See README.md for why each workload
exists and how to read the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"workload.py: no simulator sources at {SRC}")
sys.path.insert(0, str(SRC))

from repro.apps import PAPER_APPS, make_app  # noqa: E402
from repro.config import make_config  # noqa: E402
from repro.config.system import DTS_KINDS, HCC_KINDS  # noqa: E402
from repro.core import WorkStealingRuntime  # noqa: E402
from repro.harness import runner  # noqa: E402
from repro.harness.export import result_to_dict  # noqa: E402
from repro.harness.grid import GridPoint, run_grid  # noqa: E402
from repro.harness.params import app_params  # noqa: E402
from repro.machine import Machine  # noqa: E402
from repro.obs.ledger import read_ledger, set_ledger  # noqa: E402
from repro.obs.profile import RESIDUAL_LABEL, EngineProfiler  # noqa: E402
from run import WORKLOADS, fastest_cpu, timing  # noqa: E402

SWEEPS = ("table3-cold", "table3-warm")

#: Table III configurations in the order ``repro.harness.tables.table3``
#: submits them (after the serial-io elision of every app).
TABLE3_KINDS = ("o3x1", "o3x4", "o3x8", "bt-mesi") + tuple(HCC_KINDS) + tuple(DTS_KINDS)
#: Every 7th point of the 143-point quick Table III grid: 21 points that
#: still cover all 13 apps and all 11 configurations (7 is coprime with
#: the 11 points per app), sized so one cold sweep takes ~5 s on 2 vCPUs
#: and several sweeps fit one run.
TABLE3_STRIDE = 7
#: Warm sweeps per unit (~70 ms).  Warm reruns use one job, the CLI
#: default: with worker processes, each instant job waits out the grid's
#: 20 ms poll one or two times depending on how busy the host is, and
#: that alone moved whole runs by 25 % on 2 vCPUs.
WARM_PASSES = 20
#: The many-core mix: L2-directory-heavy apps on MESI, write-through HCC
#: and DTS (the only configuration family that uses ULI steals).
MANYCORE_KINDS = ("bt-mesi", "bt-hcc-gwt", "bt-hcc-dts-gwb")
#: Inputs below the quick scale: every app still makes more tasks
#: (88-268) than the machine has cores, and a pass of all twelve
#: simulations takes ~3 s on 2 vCPUs, so a run repeats each simulation
#: often enough to see it unslowed.
MANYCORE_INPUTS = {
    "cilk5-cs": dict(n=256, grain=16),
    "ligra-bfs": dict(scale=6, grain=4),
    "ligra-cc": dict(scale=6, grain=4),
    "ligra-tc": dict(scale=6, grain=4),
}
#: Units every run measures, even past ``--seconds``.
MIN_UNITS = 3
#: ``--smoke``: the same workloads with two apps on the 4-core machine.
SMOKE_APPS = ("cilk5-cs", "ligra-bfs")

#: Profiler labels (repro.obs.profile) reported as layers under the same
#: name; ``runtime.coroutine``, ``op.*`` and the residual are mapped apart.
PROFILED_LAYERS = ("mem.l1", "mem.l2", "mem.dram", "noc.uli")


@dataclass
class Point:
    """Outcome of one simulation or grid point inside a unit."""

    digest: str
    result: Optional[dict] = None
    error: Optional[str] = None
    #: Host time of an in-process simulation (0 for grid points, which
    #: run in parallel and only have a sweep total).
    wall_s: float = 0.0
    cpu_s: float = 0.0
    setup_s: float = 0.0
    check_s: float = 0.0
    events: int = 0
    fused: int = 0


@dataclass
class Unit:
    """One repetition of a workload's fixed work, reduced to its totals and
    per-point times, so a long run keeps no result dicts but the
    reference unit's."""

    wall_s: float
    cpu_s: float
    attempted: int
    #: Points that raised, failed, or differ from the reference unit.
    failed: int
    instructions: int
    events: int
    fused: int
    setup_s: float
    check_s: float
    #: Per-simulation host times of an in-process pass, in order.
    point_wall: List[float]
    point_cpu: List[float]
    #: EngineProfiler of a profiled in-process unit.
    profile: Optional[EngineProfiler] = None
    #: Run-ledger entries of a ledger-armed sweep.
    ledger: List[dict] = field(default_factory=list)


class Reference:
    """The first unit's points; every later unit must repeat their results,
    because the simulator is deterministic (a unit of several passes
    repeats them once per pass)."""

    def __init__(self):
        self.points: List[Point] = []

    def unit(self, wall: float, cpu: float, points: List[Point], **extra) -> Unit:
        if not self.points:
            self.points = points
        ref = self.points
        differ = sum(p.error is None and p.digest != ref[i % len(ref)].digest
                     for i, p in enumerate(points))
        ok = [p for p in points if p.error is None]
        return Unit(
            wall, cpu, len(points), len(points) - len(ok) + differ,
            instructions=sum(p.result["instructions"] for p in ok),
            events=sum(p.events for p in ok), fused=sum(p.fused for p in ok),
            setup_s=sum(p.setup_s for p in ok), check_s=sum(p.check_s for p in ok),
            point_wall=[p.wall_s for p in points], point_cpu=[p.cpu_s for p in points],
            **extra,
        )


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def seed_overrides(app: str, seed: int):
    """(app overrides, config overrides) for workload seed ``seed``.

    Seed 0 keeps the paper's fixed inputs.  Any other seed reseeds every
    app input generator that takes a seed and the machine RNG (victim
    selection); the simulator sees only the generated inputs.
    """
    if not seed:
        return None, None
    # Only the class matters, which is the same at every scale.
    app_cls = type(make_app(app, **app_params(app, "tiny")))
    takes_seed = "seed" in inspect.signature(app_cls).parameters
    return ({"seed": seed} if takes_seed else None), {"seed": seed}


def table3_points(seed: int, smoke: bool) -> List[GridPoint]:
    apps, scale = (SMOKE_APPS, "tiny") if smoke else (PAPER_APPS, "quick")
    cells = [(app, "serial-io", True) for app in apps]
    cells += [(app, kind, False) for app in apps for kind in TABLE3_KINDS]
    if not smoke:
        cells = cells[::TABLE3_STRIDE]
    points = []
    for app, kind, serial in cells:
        app_ov, cfg_ov = seed_overrides(app, seed)
        points.append(
            GridPoint(app, kind, scale, serial=serial,
                      app_overrides=app_ov, config_overrides=cfg_ov)
        )
    return points


def inprocess_points(workload: str, seed: int, smoke: bool) -> List[GridPoint]:
    """The simulations of one in-process pass (run by ``simulate``, not the
    grid, which cannot take the many-core Ligra graph sizes)."""
    kinds = ("serial-io",) if workload == "serial-elision" else MANYCORE_KINDS
    if smoke:
        apps, scale, inputs = SMOKE_APPS, "tiny", {}
    elif workload == "serial-elision":
        # Quick, not paper, inputs: a pass takes ~1.3 s instead of ~6.5 s,
        # so a run repeats each simulation often enough to see it unslowed.
        apps, scale, inputs = PAPER_APPS, "quick", {}
    else:
        apps, scale, inputs = tuple(MANYCORE_INPUTS), "paper", MANYCORE_INPUTS
    points = []
    for app in apps:
        app_ov, cfg_ov = seed_overrides(app, seed)
        for kind in kinds:
            points.append(GridPoint(
                app, kind, scale, serial=(kind == "serial-io"),
                app_overrides={**inputs.get(app, {}), **(app_ov or {})} or None,
                config_overrides=cfg_ov,
            ))
    return points


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def cpu_seconds() -> float:
    """User + sys CPU of this process and every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def measure(fn: Callable[[], list]):
    """(fn's value, wall seconds, CPU seconds) of one call."""
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    value = fn()
    wall = time.perf_counter() - start
    return value, wall, cpu_seconds() - cpu0


def repeat_for(seconds: float, fn: Callable[[], object]) -> list:
    """Call ``fn`` MIN_UNITS times, then again while the next call, taking
    as long as the last one, would still end within ``seconds``."""
    outputs = []
    start = time.monotonic()
    while True:
        before = time.monotonic()
        outputs.append(fn())
        now = time.monotonic()
        if len(outputs) >= MIN_UNITS and now - start + (now - before) > seconds:
            return outputs


def digest_of(result: dict) -> str:
    return hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()


def failed_digest(error: str) -> str:
    return hashlib.sha256(f"failed:{error}".encode()).hexdigest()


class Spans:
    """Chrome-trace spans kept in memory and written once at exit.

    Every span carries its own ``id`` and its parent's; the spans of one
    simulation also share a ``point`` id.  A disabled recorder keeps
    nothing, so untraced runs pay only the id counter.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.events: List[dict] = []
        self._next_id = 0
        self._t0 = time.perf_counter()

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def add(self, name, start, end, parent=None, span_id=None, tid=1, **args) -> int:
        span_id = span_id if span_id is not None else self.new_id()
        if not self.enabled:
            return span_id
        self.events.append({
            "name": name, "ph": "X", "pid": 1, "tid": tid,
            "ts": (start - self._t0) * 1e6, "dur": (end - start) * 1e6,
            "args": dict(args, id=span_id, parent=parent),
        })
        return span_id

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": self.events, "displayTimeUnit": "ms"}, fh)
            fh.write("\n")


# ----------------------------------------------------------------------
# Units
# ----------------------------------------------------------------------
def simulate(point: GridPoint, spans: Spans, parent: int,
             profile: Optional[EngineProfiler] = None) -> Point:
    """Build, run and check one simulation through the public API."""
    label = f"{point.app} {point.kind} {point.scale}"
    point_id = spans.new_id()
    before = dict(profile.wall.seconds) if profile is not None else {}
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        # Merged here rather than by app_params(app, scale, **overrides),
        # whose ``scale`` argument shadows the Ligra graph-size parameter.
        app = make_app(point.app, **{**app_params(point.app, point.scale),
                                     **(point.app_overrides or {})})
        machine = Machine(make_config(point.kind, point.scale,
                                      **(point.config_overrides or {})))
        app.setup(machine)
        t1 = time.perf_counter()
        if profile is not None:
            profile.install(machine)
        runtime = WorkStealingRuntime(machine, serial_elision=point.serial)
        cycles = runtime.run(app.make_root(serial=False))
        t2 = time.perf_counter()
        app.check()
        t3 = time.perf_counter()
        result = result_to_dict(runner.assemble_result(
            point.app, point.kind, point.scale, point.serial, machine, runtime, cycles
        ))
    except Exception as exc:  # counted as a failed point, never raised
        end = time.perf_counter()
        spans.add(label, t0, end, parent, span_id=point_id, point=point_id, error=repr(exc))
        return Point(failed_digest(type(exc).__name__), error=repr(exc),
                     wall_s=end - t0, cpu_s=cpu_seconds() - cpu0)
    end = time.perf_counter()
    cpu = cpu_seconds() - cpu0
    layer_s = {}
    if profile is not None:
        profile.total_wall += t2 - t1
        layer_s = {k: v - before.get(k, 0.0) for k, v in profile.wall.seconds.items()}
        layer_s[RESIDUAL_LABEL] = (t2 - t1) - sum(layer_s.values())
    spans.add(label, t0, end, parent, span_id=point_id, point=point_id,
              cycles=cycles, layer_s=layer_s)
    for name, start, stop in (("setup", t0, t1), ("run", t1, t2), ("check", t2, t3)):
        spans.add(name, start, stop, point_id, point=point_id)
    fusion = machine.sim.fusion_stats()
    return Point(digest_of(result), result=result, wall_s=end - t0, cpu_s=cpu,
                 setup_s=t1 - t0, check_s=t3 - t2, events=fusion["events_total"],
                 fused=fusion["events_fused"])


def inprocess_unit(work: List[GridPoint], reference: Reference, spans: Spans, name: str,
                   parent: int, profiled: bool = False) -> Unit:
    """One pass over ``work``, each simulation issued when the previous one
    ends, on the CPU that is faster at that moment (the probe is not part
    of any time)."""
    profile = EngineProfiler() if profiled else None
    unit_id = spans.new_id()
    start = time.perf_counter()
    points = []
    for point in work:
        fastest_cpu()
        points.append(simulate(point, spans, unit_id, profile))
    unit = reference.unit(sum(p.wall_s for p in points), sum(p.cpu_s for p in points),
                          points, profile=profile)
    spans.add(name, start, time.perf_counter(), parent, span_id=unit_id,
              profiled=profiled)
    return unit


def sweep_unit(points: List[GridPoint], jobs: int, store_dir: Path, reference: Reference,
               spans: Spans, parent: int, ledger_path: Optional[Path] = None,
               passes: int = 1) -> Unit:
    """``passes`` ``run_grid`` sweeps of ``points`` against the store at
    ``store_dir``.

    The memo cache is cleared before each pass, so every point goes to the
    store (or simulates); ``on_error="record"`` turns a failing point into
    a counted ``FailedResult`` instead of aborting the sweep.  With
    ``ledger_path`` the run ledger is armed and its lines become the
    unit's per-point record.
    """
    def sweeps() -> list:
        results = []
        for _ in range(passes):
            runner.clear_cache()
            results += run_grid(points, jobs=jobs, on_error="record", progress=False)
        return results

    runner.set_result_store(str(store_dir))
    if ledger_path is not None:
        set_ledger(str(ledger_path))
    start = time.perf_counter()
    try:
        results, wall, cpu = measure(sweeps)
    finally:
        set_ledger(None)
        runner.set_result_store(None)
    unit = reference.unit(wall, cpu, [grid_point(result) for result in results])
    sweep_id = spans.add("run_grid", start, start + wall, parent, points=len(points),
                         passes=passes, jobs=jobs, ledger=ledger_path is not None)
    if ledger_path is not None:
        unit.ledger = [e for e in read_ledger(ledger_path) if e.get("source") == "runner"]
        # Ledger lines carry wall-clock end times; the spans use perf_counter.
        offset = time.perf_counter() - time.time()
        for entry in unit.ledger:
            end = entry["ts"] + offset
            spans.add(f"{entry['app']} {entry['kind']}", end - entry["wall_s"], end,
                      sweep_id, tid=entry["pid"], outcome=entry["outcome"])
    return unit


def grid_point(result) -> Point:
    """A ``run_grid`` result slot: an ExperimentResult or a FailedResult."""
    if getattr(result, "failed", False):
        return Point(failed_digest(result.error), error=result.error)
    data = result_to_dict(result)
    return Point(digest_of(data), result=data)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def summed_timing(passes: List[List[float]]) -> dict:
    """A pass's time as the sum, simulation by simulation, of each one's
    ``timing`` over the passes: a host stall that slows one simulation of
    one pass moves no statistic."""
    per_point = [timing(list(times)) for times in zip(*passes)]
    summed = {key: sum(t[key] for t in per_point) for key in ("value", "median", "q3")}
    summed["n"] = len(passes)
    return summed


def end_to_end(units: List[Unit], inprocess: bool) -> Dict[str, dict]:
    if inprocess:
        wall = summed_timing([u.point_wall for u in units])
        cpu = summed_timing([u.point_cpu for u in units])
    else:
        wall = timing([u.wall_s for u in units])
        cpu = timing([u.cpu_s for u in units])
    # Every unit simulates the same instructions (or serves them from the store).
    kinstr = statistics.median(u.instructions for u in units) / 1e3
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "sim_kips": {"value": kinstr / wall["value"], "median": kinstr / wall["median"],
                     "n": wall["n"]},
        "peak_rss_mb": {"value": peak_rss_mb(), "n": 1},
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def median_wall(units: List[Unit]) -> float:
    return statistics.median(u.wall_s for u in units) if units else 0.0


def simulated_layers(points: List[Point]) -> Dict[str, float]:
    """Simulated statistics of the reference points (they repeat exactly)."""
    results = [p.result for p in points if p.result]
    total = lambda key: sum(r[key] for r in results)  # noqa: E731
    return {
        "runtime.tasks": total("tasks"),
        "runtime.steals": total("steals"),
        "runtime.steal_success_ratio": ratio(total("steals"), total("steal_attempts")),
        "mem.l1.hit_rate_tiny": ratio(total("l1_hit_rate_tiny"), len(results)),
        "mem.l1.lines_invalidated": total("lines_invalidated"),
        "mem.l1.lines_flushed": total("lines_flushed"),
        "noc.uli.nack_ratio": ratio(total("uli_nacks"),
                                    total("uli_handled") + total("uli_nacks")),
        "noc.traffic_bytes": sum(sum(r["traffic_bytes"].values()) for r in results),
    }


def host_layers(units: List[Unit]) -> Dict[str, float]:
    """Per-unit host time by simulator layer, from profiled units."""
    values = {name: 0.0 for name in (
        "engine.events", "engine.fused_ratio", "engine.self_us_per_event",
        "engine.share", "runtime.self_us_per_event", "runtime.share",
        "cores.ops", "cores.self_us_per_op", "cores.share",
        "apps.setup_s", "apps.check_s",
    )}
    for layer in PROFILED_LAYERS:
        for suffix in ("calls", "self_us_per_call", "share"):
            values[f"{layer}.{suffix}"] = 0.0
    if not units:
        return values
    n = len(units)
    seconds: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    total_wall = 0.0
    events = fused = 0
    for unit in units:
        for label, secs in unit.profile.wall.seconds.items():
            seconds[label] = seconds.get(label, 0.0) + secs
        for label, count in unit.profile.wall.calls.items():
            calls[label] = calls.get(label, 0) + count
        total_wall += unit.profile.total_wall
        events += unit.events
        fused += unit.fused
    residual = max(0.0, total_wall - sum(seconds.values()))
    op_seconds = sum(v for k, v in seconds.items() if k.startswith("op."))
    op_calls = sum(v for k, v in calls.items() if k.startswith("op."))
    values.update({
        "engine.events": events / n,
        "engine.fused_ratio": ratio(fused, events),
        "engine.self_us_per_event": ratio(residual, events) * 1e6,
        "engine.share": ratio(residual, total_wall),
        "runtime.self_us_per_event": ratio(seconds.get("runtime.coroutine", 0.0), events) * 1e6,
        "runtime.share": ratio(seconds.get("runtime.coroutine", 0.0), total_wall),
        "cores.ops": op_calls / n,
        "cores.self_us_per_op": ratio(op_seconds, op_calls) * 1e6,
        "cores.share": ratio(op_seconds, total_wall),
        "apps.setup_s": statistics.median(u.setup_s for u in units),
        "apps.check_s": statistics.median(u.check_s for u in units),
    })
    for layer in PROFILED_LAYERS:
        values[f"{layer}.calls"] = calls.get(layer, 0) / n
        values[f"{layer}.self_us_per_call"] = ratio(seconds.get(layer, 0.0), calls.get(layer, 0)) * 1e6
        values[f"{layer}.share"] = ratio(seconds.get(layer, 0.0), total_wall)
    return values


def grid_layers(units: List[Unit], jobs: int) -> Dict[str, float]:
    """Grid and result-store metrics from ledger-armed sweeps."""
    values = {name: 0.0 for name in (
        "grid.points", "grid.parallel_eff", "grid.overhead_ms_per_point",
        "grid.point_p50_ms", "grid.point_p90_ms", "grid.failed_points",
        "store.hits", "store.misses", "store.hit_ms_p50",
    )}
    if not units:
        return values
    point_ms = [1e3 * e["wall_s"] for u in units for e in u.ledger if e.get("wall_s") is not None]
    hit_ms = [1e3 * e["wall_s"] for u in units for e in u.ledger if e["outcome"] == "store-hit"]
    busy = [sum(e.get("wall_s") or 0.0 for e in u.ledger) for u in units]
    points = units[0].attempted
    values.update({
        "grid.points": points,
        "grid.parallel_eff": statistics.median(
            b / (jobs * u.wall_s) for b, u in zip(busy, units)),
        "grid.overhead_ms_per_point": statistics.median(
            1e3 * (jobs * u.wall_s - b) / points for b, u in zip(busy, units)),
        "grid.point_p50_ms": statistics.median(point_ms) if point_ms else 0.0,
        "grid.point_p90_ms": (statistics.quantiles(point_ms, n=10)[-1]
                              if len(point_ms) > 1 else sum(point_ms)),
        "grid.failed_points": statistics.median(u.failed for u in units),
        "store.hits": statistics.median(
            sum(e["outcome"] == "store-hit" for e in u.ledger) for u in units),
        "store.misses": statistics.median(
            sum(e["outcome"] in ("ok", "failed") for e in u.ledger) for u in units),
        "store.hit_ms_p50": statistics.median(hit_ms) if hit_ms else 0.0,
    })
    return values


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def inputs_for(workload: str, seed: int, smoke: bool) -> List[GridPoint]:
    if workload in SWEEPS:
        return table3_points(seed, smoke)
    return inprocess_points(workload, seed, smoke)


def run_workload(workload: str, work: List[GridPoint], seed: int, seconds: float,
                 trace: bool, scratch: Path, spans: Spans) -> dict:
    """Repeat the workload's unit for ``seconds``; return its record.

    Untraced units give the end-to-end metrics.  With ``trace`` every
    untraced unit is followed by a traced one (EngineProfiler on the
    simulations, the run ledger on the sweeps), and ``table3-cold`` adds an
    in-process replay of its points, plain and profiled, for the simulator
    layers.
    """
    nproc = len(os.sched_getaffinity(0))
    # Cold sweeps fan out over every CPU; warm reruns use the CLI default
    # of one job (see WARM_PASSES).
    jobs = 1 if workload == "table3-warm" else nproc
    top = spans.new_id()
    start = time.perf_counter()
    record: dict = {"workload": workload, "jobs": jobs, "prefill_s": 0.0}
    reference = Reference()
    prefill: List[Unit] = []
    if workload in SWEEPS:
        warm_store = scratch / "store-warm" if workload == "table3-warm" else None
        if warm_store is not None:
            # Not timed: the warm workload reads a store someone filled.
            prefill.append(sweep_unit(work, nproc, warm_store, reference, spans, top))
            record["prefill_s"] = time.perf_counter() - start
        units = itertools.count()

        def unit(traced: bool) -> Unit:
            n = next(units)
            if warm_store is not None:
                fastest_cpu()  # one job runs in this process; cold sweeps use every CPU
            store = warm_store or scratch / f"store-{n}"
            try:
                return sweep_unit(work, jobs, store, reference, spans, top,
                                  scratch / f"ledger-{n}.jsonl" if traced else None,
                                  passes=1 if warm_store is None else WARM_PASSES)
            finally:
                if warm_store is None:
                    shutil.rmtree(store, ignore_errors=True)
    else:
        def unit(traced: bool) -> Unit:
            return inprocess_unit(work, reference, spans, "pass", top, profiled=traced)

    if trace:
        pairs = repeat_for(seconds, lambda: (unit(False), unit(True)))
        timed = [pair[0] for pair in pairs]
        traced = [pair[1] for pair in pairs]
    else:
        timed = repeat_for(seconds, lambda: unit(False))
        traced = []
    replay: List[Unit] = []
    if trace and workload == "table3-cold":
        replay = [inprocess_unit(work, reference, spans, "replay", top, profiled=p)
                  for p in (False, True)]
    spans.add(workload, start, time.perf_counter(), None, span_id=top, seed=seed)

    every = prefill + timed + traced + replay
    record.update({
        "attempted": sum(u.attempted for u in every),
        "failed": sum(u.failed for u in every),
        "point_digests": [p.digest for p in reference.points],
        "result_digest": hashlib.sha256(
            "".join(p.digest for p in reference.points).encode()).hexdigest(),
        "metrics": end_to_end(timed, inprocess=workload not in SWEEPS),
    })
    if trace:
        if workload in SWEEPS:
            ledgered, plain, profiled = traced, replay[:1], replay[1:]
        else:
            ledgered, plain, profiled = [], timed, traced
        layers = simulated_layers(reference.points)
        layers.update(host_layers(profiled))
        layers.update(grid_layers(ledgered, jobs))
        layers["obs.profile_overhead_ratio"] = ratio(median_wall(profiled), median_wall(plain))
        layers["obs.ledger_overhead_ratio"] = ratio(median_wall(ledgered), median_wall(timed))
        record["layers"] = layers
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit where the timed phase would start")
    parser.add_argument("--spans", type=Path, help="Chrome-trace file (--trace 1)")
    args = parser.parse_args(argv)

    # Set-up as a user pays it once per command: interpreter start, the
    # imports at the top of this file, the work list, a store directory.
    work = inputs_for(args.workload, args.seed, args.smoke)
    scratch = BENCH_DIR / "out" / f"tmp-{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    setup_done = time.monotonic()
    try:
        record = {}
        if not args.setup_only:
            spans = Spans(enabled=bool(args.trace))
            record = run_workload(args.workload, work, args.seed, args.seconds,
                                  bool(args.trace), scratch, spans)
            if args.trace and args.spans is not None:
                spans.write(args.spans)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record["setup_done"] = setup_done
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
