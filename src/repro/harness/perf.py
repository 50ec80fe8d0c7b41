"""Wall-clock throughput benchmark for the simulator itself.

Runs a fixed mix of app×config entries twice — once with the event-fusion
fast path enabled and once with it disabled — and reports host throughput
(simulated cycles per second, events per second) plus the fused/unfused
speedup.  Every run pair is differentially verified: ``StatGroup.flatten``
must be identical between the two modes, turning the benchmark into a
determinism proof as well as a stopwatch.

The default mix is deliberately weighted toward dispatch-bound runs
(the ``kernel-*`` throughput microkernels and serial-elision baselines):
those measure the engine itself, which is what the fast path accelerates.
Task-parallel runs on many-core configs appear too, but their event
streams interleave across cores, so little fuses and their speedup is
intentionally modest — the benchmark records the ratio per entry.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs import host_fingerprint

#: Result schema version for BENCH_wallclock.json.
#: 2: added the ``sampled`` section (exact-vs-sampled speedup + error).
#: 3: added a ``parallel`` section (replica-run speedup), since removed;
#:    the number stays so existing schema-3 baselines keep reading.
BENCH_SCHEMA = 3


@dataclass(frozen=True)
class PerfEntry:
    """One benchmarked simulation."""

    app: str
    kind: str
    scale: str
    serial: bool = False


@dataclass(frozen=True)
class SampledPerfEntry:
    """One exact-vs-sampled benchmark pair (repro.sampling)."""

    app: str
    kind: str
    scale: str
    #: Sampling spec "U:W:D[:Q]" (see repro.sampling.spec).
    spec: str = "60000:20000:6000"


#: The tier-1 bench mix (EXPERIMENTS.md quotes numbers for this list).
DEFAULT_MIX: Tuple[PerfEntry, ...] = (
    PerfEntry("kernel-spin", "serial-io", "large", serial=True),
    PerfEntry("kernel-spin", "serial-io", "quick", serial=True),
    PerfEntry("kernel-stream", "serial-io", "quick", serial=True),
    PerfEntry("cilk5-cs", "serial-io", "quick", serial=True),
    PerfEntry("ligra-bfs", "serial-io", "quick", serial=True),
    PerfEntry("cilk5-cs", "bt-hcc-dts-dnv", "tiny"),
)

#: Small mix for CI smoke runs (seconds, not minutes).
SMOKE_MIX: Tuple[PerfEntry, ...] = (
    PerfEntry("kernel-spin", "serial-io", "tiny", serial=True),
    PerfEntry("kernel-stream", "serial-io", "tiny", serial=True),
    PerfEntry("cilk5-cs", "bt-hcc-dts-dnv", "tiny"),
)

#: The large-scale sampled mix: the sampling-qualified apps (the same
#: two that pass differential validation at paper scale — see
#: repro.sampling.differential) on the 256-core machine, at throughput
#: specs with idle stretching on.  These specs trade accuracy for wall
#: clock deliberately: the benchmark records the estimation error of
#: every regeneration next to the speedup (EXPERIMENTS.md quotes both),
#: and the stretch values are measured operating points on this machine
#: shape — the error is NOT monotone in the stretch factor (window
#: placement interacts with the app's phase structure), so treat any
#: retuning as a measurement exercise, not a knob to crank.
SAMPLED_MIX: Tuple[SampledPerfEntry, ...] = (
    SampledPerfEntry("ligra-bc", "bt-hcc-dnv", "large", "200000:16000:6000:2048:16"),
    SampledPerfEntry("ligra-bfs", "bt-hcc-dnv", "large", "200000:16000:6000:2048:24"),
)

#: Sampled smoke pair for CI (seconds).
SMOKE_SAMPLED_MIX: Tuple[SampledPerfEntry, ...] = (
    SampledPerfEntry("cilk5-cs", "bt-hcc-dts-dnv", "quick", "40000:16000:4000"),
)


def _run_once(entry: PerfEntry, fusion: bool) -> Dict:
    """Build a fresh machine, run the entry, return stats + wall time."""
    from repro.apps import make_app
    from repro.config import make_config
    from repro.core import WorkStealingRuntime
    from repro.harness.params import app_params
    from repro.machine import Machine

    app = make_app(entry.app, **app_params(entry.app, entry.scale))
    machine = Machine(make_config(entry.kind, entry.scale))
    app.setup(machine)
    machine.sim.fusion_enabled = fusion
    kwargs = {"serial_elision": True} if entry.serial else {}
    runtime = WorkStealingRuntime(machine, **kwargs)
    start = time.perf_counter()
    cycles = runtime.run(app.make_root(serial=False))
    wall = time.perf_counter() - start
    app.check()
    return {
        "wall": wall,
        "cycles": cycles,
        "flatten": machine.stats.flatten(),
        "fusion": machine.sim.fusion_stats(),
    }


def run_entry(entry: PerfEntry, repeats: int = 1) -> Dict:
    """Benchmark one entry fused and unfused; verify identical statistics.

    Wall time is the best of ``repeats`` runs per mode (standard practice
    for throughput benchmarks: the minimum is the least-noisy estimator).
    """
    fused = [_run_once(entry, fusion=True) for _ in range(repeats)]
    unfused = [_run_once(entry, fusion=False) for _ in range(repeats)]
    reference = fused[0]["flatten"]
    identical = all(r["flatten"] == reference for r in fused + unfused)
    if not identical:
        raise AssertionError(
            f"{entry.app}/{entry.kind}/{entry.scale}: fused and unfused "
            "runs disagree on StatGroup.flatten() — fusion changed results"
        )
    wall_fused = min(r["wall"] for r in fused)
    wall_unfused = min(r["wall"] for r in unfused)
    fusion = fused[0]["fusion"]
    cycles = fused[0]["cycles"]
    return {
        "app": entry.app,
        "kind": entry.kind,
        "scale": entry.scale,
        "serial": entry.serial,
        "cycles": cycles,
        "events": fusion["events_total"],
        "events_fused": fusion["events_fused"],
        "fused_ratio": fusion["fused_ratio"],
        "wall_fused_s": wall_fused,
        "wall_unfused_s": wall_unfused,
        "speedup": wall_unfused / wall_fused if wall_fused > 0 else 0.0,
        "sim_cycles_per_sec": cycles / wall_fused if wall_fused > 0 else 0.0,
        "events_per_sec": (
            fusion["events_total"] / wall_fused if wall_fused > 0 else 0.0
        ),
        "stats_identical": True,
    }


def _run_sampled_once(entry: SampledPerfEntry, spec: Optional[str]) -> Dict:
    """One leg of an exact-vs-sampled pair; spec None = exact."""
    from repro.apps import make_app
    from repro.config import make_config
    from repro.core import WorkStealingRuntime
    from repro.harness.params import app_params
    from repro.machine import Machine

    app = make_app(entry.app, **app_params(entry.app, entry.scale))
    machine = Machine(make_config(entry.kind, entry.scale))
    app.setup(machine)
    runtime = WorkStealingRuntime(machine)
    controller = None
    if spec is not None:
        from repro.sampling import SamplingController, SamplingSpec

        controller = SamplingController(machine, SamplingSpec.coerce(spec))
        controller.start()
    start = time.perf_counter()
    cycles = runtime.run(app.make_root(serial=False))
    wall = time.perf_counter() - start
    # Finalize before check: if the run ended mid-fast-forward, the L2
    # still holds stale copies of lines fast-forward wrote, and finalize
    # is what purges them (Machine.invalidate_ff_lines).
    if controller is not None:
        controller.finalize()
    app.check()
    out = {"wall": wall, "cycles": cycles, "instructions": machine.total_instructions()}
    if controller is not None:
        est = controller.estimates()
        if est is not None:
            out["cycles"] = est["cycles"]
            out["traffic"] = sum(est["traffic_bytes"].values())
            out["sampling"] = est["summary"]
        else:
            out["traffic"] = sum(machine.traffic.bytes.values())
            out["sampling"] = {"exact_fallback": True}
    else:
        out["traffic"] = sum(machine.traffic.bytes.values())
    return out


def run_sampled_entry(entry: SampledPerfEntry, repeats: int = 1) -> Dict:
    """Benchmark one exact-vs-sampled pair.

    The stopwatch covers ``runtime.run`` only (setup and check are mode
    independent); wall time is the best of ``repeats`` per leg.  The
    exact leg doubles as the truth reference for the sampled estimate's
    cycle and traffic error.
    """
    exact = [_run_sampled_once(entry, None) for _ in range(repeats)]
    sampled = [_run_sampled_once(entry, entry.spec) for _ in range(repeats)]
    wall_exact = min(r["wall"] for r in exact)
    wall_sampled = min(r["wall"] for r in sampled)
    cycles_exact = exact[0]["cycles"]
    cycles_est = sampled[0]["cycles"]
    traffic_exact = exact[0]["traffic"]
    traffic_est = sampled[0]["traffic"]
    return {
        "app": entry.app,
        "kind": entry.kind,
        "scale": entry.scale,
        "spec": entry.spec,
        "cycles_exact": cycles_exact,
        "cycles_sampled": cycles_est,
        "cycles_err_pct": (
            100.0 * (cycles_est - cycles_exact) / cycles_exact
            if cycles_exact
            else 0.0
        ),
        "traffic_err_pct": (
            100.0 * (traffic_est - traffic_exact) / traffic_exact
            if traffic_exact
            else 0.0
        ),
        "wall_exact_s": wall_exact,
        "wall_sampled_s": wall_sampled,
        "speedup": wall_exact / wall_sampled if wall_sampled > 0 else 0.0,
        "sampling": sampled[0].get("sampling", {}),
    }


def run_sampled_mix(
    mix: Optional[List[SampledPerfEntry]] = None, repeats: int = 1
) -> Dict:
    """Run the sampled mix; returns the payload's ``sampled`` section."""
    entries = [
        run_sampled_entry(e, repeats=repeats)
        for e in (mix or list(SAMPLED_MIX))
    ]
    wall_exact = sum(e["wall_exact_s"] for e in entries)
    wall_sampled = sum(e["wall_sampled_s"] for e in entries)
    return {
        "entries": entries,
        "aggregate": {
            "wall_exact_s": wall_exact,
            "wall_sampled_s": wall_sampled,
            "speedup": wall_exact / wall_sampled if wall_sampled > 0 else 0.0,
            "max_abs_cycles_err_pct": max(
                (abs(e["cycles_err_pct"]) for e in entries), default=0.0
            ),
            "max_abs_traffic_err_pct": max(
                (abs(e["traffic_err_pct"]) for e in entries), default=0.0
            ),
        },
    }


def run_mix(
    mix: Optional[List[PerfEntry]] = None, repeats: int = 1
) -> Dict:
    """Run the whole mix; return the BENCH_wallclock.json payload."""
    entries = [run_entry(e, repeats=repeats) for e in (mix or list(DEFAULT_MIX))]
    wall_fused = sum(e["wall_fused_s"] for e in entries)
    wall_unfused = sum(e["wall_unfused_s"] for e in entries)
    events = sum(e["events"] for e in entries)
    events_fused = sum(e["events_fused"] for e in entries)
    return {
        "schema": BENCH_SCHEMA,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        # Full host/python identity so the perf trajectory in
        # BENCH_wallclock.json stays attributable across machines.
        "host": host_fingerprint(),
        "repeats": repeats,
        "entries": entries,
        "aggregate": {
            "wall_fused_s": wall_fused,
            "wall_unfused_s": wall_unfused,
            "speedup": wall_unfused / wall_fused if wall_fused > 0 else 0.0,
            "events": events,
            "events_fused": events_fused,
            "fused_ratio": events_fused / events if events else 0.0,
            "events_per_sec": events / wall_fused if wall_fused > 0 else 0.0,
            "events_fused_per_sec": (
                events_fused / wall_fused if wall_fused > 0 else 0.0
            ),
        },
    }


def write_bench(payload: Dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_bench(path: str) -> Dict:
    with open(path) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Baseline comparison (repro perf --baseline)
# ----------------------------------------------------------------------
def _entry_key(entry: Dict) -> Tuple:
    return (entry["app"], entry["kind"], entry["scale"], entry.get("serial", False))


def compare_baseline(
    payload: Dict, baseline: Dict, tolerance: float = 0.15
) -> Dict:
    """Compare a fresh perf payload against a committed baseline.

    Throughput metrics (events/s per entry and for the mix, the mix
    fusion speedup, and the sampled-section speedup when both payloads
    carry one) may drop at most ``tolerance`` (fractional) below the
    baseline before they are flagged as regressions.  Improvements and
    entries missing from either side are reported but never flagged —
    the baseline file is a trajectory, not a straitjacket, and mixes
    evolve.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    comparisons = []
    regressions = []

    def check(label: str, new: float, old: float) -> None:
        if old <= 0:
            return
        delta = (new - old) / old
        row = {"label": label, "new": new, "old": old, "delta_pct": 100.0 * delta}
        comparisons.append(row)
        if delta < -tolerance:
            regressions.append(row)

    base_entries = {_entry_key(e): e for e in baseline.get("entries", [])}
    for entry in payload.get("entries", []):
        base = base_entries.get(_entry_key(entry))
        if base is None:
            continue
        label = "/".join(str(part) for part in _entry_key(entry)[:3])
        check(f"{label} events/s", entry["events_per_sec"], base["events_per_sec"])
    check(
        "mix events/s",
        payload["aggregate"]["events_per_sec"],
        baseline.get("aggregate", {}).get("events_per_sec", 0.0),
    )
    check(
        "mix fusion speedup",
        payload["aggregate"]["speedup"],
        baseline.get("aggregate", {}).get("speedup", 0.0),
    )
    if payload.get("sampled") and baseline.get("sampled"):
        check(
            "sampled mix speedup",
            payload["sampled"]["aggregate"]["speedup"],
            baseline["sampled"]["aggregate"]["speedup"],
        )
    return {
        "tolerance_pct": 100.0 * tolerance,
        "comparisons": comparisons,
        "regressions": regressions,
        "ok": not regressions,
    }


def format_baseline_report(report: Dict) -> str:
    lines = [
        f"{'metric':<44} {'baseline':>12} {'current':>12} {'delta':>8}"
    ]
    for row in report["comparisons"]:
        flag = "  <-- REGRESSION" if row in report["regressions"] else ""
        lines.append(
            f"{row['label']:<44} {row['old']:>12.3g} {row['new']:>12.3g} "
            f"{row['delta_pct']:>+7.1f}%{flag}"
        )
    verdict = (
        "OK: no metric regressed beyond "
        if report["ok"]
        else "FAIL: regression(s) beyond "
    )
    lines.append(f"{verdict}{report['tolerance_pct']:.0f}% tolerance")
    return "\n".join(lines)


def format_sampled_report(section: Dict) -> str:
    """Human-readable table for the payload's ``sampled`` section."""
    lines = [
        f"{'app':<14} {'config':<16} {'scale':<6} {'spec':<24} "
        f"{'cyc err':>8} {'speedup':>8}"
    ]
    for e in section["entries"]:
        lines.append(
            f"{e['app']:<14} {e['kind']:<16} {e['scale']:<6} {e['spec']:<24} "
            f"{e['cycles_err_pct']:>+7.2f}% {e['speedup']:>7.2f}x"
        )
    agg = section["aggregate"]
    lines.append(
        f"-- sampled mix: speedup {agg['speedup']:.2f}x "
        f"(exact {agg['wall_exact_s']:.1f}s vs sampled "
        f"{agg['wall_sampled_s']:.1f}s), max |cycles err| "
        f"{agg['max_abs_cycles_err_pct']:.2f}%"
    )
    return "\n".join(lines)


def format_report(payload: Dict) -> str:
    """Human-readable table for the CLI."""
    lines = [
        f"{'app':<14} {'config':<16} {'scale':<6} {'events':>9} "
        f"{'fused%':>7} {'Mev/s':>7} {'speedup':>8}"
    ]
    for e in payload["entries"]:
        lines.append(
            f"{e['app']:<14} {e['kind']:<16} {e['scale']:<6} "
            f"{e['events']:>9} {100 * e['fused_ratio']:>6.1f}% "
            f"{e['events_per_sec'] / 1e6:>7.2f} {e['speedup']:>7.2f}x"
        )
    agg = payload["aggregate"]
    lines.append(
        f"{'-- mix --':<38} {agg['events']:>9} "
        f"{100 * agg['fused_ratio']:>6.1f}% "
        f"{agg['events_per_sec'] / 1e6:>7.2f} {agg['speedup']:>7.2f}x"
    )
    return "\n".join(lines)
