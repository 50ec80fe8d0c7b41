"""Tests for the repro.trace subsystem (tracer, sampler, exporters, CLI)."""

import hashlib
import json

import pytest

from repro.__main__ import main
from repro.apps import resolve_app
from repro.config.system import resolve_kind
from repro.engine.simulator import Simulator
from repro.engine.stats import StatGroup
from repro.harness import run_experiment
from repro.trace import (
    NULL_TRACER,
    IntervalSampler,
    Tracer,
    chrome_trace_events,
    export_chrome_trace,
    format_activity_report,
    samples_to_csv,
    validate_chrome_trace,
    validate_trace_file,
)

POINT = dict(app_name="cilk5-cs", kind="bt-hcc-dts-dnv", scale="tiny")


def traced_run():
    tracer = Tracer()
    result = run_experiment(tracer=tracer, sample_interval=500, **POINT)
    return tracer, result


# ----------------------------------------------------------------------
# Tracing must not perturb the simulation
# ----------------------------------------------------------------------
def test_traced_run_matches_untraced():
    untraced = run_experiment(**POINT)
    tracer, traced = traced_run()
    assert traced.cycles == untraced.cycles
    assert traced.instructions == untraced.instructions
    assert traced.steals == untraced.steals
    assert tracer.final_cycle == untraced.cycles


def test_null_tracer_is_inert():
    assert NULL_TRACER.enabled is False
    # Every hook is callable and returns None.
    NULL_TRACER.core_state(0, 0, "idle")
    NULL_TRACER.push_state(0, 0, "uli-handler")
    NULL_TRACER.pop_state(0, 0)
    NULL_TRACER.task_begin(0, 0, 1, "T")
    NULL_TRACER.task_end(0, 0)
    NULL_TRACER.steal(1, 0, 2, 10, 20, "dts")
    NULL_TRACER.uli_message(0, 1, 5, 3)
    NULL_TRACER.mem_burst(0, 5, "flush", 2, 8)
    NULL_TRACER.dram_sample(0, 5, 1)
    NULL_TRACER.counter_sample(5, {})
    NULL_TRACER.finish(100)


# ----------------------------------------------------------------------
# Determinism: same config + seed -> byte-identical exports
# ----------------------------------------------------------------------
def test_trace_export_byte_identical_across_runs():
    tracer_a, _ = traced_run()
    tracer_b, _ = traced_run()
    assert export_chrome_trace(tracer_a) == export_chrome_trace(tracer_b)
    assert samples_to_csv(tracer_a.samples) == samples_to_csv(tracer_b.samples)


# ----------------------------------------------------------------------
# Exporter output shape
# ----------------------------------------------------------------------
def test_export_is_valid_chrome_trace(tmp_path):
    tracer, result = traced_run()
    path = tmp_path / "trace.json"
    text = export_chrome_trace(tracer, str(path))
    obj = json.loads(text)
    validate_chrome_trace(obj)
    assert validate_trace_file(str(path)) > 0

    events = obj["traceEvents"]
    state_spans = [e for e in events if e["ph"] == "X" and e["pid"] == 0]
    assert state_spans, "expected core-state spans"
    assert {e["name"] for e in state_spans} <= {
        "running-task", "steal-attempt", "waiting", "idle", "uli-handler"
    }
    # Steal + ULI flow events come in begin/end pairs.
    starts = [e for e in events if e["ph"] == "s"]
    ends = [e for e in events if e["ph"] == "f"]
    assert len(starts) == len(ends) > 0
    assert {e["id"] for e in starts} == {e["id"] for e in ends}
    # Counter samples from the interval sampler.
    assert any(e["ph"] == "C" for e in events)
    assert obj["otherData"]["final_cycle"] == result.cycles


def test_activity_report_mentions_every_core():
    tracer, _ = traced_run()
    report = format_activity_report(tracer)
    assert "core 0 (big)" in report
    assert "core 3 (tiny)" in report
    assert "running-task" in report


# ----------------------------------------------------------------------
# Interval sampler
# ----------------------------------------------------------------------
def test_sampler_delta_correctness():
    sim = Simulator()
    stats = StatGroup("m")
    sim.schedule(5, lambda: stats.add("x", 3))
    sim.schedule(15, lambda: stats.add("x", 4))
    sim.schedule(25, lambda: stats.add("y", 1))
    sampler = IntervalSampler(sim, stats.snapshot, interval=10)
    sampler.start()
    sim.run()
    sampler.finalize()
    assert sampler.samples == [
        (10, {"m.x": 3}),
        (20, {"m.x": 4}),
        (25, {"m.y": 1}),
    ]
    csv = samples_to_csv(sampler.samples)
    lines = csv.strip().split("\n")
    assert lines[0] == "cycle,m.x,m.y"
    assert lines[1] == "10,3,0"
    assert lines[3] == "25,0,1"


def test_sampler_does_not_extend_the_run():
    sim = Simulator()
    stats = StatGroup("m")
    sim.schedule(3, lambda: stats.add("x"))
    sampler = IntervalSampler(sim, stats.snapshot, interval=100)
    sampler.start()
    assert sim.run() == 3
    sampler.finalize()
    assert sampler.samples == [(3, {"m.x": 1})]


def test_daemon_events_do_not_keep_simulator_alive():
    sim = Simulator()
    fired = []
    sim.schedule(10, lambda: fired.append("daemon"), daemon=True)
    assert sim.run() == 0
    assert fired == []
    # With a later real event, the earlier daemon event does run.
    sim.schedule(20, lambda: fired.append("real"))
    sim.run()
    assert fired == ["daemon", "real"]


def test_sampler_rejects_bad_interval():
    with pytest.raises(ValueError):
        IntervalSampler(Simulator(), StatGroup("m").snapshot, interval=0)


# ----------------------------------------------------------------------
# StatGroup snapshot / reset / deterministic flatten
# ----------------------------------------------------------------------
def test_statgroup_snapshot_and_reset():
    root = StatGroup("machine")
    root.add("a", 2)
    root.child("c1").add("k", 5)
    snap = root.snapshot()
    assert snap == {"machine.a": 2, "machine.c1.k": 5}
    root.reset()
    assert root.snapshot() == {"machine.a": 0, "machine.c1.k": 0}


def test_flatten_independent_of_insertion_order():
    a = StatGroup("m")
    a.child("zz").add("k", 1)
    a.child("aa").add("k", 2)
    b = StatGroup("m")
    b.child("aa").add("k", 2)
    b.child("zz").add("k", 1)
    assert list(a.flatten()) == list(b.flatten())


# ----------------------------------------------------------------------
# Alias resolution
# ----------------------------------------------------------------------
def test_resolve_app_aliases():
    assert resolve_app("cilksort") == "cilk5-cs"
    assert resolve_app("cilk5-cs") == "cilk5-cs"
    assert resolve_app("cs") == "cilk5-cs"
    assert resolve_app("cc") == "ligra-cc"
    with pytest.raises(ValueError):
        resolve_app("not-an-app")


def test_resolve_kind_aliases():
    assert resolve_kind("hcc-dts-dnv") == "bt-hcc-dts-dnv"
    assert resolve_kind("bt-mesi") == "bt-mesi"
    with pytest.raises(ValueError):
        resolve_kind("not-a-kind")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_trace_subcommand(tmp_path, capsys):
    out = tmp_path / "t.json"
    csv = tmp_path / "t.csv"
    argv = [
        "trace", "cilksort", "--kind", "hcc-dts-dnv", "--scale", "tiny",
        "--out", str(out), "--csv", str(csv),
    ]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert "per-core activity breakdown" in stdout
    assert validate_trace_file(str(out)) > 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first, "trace must be byte-identical on re-run"
    assert csv.read_text().startswith("cycle,")


#: sha256 of the two files CI's trace smoke job exports.  The interval
#: sampler's source and the Perfetto counter tracks feed both, so a change
#: to either that moves one byte of an exported trace fails here.  The
#: 500-cycle interval is shorter than the run, so the export holds
#: mid-run sampler ticks, not just the closing sample.
TRACE_SMOKE_SHA256 = {
    "json": "5e254590d4d33c69f2476e747916068e6f55ac56f783a6bd09e7f5e92dd3d26c",
    "csv": "e63aa9c8a21736930fa586628c0516a340be2c730365eedbd55175834f12c6bd",
}


def test_cli_trace_smoke_bytes_are_pinned(tmp_path, capsys):
    paths = {ext: tmp_path / f"trace.{ext}" for ext in TRACE_SMOKE_SHA256}
    assert main([
        "trace", "cilksort", "--kind", "hcc-dts-dnv", "--scale", "tiny",
        "--interval", "500",
        "--out", str(paths["json"]), "--csv", str(paths["csv"]),
    ]) == 0
    capsys.readouterr()
    csv_rows = paths["csv"].read_text().splitlines()
    assert len(csv_rows) - 1 > 1, "the sampler must tick before the run ends"
    digests = {
        ext: hashlib.sha256(path.read_bytes()).hexdigest()
        for ext, path in paths.items()
    }
    assert digests == TRACE_SMOKE_SHA256


def test_cli_run_json(capsys):
    assert main([
        "run", "cilk5-cs", "--config", "bt-hcc-dts-dnv", "--scale", "tiny",
        "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["app"] == "cilk5-cs"
    assert payload["cycles"] > 0


def test_cli_run_trace_flag(tmp_path):
    out = tmp_path / "r.json"
    assert main([
        "run", "cilk5-mt", "--config", "bt-mesi", "--scale", "tiny",
        "--trace", str(out), "--trace-interval", "500",
    ]) == 0
    assert validate_trace_file(str(out)) > 0
