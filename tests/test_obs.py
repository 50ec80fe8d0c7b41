"""Tests for the observability subsystem (repro.obs).

Covers the host fingerprint, the run ledger (exactly one line per
``run_experiment`` outcome), the engine profiler's exclusive attribution,
the ``repro report`` CLI surface, the grid progress ETA estimator and the
interval sampler's tail-flush invariant.
"""

import json

import pytest

from repro.apps import make_app
from repro.config import make_config
from repro.core import WorkStealingRuntime
from repro.engine.simulator import Simulator
from repro.engine.stats import StatGroup
from repro.harness import clear_cache, run_experiment, set_result_store
from repro.machine import Machine
from repro.obs import RunLedger, host_fingerprint, set_ledger
from repro.obs.ledger import read_ledger, read_ledger_with_errors, reset_ledger
from repro.trace.sampler import IntervalSampler
from repro.trace.tracer import Tracer


@pytest.fixture(autouse=True)
def isolated_harness():
    set_result_store(None)
    set_ledger(None)
    clear_cache()
    yield
    set_result_store(None)
    reset_ledger()
    clear_cache()


def tiny_machine(app_name="cilk5-cs", kind="bt-mesi", **params):
    app = make_app(app_name, **(params or dict(n=48, grain=16)))
    machine = Machine(make_config(kind, "tiny", seed=7))
    app.setup(machine)
    return app, machine


# ----------------------------------------------------------------------
# Host fingerprint
# ----------------------------------------------------------------------
class TestMetrics:
    def test_host_fingerprint_shape(self):
        fp = host_fingerprint()
        assert fp["python"] and fp["machine"] is not None
        assert "node" in fp and "cpu_count" in fp


# ----------------------------------------------------------------------
# Run ledger
# ----------------------------------------------------------------------
class TestLedger:
    def test_record_appends_one_wellformed_line(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.record(outcome="ok", app="a")
        ledger.record(outcome="failed", app="b", error="deadlock")
        entries = read_ledger(tmp_path / "ledger.jsonl")
        assert [e["outcome"] for e in entries] == ["ok", "failed"]
        assert all(
            e["schema"] == 1 and e["pid"] and e["host"]["python"]
            for e in entries
        )
        assert ledger.lines_written == 2

    def test_malformed_lines_counted_not_fatal(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        RunLedger(path).record(outcome="ok")
        with open(path, "a") as fh:
            fh.write("{torn line\n[1,2]\n")
        entries, bad, torn = read_ledger_with_errors(path)
        assert len(entries) == 1 and bad == 2
        # Both damaged lines are newline-terminated: that is mid-file
        # corruption, not the crashed-writer torn-tail signature.
        assert torn is False

    def test_torn_final_line_is_recoverable_damage(self, tmp_path):
        """A trailing line cut mid-JSON (no newline) is classified as a
        torn tail — recoverable crashed-writer damage — not malformed."""
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        ledger.record(outcome="ok", app="a")
        ledger.record(outcome="ok", app="b")
        whole = path.read_bytes()
        # Truncate mid-way through the final line, as SIGKILL during the
        # append would (O_APPEND writes are atomic, but the test models a
        # partially flushed page after a power cut).
        path.write_bytes(whole[: len(whole) - 17])
        entries, bad, torn = read_ledger_with_errors(path)
        assert [e["app"] for e in entries] == ["a"]
        assert bad == 0 and torn is True

    def test_torn_tail_reported_by_report(self, tmp_path):
        from repro.obs.report import report_from_file

        path = tmp_path / "ledger.jsonl"
        RunLedger(path).record(outcome="ok", app="a", kind="k", scale="s")
        with open(path, "a") as fh:
            fh.write('{"outcome": "ok", "app":')  # no newline
        summary = report_from_file(str(path))
        assert summary["torn_tail"] is True
        assert summary["runs"] == 1
        assert summary["malformed_lines"] == 0

    def test_one_line_per_outcome(self, tmp_path):
        """ok, memo-hit, store-hit, and failed each append exactly one line."""
        store = set_result_store(tmp_path / "results")
        path = tmp_path / "ledger.jsonl"
        set_ledger(str(path))

        run_experiment("cilk5-mt", "bt-mesi", "tiny")          # cold: ok
        run_experiment("cilk5-mt", "bt-mesi", "tiny")          # memo-hit
        clear_cache()
        run_experiment("cilk5-mt", "bt-mesi", "tiny")          # store-hit
        with pytest.raises(Exception):
            run_experiment(
                "kernel-deadlock", "bt-mesi", "tiny",
                watchdog=20_000, use_cache=False,
            )                                                   # failed

        entries = read_ledger(path)
        assert [e["outcome"] for e in entries] == [
            "ok", "memo-hit", "store-hit", "failed",
        ]
        ok, memo, hit, failed = entries
        assert ok["app"] == "cilk5-mt" and ok["cycles"] > 0
        assert ok["store_key"] == hit["store_key"]  # same SHA-256 digest
        assert ok["seed"] is not None
        assert ok["wall_s"] > 0 and memo["wall_s"] >= 0
        assert failed["error"] == "deadlock"
        assert failed["message"]
        assert all(e["source"] == "runner" for e in entries)
        assert store is not None  # store really was configured

    def test_store_adjacent_ledger_via_env(self, tmp_path, monkeypatch):
        set_result_store(tmp_path / "results")
        monkeypatch.setenv("REPRO_LEDGER", "1")
        reset_ledger()
        run_experiment("cilk5-mt", "bt-mesi", "tiny")
        entries = read_ledger(tmp_path / "results" / "ledger.jsonl")
        assert len(entries) == 1 and entries[0]["outcome"] == "ok"

    def test_off_by_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        reset_ledger()
        run_experiment("cilk5-mt", "bt-mesi", "tiny", use_cache=False)
        assert not list(tmp_path.iterdir())


# ----------------------------------------------------------------------
# Engine profiler
# ----------------------------------------------------------------------
class TestProfiler:
    def test_wall_profiler_exclusive_attribution(self):
        from repro.obs.profile import WallProfiler

        prof = WallProfiler()
        prof.enter("outer")
        prof.enter("inner")
        prof.exit()
        prof.exit()
        assert prof.calls == {"outer": 1, "inner": 1}
        assert all(s >= 0 for s in prof.seconds.values())


# ----------------------------------------------------------------------
# repro report
# ----------------------------------------------------------------------
class TestReport:
    def test_aggregate_counts_and_failures(self):
        from repro.obs.report import aggregate

        entries = [
            {"outcome": "ok", "app": "a", "kind": "k", "scale": "s",
             "wall_s": 2.0, "host": {"node": "h1", "python": "3"}},
            {"outcome": "store-hit", "app": "a", "kind": "k", "scale": "s",
             "wall_s": 0.01, "host": {"node": "h1", "python": "3"}},
            {"outcome": "failed", "app": "b", "kind": "k", "scale": "s",
             "error": "deadlock", "message": "stuck",
             "host": {"node": "h2", "python": "3"}},
            {"outcome": "???", "app": "c", "kind": "k", "scale": "s"},
        ]
        summary = aggregate(entries, malformed=1)
        assert summary["runs"] == 4
        assert summary["totals"] == {
            "ok": 1, "store-hit": 1, "memo-hit": 0, "failed": 1, "other": 1,
        }
        assert summary["simulated"] == 2 and summary["hits"] == 1
        assert summary["hosts"] == 3  # h1/h2 plus the host-less entry
        assert summary["malformed_lines"] == 1
        assert summary["failures"] == [{
            "app": "b", "kind": "k", "scale": "s", "error": "deadlock",
            "message": "stuck", "source": "runner", "ts": None,
        }]
        assert summary["wall_total_s"] == pytest.approx(2.01)

    def test_report_reproduces_grid_accounting_from_ledger_alone(
        self, tmp_path, capsys
    ):
        """Acceptance: a grid's hit/miss counts rebuild from the ledger."""
        from repro.harness.grid import GridPoint, run_grid
        from repro.obs.report import report_from_file

        set_result_store(tmp_path / "results")
        path = tmp_path / "ledger.jsonl"
        set_ledger(str(path))
        points = [
            GridPoint("cilk5-mt", "bt-mesi", "tiny"),
            GridPoint("kernel-spin", "serial-io", "tiny", serial=True),
        ]
        run_grid(points, jobs=1)
        clear_cache()
        run_grid(points, jobs=1)  # warm pass: all store hits

        summary = report_from_file(str(path))
        assert summary["runs"] == 4
        assert summary["totals"]["ok"] == 2
        assert summary["totals"]["store-hit"] == 2
        assert summary["totals"]["failed"] == 0
        assert len(summary["groups"]) == 2

        from repro.__main__ import main

        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "runs: 4" in out and "store-hit:2" in out

    def test_cli_report_json_and_missing_file(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "ledger.jsonl"
        RunLedger(path).record(outcome="ok", app="a", kind="k", scale="s")
        assert main(["report", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"] == 1
        assert main(["report", str(tmp_path / "absent.jsonl")]) == 2


# ----------------------------------------------------------------------
# Grid progress ETA
# ----------------------------------------------------------------------
class TestProgressEta:
    def make(self, total):
        from repro.harness.grid import _Progress

        clock = [0.0]
        meter = _Progress(total, enabled=False, clock=lambda: clock[0])
        return meter, clock

    def test_steady_rate(self):
        meter, clock = self.make(10)
        for i in range(4):
            clock[0] += 2.0
            meter.step("p", instant=False)
        # 4 done at 2s each → 6 remaining ≈ 12s.
        assert meter.last_eta == pytest.approx(12.0)

    def test_hits_do_not_crater_the_estimate(self):
        meter, clock = self.make(10)
        clock[0] = 2.0
        meter.step("p", instant=False)
        # A burst of instant store hits: done advances, rate evidence
        # doesn't, so the ETA still reflects the 2 s/point simulation cost.
        for _ in range(4):
            clock[0] += 0.001
            meter.step("p", instant=True)
        assert meter.hits == 4 and meter.done == 5
        assert meter.last_eta == pytest.approx(5 * 2.0, rel=0.05)

    def test_all_hits_fall_back_to_naive_rate(self):
        meter, clock = self.make(4)
        clock[0] = 0.1
        meter.step("p", instant=True)
        # One hit in 0.1s → 3 remaining ≈ 0.3s.
        assert meter.last_eta == pytest.approx(0.3)

    def test_window_tracks_rate_drift(self):
        from repro.harness.grid import _Progress

        meter, clock = self.make(2 * _Progress.WINDOW + 10)
        for _ in range(_Progress.WINDOW):   # fast early points
            clock[0] += 0.1
            meter.step("p")
        for _ in range(_Progress.WINDOW):   # slow late points
            clock[0] += 5.0
            meter.step("p")
        # Window holds only slow points: ETA reflects 5 s/point, not the mean.
        assert meter.last_eta == pytest.approx(10 * 5.0, rel=0.05)

    def test_done_and_zero_remaining(self):
        meter, clock = self.make(1)
        clock[0] = 1.0
        meter.step("p")
        assert meter.last_eta == 0.0


# ----------------------------------------------------------------------
# Interval sampler tail flush
# ----------------------------------------------------------------------
class TestSamplerFinalize:
    def telescope(self, samples):
        totals = {}
        for _cycle, delta in samples:
            for key, value in delta.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def test_deltas_telescope_to_end_totals(self):
        sim = Simulator()
        stats = StatGroup("m")
        for cycle in (5, 15, 25, 42):
            sim.schedule(cycle, lambda: stats.add("x", 2))
        sampler = IntervalSampler(sim, stats.snapshot, interval=10)
        sampler.start()
        sim.run()
        sampler.finalize()
        assert self.telescope(sampler.samples) == dict(stats.snapshot())

    def test_same_cycle_tail_not_dropped(self):
        """Daemon ticks run before regular events at the same cycle, so a
        tick at the final cycle is stale; finalize must flush the residue
        without emitting a duplicate cycle."""
        sim = Simulator()
        stats = StatGroup("m")
        sim.schedule(10, lambda: stats.add("x", 7))  # same cycle as the tick
        tracer = Tracer()
        sampler = IntervalSampler(sim, stats.snapshot, interval=10, tracer=tracer)
        sampler.start()
        assert sim.run() == 10
        sampler.finalize()
        assert sampler.samples == [(10, {"m.x": 7})]
        # The counter track saw the stale tick then the residue — also
        # telescoping.
        assert tracer.samples == [(10, {}), (10, {"m.x": 7})]
        assert self.telescope(tracer.samples) == {"m.x": 7}

    def test_finalize_without_ticks_records_closing_sample(self):
        sim = Simulator()
        stats = StatGroup("m")
        sim.schedule(3, lambda: stats.add("x"))
        sampler = IntervalSampler(sim, stats.snapshot, interval=100)
        sampler.start()
        sim.run()
        sampler.finalize()
        assert sampler.samples == [(3, {"m.x": 1})]

    def test_finalize_idempotent_when_tail_is_clean(self):
        sim = Simulator()
        stats = StatGroup("m")
        sim.schedule(4, lambda: stats.add("x"))
        sampler = IntervalSampler(sim, stats.snapshot, interval=2)
        sampler.start()
        sim.run()
        sampler.finalize()
        before = list(sampler.samples)
        sampler.finalize()
        assert sampler.samples == before

    def test_run_fingerprint_matches_totals(self):
        """End-to-end: sampled machine-run deltas telescope to the final
        StatGroup snapshot (the regression the tail-drop bug broke)."""
        app, machine = tiny_machine()
        rt = WorkStealingRuntime(machine)
        sampler = IntervalSampler(machine.sim, machine.stats.snapshot, interval=1000)
        baseline = dict(machine.stats.snapshot())
        sampler.start()
        rt.run(app.make_root())
        sampler.finalize()
        expected = {
            key: value - baseline.get(key, 0)
            for key, value in machine.stats.snapshot().items()
            if value != baseline.get(key, 0)
        }
        assert self.telescope(sampler.samples) == expected
