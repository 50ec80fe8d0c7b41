"""Self-test of the benchmark: ``python3 -m pytest bench/`` (about a minute).

Runs ``run.py`` in ``--smoke`` mode (two apps on the 4-core machine) and
checks what the benchmark promises: every declared metric with its unit,
repeatable result digests, failures counted rather than raised, and a
workload seed that really changes the inputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(out: Path, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--smoke", "--out", str(out), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Three smoke runs of every workload: plain, traced, and seed 1."""
    base = tmp_path_factory.mktemp("bench")
    lines = {
        "plain": result_line(smoke(base / "plain.jsonl")),
        "traced": result_line(smoke(base / "traced.jsonl", "--trace")),
        "seed1": result_line(smoke(base / "seed1.jsonl", "--seed", "1")),
    }
    records = {
        name: json.loads((base / f"{name}.jsonl").read_text().splitlines()[-1])
        for name in lines
    }
    return base, lines, records


@pytest.mark.parametrize("mode,section", [("plain", "end_to_end"), ("traced", "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(runs, mode, section):
    _, lines, _ = runs
    line = lines[mode]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == set(workload.WORKLOADS)
    for metrics in line["metrics"].values():
        assert {m["name"]: m["unit"] for m in SPEC[section]} == {
            name: m["unit"] for name, m in metrics.items()}
        for m in metrics.values():
            assert isinstance(m["value"], (int, float))


def test_end_to_end_metrics_are_never_zero(runs):
    _, lines, _ = runs
    for metrics in lines["plain"]["metrics"].values():
        assert all(m["value"] > 0 for m in metrics.values())


def test_two_passes_give_identical_digests(runs):
    # The traced pass also proves instrumentation leaves results untouched.
    _, _, records = runs
    for name in workload.WORKLOADS:
        plain, traced = records["plain"]["workloads"][name], records["traced"]["workloads"][name]
        assert plain["result_digest"] == traced["result_digest"]
        assert plain["point_digests"] == traced["point_digests"]


def test_cold_and_warm_sweeps_deliver_the_same_results(runs):
    _, _, records = runs
    sweeps = records["plain"]["workloads"]
    assert sweeps["table3-cold"]["result_digest"] == sweeps["table3-warm"]["result_digest"]


def test_seed_changes_the_inputs(runs):
    _, _, records = runs
    for name in workload.WORKLOADS:
        assert (records["seed1"]["workloads"][name]["result_digest"]
                != records["plain"]["workloads"][name]["result_digest"])


def test_span_file_nests_points_under_their_parents(runs):
    base, _, _ = runs
    events = json.loads((base / "spans-serial-elision-seed0.json").read_text())["traceEvents"]
    ids = {e["args"]["id"]: e for e in events}
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    assert all(e["args"]["parent"] is None or e["args"]["parent"] in ids for e in events)
    runs_ = [e for e in events if e["name"] == "run"]
    assert runs_
    for span in runs_:
        point = ids[span["args"]["parent"]]
        assert point["args"]["point"] == span["args"]["point"]
        assert ids[point["args"]["parent"]]["name"] == "pass"
    assert any(ids[r["args"]["parent"]]["args"]["layer_s"] for r in runs_)


def test_deadlocked_point_is_counted_not_raised(tmp_path):
    points = [
        workload.GridPoint("cilk5-cs", "bt-mesi", "tiny"),
        workload.GridPoint("kernel-deadlock", "bt-mesi", "tiny", watchdog=20_000),
    ]
    reference = workload.Reference()
    unit = workload.sweep_unit(points, 2, tmp_path / "store", reference, workload.Spans(False), 0)
    assert unit.attempted == 2 and unit.failed == 1
    assert reference.points[1].error == "deadlock"


def test_expect_digest_counts_changed_points(runs, tmp_path):
    base, _, _ = runs
    prev = tmp_path / "prev.jsonl"
    shutil.copy(base / "plain.jsonl", prev)
    args = ("--workload", "serial-elision", "--expect-digest", str(prev))
    assert result_line(smoke(tmp_path / "same.jsonl", *args))["failed"] == 0

    record = json.loads(prev.read_text())
    record["workloads"]["serial-elision"]["point_digests"][0] = "0" * 64
    prev.write_text(json.dumps(record) + "\n")
    line = result_line(smoke(tmp_path / "changed.jsonl", *args))
    assert line["failed"] == 1 and not line["correct"]


def test_compare_verdicts(tmp_path):
    base = [10.0, 10.1, 9.9, 10.0, 10.2]
    assert run.verdict(base, [9.0, 9.1, 8.9, 9.0, 9.1], 0.05, "lower") == "better"
    assert run.verdict(base, [12.0, 12.1, 11.9, 12.0, 12.2], 0.05, "lower") == "worse"
    assert run.verdict(base, [10.1, 10.0, 10.0, 10.1, 9.9], 0.05, "lower") == "same"
    assert run.verdict(base, [5.0, 15.0, 8.0, 13.0, 10.0], 0.05, "lower") == "unresolved"
    assert run.verdict(base[:2], [9.0, 9.0], 0.05, "lower") == "unresolved"
    assert run.verdict(base, [12.0, 12.1, 11.9, 12.0, 12.2], 0.05, "higher") == "better"

    # Only untraced full-length runs are pooled: smoke and traced runs of
    # the same workload in the same file are left out.
    def record(wall, smoke=False, trace=0):
        return json.dumps({
            "seed": 1, "trace": trace, "smoke": smoke,
            "seconds": run.SMOKE_SECONDS if smoke else SPEC["run_seconds"],
            "workloads": {"serial-elision": {"metrics": {"wall_s": {"value": wall}}}},
        })
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("\n".join([record(w) for w in base] + [record(0.01, smoke=True),
                                                            record(30.0, trace=1)]))
    assert run.side_values(SPEC, mixed) == {("serial-elision", "wall_s"): base}
    assert run.compare(SPEC, mixed, mixed) == 0
    smoke_only = tmp_path / "smoke.jsonl"
    smoke_only.write_text(record(0.01, smoke=True))
    with pytest.raises(SystemExit):
        run.compare(SPEC, mixed, smoke_only)


def test_run_length_is_fixed_by_the_benchmark(capsys):
    assert run.main(["--workload", "table3-warm", "--seconds", "5"]) == 2
    assert "run_seconds" in capsys.readouterr().err


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = smoke(tmp_path / "out.jsonl", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
