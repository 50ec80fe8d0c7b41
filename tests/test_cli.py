"""CLI smoke tests (python -m repro …)."""

import pytest

from repro.__main__ import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "cilk5-cs" in out and "bt-hcc-dts-gwb" in out and "quick" in out


def test_run_tiny(capsys):
    assert main(["run", "cilk5-mt", "--config", "bt-hcc-gwb", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "cycles" in out and "tiny L1 hit" in out


def test_run_with_baseline(capsys):
    code = main([
        "run", "cilk5-mt", "--config", "bt-mesi", "--scale", "tiny", "--baseline",
    ])
    assert code == 0
    assert "speedup vs serial-IO" in capsys.readouterr().out


def test_table1(capsys):
    assert main(["table", "1"]) == 0
    out = capsys.readouterr().out
    assert "mesi" in out and "gpu-wb" in out


def test_workspan(capsys):
    assert main(["workspan", "cilk5-mt", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "parallelism" in out


def test_bad_app_rejected():
    with pytest.raises(SystemExit):
        main(["run", "not-an-app"])


def test_bad_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_run_with_faults_and_sanitizer(capsys):
    code = main([
        "run", "cilk5-mt", "--config", "bt-mesi", "--scale", "tiny",
        "--faults", "timing,seed=3", "--sanitize", "--watchdog", "500000",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "faults fired" in out and "sanitizer walks" in out


def test_fuzz_smoke(capsys, tmp_path):
    report_path = tmp_path / "fuzz.json"
    code = main([
        "fuzz", "--app", "cilk5-mt", "--config", "bt-mesi", "--scale", "tiny",
        "--seeds", "2", "--out", str(report_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "end state identical" in out or "ok" in out.lower()
    import json

    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["app"] == "cilk5-mt"
    assert len(report["cases"]) == 2
    assert all(case["digest_match"] for case in report["cases"])


def test_fuzz_positive_control(capsys):
    code = main([
        "fuzz", "--app", "cilk5-cs", "--config", "bt-hcc-dts-gwb",
        "--scale", "tiny", "--seeds", "1", "--break-coherence",
        "no-thief-flush", "--expect-violations",
    ])
    assert code == 0  # violations expected and found


def test_fuzz_sweep_that_fires_no_fault_fails(capsys):
    # Steal aborts exist only in Chase-Lev deques: on the default lock
    # deque the steal plan perturbs nothing, and such a sweep is no test.
    code = main([
        "fuzz", "--app", "cilk5-cs", "--config", "bt-mesi", "--scale", "tiny",
        "--seeds", "2", "--plan", "steal",
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert "0 faults fired" in out
    assert out.splitlines()[-1].startswith("verdict        : no seed fired a fault")


@pytest.mark.parametrize("flag", [
    "--resume", "--keep-checkpoint", "--checkpoint-interval=2000",
])
def test_checkpoint_flags_without_checkpoint_rejected(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["run", "cilk5-cs", "--scale", "tiny", flag])
    assert exc.value.code == 2
    assert "need --checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--trace=t.json", "--trace-interval=500"])
def test_run_has_no_trace_flags(capsys, flag):
    # Tracing is `repro trace`; `run` does not duplicate it.
    with pytest.raises(SystemExit) as exc:
        main(["run", "cilk5-cs", "--scale", "tiny", flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_unreadable_checkpoint_is_a_usage_error(capsys, tmp_path):
    snapshot = tmp_path / "bad.ckpt"
    snapshot.write_text("not a snapshot")
    code = main([
        "run", "cilk5-cs", "--scale", "tiny",
        "--checkpoint", str(snapshot), "--resume",
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("repro run: unreadable snapshot")
