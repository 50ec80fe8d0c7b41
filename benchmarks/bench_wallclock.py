"""Simulator wall-clock throughput: event-fusion fast path vs slow path.

Unlike the other benchmarks (which regenerate paper results), this one
measures the *simulator itself*: simulated cycles per second and events
per second over a small app×config mix, run twice per entry — once with
the deterministic event-fusion fast path and once with it disabled
(equivalent to ``REPRO_NO_FUSION=1``).  Each pair is differentially
checked: ``StatGroup.flatten()`` must be identical between modes, so the
benchmark doubles as a proof that fusion changes nothing.

A second section benchmarks sampled simulation (``repro.sampling``): each
entry of the sampled mix runs exact and sampled, recording the wall-clock
speedup and the estimation error of the sampled leg against the exact
truth.  ``app.check()`` runs on both legs, so the section also proves the
fast-forward path is architecturally exact.

The payload is written to ``BENCH_wallclock.json`` (override with
``REPRO_BENCH_OUT``) and embeds the full host/python fingerprint
(``repro.obs.host_fingerprint``) so the perf trajectory stays attributable
when runs land from different machines.  Environment knobs:

* ``REPRO_PERF_MIX=smoke``     — run the small CI mix (seconds).
* ``REPRO_PERF_REPEATS=N``     — best-of-N wall time per mode (default 2).
* ``REPRO_PERF_MIN_SPEEDUP=X`` — assert the mix aggregate speedup >= X.
* ``REPRO_PERF_SAMPLED=0``     — skip the sampled section entirely.
* ``REPRO_PERF_MIN_SAMPLED_SPEEDUP=X`` — assert sampled speedup >= X.
* ``REPRO_PERF_MAX_SAMPLED_ERROR=PCT`` — assert max |cycles err| <= PCT.
* ``REPRO_PERF_BASELINE=FILE`` — compare against a previous payload and
  fail on throughput regressions beyond ``REPRO_PERF_TOLERANCE``
  (fractional, default 0.15).
"""

from __future__ import annotations

import os

from repro.harness.perf import (
    DEFAULT_MIX,
    SAMPLED_MIX,
    SMOKE_MIX,
    SMOKE_SAMPLED_MIX,
    compare_baseline,
    format_baseline_report,
    format_report,
    format_sampled_report,
    read_bench,
    run_mix,
    run_sampled_mix,
    write_bench,
)

from conftest import print_block


def test_wallclock_throughput():
    smoke = os.environ.get("REPRO_PERF_MIX") == "smoke"
    mix = SMOKE_MIX if smoke else DEFAULT_MIX
    repeats = int(os.environ.get("REPRO_PERF_REPEATS", "2"))
    # run_entry raises AssertionError if any fused/unfused pair disagrees
    # on StatGroup.flatten(), so reaching the report proves determinism.
    payload = run_mix(list(mix), repeats=repeats)
    print_block(format_report(payload))

    if os.environ.get("REPRO_PERF_SAMPLED", "1") != "0":
        sampled_mix = SMOKE_SAMPLED_MIX if smoke else SAMPLED_MIX
        payload["sampled"] = run_sampled_mix(list(sampled_mix), repeats=1)
        print_block(format_sampled_report(payload["sampled"]))

    write_bench(payload, os.environ.get("REPRO_BENCH_OUT", "BENCH_wallclock.json"))

    agg = payload["aggregate"]
    assert all(e["stats_identical"] for e in payload["entries"])
    # The fingerprint keeps cross-machine perf histories attributable.
    assert payload["host"].get("python") and payload["host"].get("node") is not None
    assert agg["events_fused"] > 0, "fast path never engaged"
    assert agg["events_per_sec"] > 0
    floor = os.environ.get("REPRO_PERF_MIN_SPEEDUP")
    if floor is not None:
        assert agg["speedup"] >= float(floor), (
            f"mix speedup {agg['speedup']:.2f}x below required {floor}x"
        )

    if "sampled" in payload:
        sagg = payload["sampled"]["aggregate"]
        sfloor = os.environ.get("REPRO_PERF_MIN_SAMPLED_SPEEDUP")
        if sfloor is not None:
            assert sagg["speedup"] >= float(sfloor), (
                f"sampled mix speedup {sagg['speedup']:.2f}x below "
                f"required {sfloor}x"
            )
        cap = os.environ.get("REPRO_PERF_MAX_SAMPLED_ERROR")
        if cap is not None:
            assert sagg["max_abs_cycles_err_pct"] <= float(cap), (
                f"sampled cycles error {sagg['max_abs_cycles_err_pct']:.2f}% "
                f"above allowed {cap}%"
            )

    baseline_path = os.environ.get("REPRO_PERF_BASELINE")
    if baseline_path:
        baseline = read_bench(baseline_path)
        tolerance = float(os.environ.get("REPRO_PERF_TOLERANCE", "0.15"))
        report = compare_baseline(payload, baseline, tolerance=tolerance)
        print_block(format_baseline_report(report))
        assert report["ok"], (
            f"{len(report['regressions'])} perf regression(s) vs "
            f"{baseline_path}"
        )
