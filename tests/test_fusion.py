"""Differential determinism proof for the event-fusion fast path.

Every test runs the same experiment twice — once with the fast path
enabled and once forced through the heap (``REPRO_NO_FUSION`` or
``fusion_enabled=False``) — and asserts that every observable output is
identical: final cycle count, the full flattened statistics tree, and
(for traced runs) the exported Perfetto JSON byte-for-byte.
"""

import pytest

from repro.apps import make_app
from repro.config import make_config
from repro.core import WorkStealingRuntime
from repro.machine import Machine


def run_once(app_name, kind, params, *, fusion, serial=False, tracer=None,
             seed=42, scale="tiny"):
    app = make_app(app_name, **params)
    machine = Machine(make_config(kind, scale, seed=seed), tracer=tracer)
    machine.sim.fusion_enabled = fusion
    app.setup(machine)
    kwargs = {"serial_elision": True} if serial else {}
    rt = WorkStealingRuntime(machine, **kwargs)
    cycles = rt.run(app.make_root(serial=False))
    app.check()
    return {
        "cycles": cycles,
        "flatten": machine.stats.flatten(),
        "traffic": tuple(sorted(machine.traffic.snapshot().items())),
        "fusion": machine.sim.fusion_stats(),
        "steals": rt.stats.get("steals"),
    }


#: (app, config kind, params, serial, machine scale) — spans MESI
#: hardware coherence, software-centric HCC, DTS (ULI steal delivery), the
#: throughput kernels whose event streams fuse ~100%, and the 64-core
#: ``paper`` machine, where most events switch between cores instead.
DIFFERENTIAL_PAIRS = [
    ("cilk5-cs", "bt-mesi", dict(n=96, grain=32), False, "tiny"),
    ("ligra-bfs", "bt-hcc-gwt", dict(scale=5, grain=8), False, "tiny"),
    ("cilk5-cs", "bt-hcc-dts-dnv", dict(n=96, grain=16), False, "tiny"),
    # The remaining big.TINY configs, so every coherence mix is covered.
    ("cilk5-cs", "bt-hcc-dnv", dict(n=128, grain=32), False, "tiny"),
    ("cilk5-cs", "bt-hcc-gwb", dict(n=128, grain=32), False, "tiny"),
    ("cilk5-cs", "bt-hcc-dts-gwt", dict(n=128, grain=32), False, "tiny"),
    ("cilk5-cs", "bt-hcc-dts-gwb", dict(n=128, grain=32), False, "tiny"),
    ("kernel-spin", "serial-io", dict(iters=4000, grain=512), True, "tiny"),
    ("kernel-stream", "serial-io", dict(n=64, passes=4, grain=32), True, "tiny"),
    ("ligra-bfs", "bt-mesi", dict(scale=6, grain=4), False, "paper"),
    ("ligra-bfs", "bt-hcc-dts-gwb", dict(scale=6, grain=4), False, "paper"),
]


@pytest.mark.parametrize(
    "app_name,kind,params,serial,scale", DIFFERENTIAL_PAIRS,
    ids=[f"{p[0]}/{p[1]}" + ("" if p[4] == "tiny" else f"/{p[4]}")
         for p in DIFFERENTIAL_PAIRS],
)
def test_fused_and_unfused_runs_are_identical(app_name, kind, params, serial,
                                              scale):
    fused = run_once(app_name, kind, params, fusion=True, serial=serial,
                     scale=scale)
    unfused = run_once(app_name, kind, params, fusion=False, serial=serial,
                       scale=scale)
    assert fused["cycles"] == unfused["cycles"]
    assert fused["flatten"] == unfused["flatten"]
    assert fused["traffic"] == unfused["traffic"]
    if not serial:
        # Steals in flight: the identity covers cross-core steal traffic.
        assert fused["steals"] > 0
    # The slow path never fuses; the fast path must actually engage
    # (else the test proves nothing).
    assert unfused["fusion"]["events_fused"] == 0
    assert fused["fusion"]["events_fused"] > 0
    if app_name.startswith("kernel-"):
        # The dispatch-bound kernels must fuse nearly every event.
        assert fused["fusion"]["fused_ratio"] > 0.9
    # Both paths execute the same set of continuations in total.
    assert (
        fused["fusion"]["events_total"] == unfused["fusion"]["events_total"]
    )


def test_dts_run_exercises_uli_steals():
    """The DTS differential pair must actually deliver ULI steals, so the
    fused/unfused identity above covers handler entry at op boundaries."""
    result = run_once(
        "cilk5-cs", "bt-hcc-dts-dnv", dict(n=96, grain=16), fusion=True
    )
    assert result["steals"] > 0
    flat = result["flatten"]
    uli_keys = [k for k in flat if "uli" in k and flat[k]]
    assert uli_keys, "DTS run recorded no ULI activity"


def test_no_fusion_env_var_matches_fused_run(monkeypatch):
    """The documented REPRO_NO_FUSION knob goes through the same proof."""
    from repro.harness import run_experiment

    fused = run_experiment("cilk5-cs", "bt-hcc-dts-gwb", "tiny",
                           use_cache=False)
    monkeypatch.setenv("REPRO_NO_FUSION", "1")
    unfused = run_experiment("cilk5-cs", "bt-hcc-dts-gwb", "tiny",
                             use_cache=False)
    assert fused.cycles == unfused.cycles
    assert fused.instructions == unfused.instructions
    assert fused.total_traffic == unfused.total_traffic


@pytest.mark.parametrize("app_name,kind,params,serial", [
    ("cilk5-cs", "bt-hcc-dts-dnv", dict(n=96, grain=16), False),
    ("kernel-stream", "serial-io", dict(n=64, passes=4, grain=32), True),
], ids=["cilk5-cs/dts", "kernel-stream/serial"])
def test_traced_runs_byte_identical_across_modes(tmp_path, app_name, kind,
                                                 params, serial):
    """Perfetto export is byte-identical whether or not fusion ran —
    including the interval sampler's daemon events."""
    from repro.trace import Tracer, export_chrome_trace
    from repro.trace.sampler import IntervalSampler

    texts = []
    for fusion in (True, False):
        app = make_app(app_name, **params)
        tracer = Tracer()
        machine = Machine(make_config(kind, "tiny", seed=42), tracer=tracer)
        machine.sim.fusion_enabled = fusion
        app.setup(machine)
        kwargs = {"serial_elision": True} if serial else {}
        rt = WorkStealingRuntime(machine, **kwargs)
        sampler = IntervalSampler(
            machine.sim, machine.stats.snapshot, 500, tracer=tracer
        )
        sampler.start()
        rt.run(app.make_root(serial=False))
        sampler.finalize()
        tracer.finish(machine.sim.now)
        app.check()
        texts.append(export_chrome_trace(tracer))
    assert texts[0] == texts[1]
    assert texts[0].encode() == texts[1].encode()

