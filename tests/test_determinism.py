"""Simulation determinism: identical configs produce bit-identical results.

Determinism is a first-class property of the simulator (the paper's gem5
runs are deterministic too): the event queue breaks ties FIFO, all
randomness flows from the config seed, and Python dict ordering never
influences timing.
"""

import pytest

from repro.apps import make_app
from repro.config import make_config
from repro.core import WorkStealingRuntime
from repro.machine import Machine


def full_fingerprint(kind, app_name, params, seed):
    app = make_app(app_name, **params)
    machine = Machine(make_config(kind, "tiny", seed=seed))
    app.setup(machine)
    rt = WorkStealingRuntime(machine)
    cycles = rt.run(app.make_root())
    app.check()
    return (
        cycles,
        machine.total_instructions(),
        rt.stats.get("steals"),
        tuple(sorted(machine.traffic.snapshot().items())),
        machine.l1_hit_rate(),
    )


@pytest.mark.parametrize("kind", ("bt-mesi", "bt-hcc-gwb", "bt-hcc-dts-gwb"))
@pytest.mark.parametrize(
    "app_name,params",
    [
        ("cilk5-cs", dict(n=96, grain=32)),
        ("ligra-bfs", dict(scale=5, grain=8)),
    ],
)
def test_identical_runs_are_bit_identical(kind, app_name, params):
    a = full_fingerprint(kind, app_name, params, seed=42)
    b = full_fingerprint(kind, app_name, params, seed=42)
    assert a == b


def test_seed_changes_schedule_but_not_results():
    cycles = set()
    for seed in (1, 2, 3, 4):
        fp = full_fingerprint("bt-hcc-dts-gwb", "cilk5-cs", dict(n=96, grain=16), seed)
        cycles.add(fp[0])
    # Different victim-selection streams give different timings...
    assert len(cycles) > 1
    # ...but every run passed check() inside full_fingerprint.


# ----------------------------------------------------------------------
# Observability instruments must be invisible to the simulation
# ----------------------------------------------------------------------
#: app×config pairs for the instrument-transparency matrix (>= 3 pairs).
OBS_MATRIX = [
    ("bt-mesi", "cilk5-cs", dict(n=96, grain=32)),
    ("bt-hcc-gwb", "ligra-bfs", dict(scale=5, grain=8)),
    ("bt-hcc-dts-gwb", "cilk5-cs", dict(n=96, grain=32)),
]


def observed_fingerprint(kind, app_name, params, seed, instrument=None):
    """Like :func:`full_fingerprint` but with a memory digest, and with an
    optional ``instrument(machine, runtime)`` hook called before the run
    (returning an optional ``finalize()`` callable for after it)."""
    app = make_app(app_name, **params)
    machine = Machine(make_config(kind, "tiny", seed=seed))
    app.setup(machine)
    rt = WorkStealingRuntime(machine)
    finalize = instrument(machine, rt) if instrument is not None else None
    cycles = rt.run(app.make_root())
    if finalize is not None:
        finalize()
    app.check()
    return (
        cycles,
        machine.total_instructions(),
        rt.stats.get("steals"),
        tuple(sorted(machine.traffic.snapshot().items())),
        machine.memory_digest(machine.address_space.regions()),
    )


@pytest.mark.parametrize("kind,app_name,params", OBS_MATRIX)
def test_profiled_runs_are_bit_identical_to_bare_runs(kind, app_name, params):
    """An engine-profiled run (probed frames, wrapped op dispatch and
    memory/NoC methods) is cycle- and digest-identical to bare, and its
    call counts are exact: one ``runtime.coroutine`` per value that enters
    a thread or ULI handler from outside its call stack (calls, returns
    and no-ops are timed but not counted), one ``op.<kind>`` per executed
    op."""
    from repro.obs import EngineProfiler

    runs = []

    def instrument(machine, rt):
        # The checkpoint send log records every value entering a thread or
        # ULI handler from outside: the reference count for runtime.coroutine.
        machine.enable_checkpointing()
        runs.append((machine, EngineProfiler().install(machine)))
        return None

    bare = observed_fingerprint(kind, app_name, params, seed=42)
    profiled = observed_fingerprint(kind, app_name, params, seed=42, instrument=instrument)
    assert bare == profiled
    # The profiler genuinely measured: it charged wall time somewhere.
    machine, profiler = runs[0]
    assert sum(profiler.wall.seconds.values()) > 0
    calls = profiler.wall.calls
    sends = sum(1 for entry in machine._ckpt_log if len(entry) == 2)
    assert calls["runtime.coroutine"] == sends
    assert calls["op.work"] > 0
    for op_kind in ("load", "store", "amo", "invalidate", "flush"):
        executed = sum(core.stats.get(f"ops_{op_kind}") for core in machine.cores)
        assert calls[f"op.{op_kind}"] == executed


def test_workspan_analysis_deterministic():
    from repro.analysis import CilkviewAnalyzer

    reports = []
    for _ in range(2):
        app = make_app("ligra-tc", scale=4, grain=4)
        analyzer = CilkviewAnalyzer()
        app.setup(analyzer.machine)
        reports.append(analyzer.analyze(app.make_root()))
    assert reports[0].work == reports[1].work
    assert reports[0].span == reports[1].span
    assert reports[0].n_tasks == reports[1].n_tasks
