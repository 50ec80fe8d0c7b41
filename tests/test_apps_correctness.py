"""End-to-end correctness of all 13 kernels across coherence configurations.

These are the strongest tests in the suite: application data lives in
simulated memory, so any missing invalidate/flush in the runtime, any
protocol state machine bug, or any lost ULI handoff produces a wrong
result that ``check()`` catches against a pure-Python reference.
"""

import pytest

from repro.apps import PAPER_APPS, make_app
from repro.core import WorkStealingRuntime

from helpers import tiny_machine

#: Small inputs, sized for the 4-core test machine.
SMALL_PARAMS = {
    "cilk5-cs": dict(n=160, grain=32),
    "cilk5-lu": dict(n=8, grain=4),
    "cilk5-mm": dict(n=8, grain=4),
    "cilk5-mt": dict(n=16, grain=8),
    "cilk5-nq": dict(n=6, cutoff=2),
    "ligra-bc": dict(scale=5, grain=8),
    "ligra-bf": dict(scale=5, grain=8),
    "ligra-bfs": dict(scale=5, grain=8),
    "ligra-bfsbv": dict(scale=5, grain=8),
    "ligra-cc": dict(scale=5, grain=8),
    "ligra-mis": dict(scale=5, grain=8),
    "ligra-radii": dict(scale=4, grain=8),
    "ligra-tc": dict(scale=5, grain=16),
}

#: The four interesting coherence corners for per-app parameterization.
CORNER_KINDS = ("bt-mesi", "bt-hcc-gwb", "bt-hcc-dts-dnv", "bt-hcc-dts-gwb")


def run_app(name, kind, seed=0xC0FFEE, **extra):
    params = dict(SMALL_PARAMS[name])
    params.update(extra)
    app = make_app(name, **params)
    machine = tiny_machine(kind, seed=seed)
    app.setup(machine)
    rt = WorkStealingRuntime(machine)
    cycles = rt.run(app.make_root())
    app.check()
    return app, machine, rt, cycles


@pytest.mark.parametrize("name", PAPER_APPS)
@pytest.mark.parametrize("kind", CORNER_KINDS)
def test_app_correct(name, kind):
    _, _, rt, _ = run_app(name, kind)
    assert rt.stats.get("tasks_executed") > 0


@pytest.mark.parametrize("name", PAPER_APPS)
def test_app_correct_on_remaining_configs(name):
    for kind in ("bt-hcc-dnv", "bt-hcc-gwt", "bt-hcc-dts-gwt"):
        run_app(name, kind)


@pytest.mark.parametrize("name", PAPER_APPS)
def test_app_correct_serially(name):
    params = dict(SMALL_PARAMS[name])
    app = make_app(name, **params)
    machine = tiny_machine("bt-mesi")
    app.setup(machine)
    rt = WorkStealingRuntime(machine, serial_elision=True)
    rt.run(app.make_root())
    app.check()


@pytest.mark.parametrize("name", ("cilk5-cs", "ligra-bfs", "ligra-tc"))
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_app_correct_across_schedules(name, seed):
    """Different seeds change victim selection; results must not."""
    run_app(name, "bt-hcc-dts-gwb", seed=seed)


def test_parallel_and_serial_elision_agree():
    app_par = make_app("cilk5-mm", n=8, grain=4)
    machine_par = tiny_machine("bt-hcc-gwb")
    app_par.setup(machine_par)
    WorkStealingRuntime(machine_par).run(app_par.make_root())

    app_ser = make_app("cilk5-mm", n=8, grain=4)
    machine_ser = tiny_machine("bt-hcc-gwb")
    app_ser.setup(machine_ser)
    WorkStealingRuntime(machine_ser, serial_elision=True).run(app_ser.make_root())

    assert app_par.c.host_read() == app_ser.c.host_read()
