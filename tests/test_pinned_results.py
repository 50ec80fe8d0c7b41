"""Absolute quick-scale Table III results, pinned.

The differential tests (fused == unfused, traced == untraced, ...) cannot
notice a change that moves both sides together.  This test can: it
re-simulates 13 quick-scale Table III points — one per paper app, app *i*
on ``CONFIG_KINDS[i % 11]`` so every app and every configuration appears —
and compares each point's cycle count, memory digest and full statistics
tree against ``pinned_results.json``.

Four more points cover what the quick machine does not: the 64-core
``paper`` machine (8x8 mesh, 8 L2 banks) on MESI, write-through HCC and
DTS, and a run under the ``timing`` fault plan, whose NoC jitter draws
must keep their order.

Six more run the runtime options no Table III point uses: Chase-Lev
deques on MESI and on HCC, each DTS software optimization switched off,
and both deliberately broken coherence disciplines.  A broken runtime's
answer is not a claim (cilk5-cs on bt-hcc-dts-gwb without the thief's
flush computes a wrong one), so those two points skip ``app.check()``;
their cycles, digest and statistics are pinned all the same.

Any change to simulated timing, coherence traffic or final memory fails
here.  A deliberate model change must regenerate the file
(``PYTHONPATH=src python tests/test_pinned_results.py``) and show the
diff in review.
"""

import hashlib
import json
import os

import pytest

from repro.apps import PAPER_APPS, make_app
from repro.config import CONFIG_KINDS, make_config
from repro.core import WorkStealingRuntime
from repro.harness.params import app_params
from repro.machine import Machine

PINNED_PATH = os.path.join(os.path.dirname(__file__), "pinned_results.json")
SCALE = "quick"

POINTS = [
    (app, CONFIG_KINDS[i % len(CONFIG_KINDS)]) for i, app in enumerate(PAPER_APPS)
]

#: id -> (app, kind, scale, app overrides, fault plan, runtime kwargs).
#: The paper-machine inputs are the bench's ``manycore-paper`` ones for
#: ligra-bfs.
EXTRA_POINTS = {
    f"paper:ligra-bfs/{kind}": ("ligra-bfs", kind, "paper", dict(scale=6, grain=4), None, {})
    for kind in ("bt-mesi", "bt-hcc-gwt", "bt-hcc-dts-gwb")
}
EXTRA_POINTS["quick:cilk5-cs/bt-hcc-dts-gwt+timing"] = (
    "cilk5-cs", "bt-hcc-dts-gwt", "quick", {}, "timing", {}
)
EXTRA_POINTS.update({
    "quick:cilk5-cs/bt-mesi+chase-lev": (
        "cilk5-cs", "bt-mesi", "quick", {}, None, dict(deque_kind="chase-lev")
    ),
    "quick:ligra-bfs/bt-hcc-gwb+chase-lev": (
        "ligra-bfs", "bt-hcc-gwb", "quick", {}, None, dict(deque_kind="chase-lev")
    ),
    "quick:cilk5-cs/bt-hcc-dts-gwb+keep-queue-sync": (
        "cilk5-cs", "bt-hcc-dts-gwb", "quick", {}, None, dict(dts_elide_queue_sync=False)
    ),
    "quick:cilk5-cs/bt-hcc-dts-gwb+keep-parent-sync": (
        "cilk5-cs", "bt-hcc-dts-gwb", "quick", {}, None, dict(dts_elide_parent_sync=False)
    ),
    "quick:cilk5-cs/bt-hcc-gwb+no-thief-flush": (
        "cilk5-cs", "bt-hcc-gwb", "quick", {}, None, dict(break_coherence="no-thief-flush")
    ),
    "quick:cilk5-cs/bt-hcc-dts-gwb+no-parent-invalidate": (
        "cilk5-cs", "bt-hcc-dts-gwb", "quick", {}, None,
        dict(break_coherence="no-parent-invalidate"),
    ),
})


def point_id(app_name, kind):
    return f"{app_name}/{kind}"


def simulate(app_name, kind, scale=SCALE, app_overrides=None, faults=None,
             runtime_kwargs=None):
    """One Table III point, the way ``run_experiment`` simulates it."""
    runtime_kwargs = runtime_kwargs or {}
    machine = Machine(make_config(kind, scale), faults=faults)
    app = make_app(app_name, **{**app_params(app_name, scale), **(app_overrides or {})})
    app.setup(machine)
    serial = kind == "serial-io"
    runtime = WorkStealingRuntime(machine, serial_elision=serial, **runtime_kwargs)
    cycles = runtime.run(app.make_root(serial=False))
    if "break_coherence" not in runtime_kwargs:
        app.check()
    stats = json.dumps(sorted(machine.stats.flatten().items()))
    return {
        "cycles": cycles,
        "memory_digest": machine.memory_digest(machine.address_space.regions()),
        "stats_sha256": hashlib.sha256(stats.encode()).hexdigest(),
    }


def load_pinned():
    with open(PINNED_PATH) as f:
        return json.load(f)


def test_pinned_file_covers_every_app_and_config():
    pinned = load_pinned()
    ids = [point_id(*point) for point in POINTS] + list(EXTRA_POINTS)
    assert sorted(pinned) == sorted(ids)
    assert {app for app, _ in POINTS} == set(PAPER_APPS)
    assert {kind for _, kind in POINTS} == set(CONFIG_KINDS)


@pytest.mark.parametrize(
    "app_name,kind", POINTS, ids=[point_id(*point) for point in POINTS]
)
def test_quick_point_matches_pinned_result(app_name, kind):
    assert simulate(app_name, kind) == load_pinned()[point_id(app_name, kind)]


@pytest.mark.parametrize("pin_id", list(EXTRA_POINTS))
def test_extra_point_matches_pinned_result(pin_id):
    assert simulate(*EXTRA_POINTS[pin_id]) == load_pinned()[pin_id]


if __name__ == "__main__":
    pinned = {point_id(*point): simulate(*point) for point in POINTS}
    pinned.update({pin_id: simulate(*spec) for pin_id, spec in EXTRA_POINTS.items()})
    with open(PINNED_PATH, "w") as f:
        json.dump(pinned, f, indent=2, sort_keys=True)
        f.write("\n")
