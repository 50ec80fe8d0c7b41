"""Absolute quick-scale Table III results, pinned.

The differential tests (fused == unfused, traced == untraced, ...) cannot
notice a change that moves both sides together.  This test can: it
re-simulates 13 quick-scale Table III points — one per paper app, app *i*
on ``CONFIG_KINDS[i % 11]`` so every app and every configuration appears —
plus two periodic-sampling points, whose fast-forward periods run through
``Core._resume_ff``, and compares each point's cycle count, memory digest
and full statistics tree against ``pinned_results.json``.

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
from repro.sampling import SamplingController, SamplingSpec

PINNED_PATH = os.path.join(os.path.dirname(__file__), "pinned_results.json")
SCALE = "quick"

EXACT_POINTS = [
    (app, CONFIG_KINDS[i % len(CONFIG_KINDS)], None)
    for i, app in enumerate(PAPER_APPS)
]
SAMPLED_SPEC = "2000:1000:500"
SAMPLED_POINTS = [
    ("ligra-bfs", "bt-hcc-dnv", SAMPLED_SPEC),
    ("cilk5-cs", "bt-hcc-dts-gwb", SAMPLED_SPEC),
]
POINTS = EXACT_POINTS + SAMPLED_POINTS


def point_id(app_name, kind, spec):
    return f"{app_name}/{kind}" if spec is None else f"{app_name}/{kind}@{spec}"


def simulate(app_name, kind, spec=None):
    """One Table III point, the way ``run_experiment`` simulates it;
    ``spec`` runs it in periodic-sampling mode."""
    machine = Machine(make_config(kind, SCALE))
    app = make_app(app_name, **app_params(app_name, SCALE))
    app.setup(machine)
    serial = kind == "serial-io"
    runtime = WorkStealingRuntime(machine, serial_elision=serial)
    controller = None
    if spec is not None:
        controller = SamplingController(machine, SamplingSpec.coerce(spec))
        controller.start()
    cycles = runtime.run(app.make_root(serial=False))
    if controller is not None:
        controller.finalize()
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
    assert sorted(pinned) == sorted(point_id(*point) for point in POINTS)
    assert {app for app, _, _ in EXACT_POINTS} == set(PAPER_APPS)
    assert {kind for _, kind, _ in EXACT_POINTS} == set(CONFIG_KINDS)


@pytest.mark.parametrize(
    "app_name,kind,spec", POINTS, ids=[point_id(*point) for point in POINTS]
)
def test_quick_point_matches_pinned_result(app_name, kind, spec):
    assert simulate(app_name, kind, spec) == load_pinned()[
        point_id(app_name, kind, spec)
    ]


if __name__ == "__main__":
    pinned = {point_id(*point): simulate(*point) for point in POINTS}
    with open(PINNED_PATH, "w") as f:
        json.dump(pinned, f, indent=2, sort_keys=True)
        f.write("\n")
