"""Absolute quick-scale Table III results, pinned.

The differential tests (fused == unfused, traced == untraced, ...) cannot
notice a change that moves both sides together.  This test can: it
re-simulates 13 quick-scale Table III points — one per paper app, app *i*
on ``CONFIG_KINDS[i % 11]`` so every app and every configuration appears —
and compares each point's cycle count, memory digest and full statistics
tree against ``pinned_results.json``.

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


def simulate(app_name, kind):
    """One Table III point, the way ``run_experiment`` simulates it."""
    machine = Machine(make_config(kind, SCALE))
    app = make_app(app_name, **app_params(app_name, SCALE))
    app.setup(machine)
    serial = kind == "serial-io"
    runtime = WorkStealingRuntime(machine, serial_elision=serial)
    cycles = runtime.run(app.make_root(serial=False))
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
    assert sorted(pinned) == sorted(f"{app}/{kind}" for app, kind in POINTS)
    assert {app for app, _ in POINTS} == set(PAPER_APPS)
    assert {kind for _, kind in POINTS} == set(CONFIG_KINDS)


@pytest.mark.parametrize(
    "app_name,kind", POINTS, ids=[f"{app}/{kind}" for app, kind in POINTS]
)
def test_quick_point_matches_pinned_result(app_name, kind):
    assert simulate(app_name, kind) == load_pinned()[f"{app_name}/{kind}"]


if __name__ == "__main__":
    pinned = {f"{app}/{kind}": simulate(app, kind) for app, kind in POINTS}
    with open(PINNED_PATH, "w") as f:
        json.dump(pinned, f, indent=2, sort_keys=True)
        f.write("\n")
