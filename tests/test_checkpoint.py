"""Determinism proofs for checkpoint/restore (repro.engine.checkpoint).

The central claim: a snapshot taken at an arbitrary cycle, restored into a
freshly built machine (same process or not), resumes to a final state
byte-identical to the uninterrupted run — cycle count, the full flattened
statistics tree, task/spawn counts, the memory digest over the app's own
allocations, and (for traced runs) the exported Perfetto JSON.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.apps import make_app
from repro.config import make_config
from repro.core import WorkStealingRuntime
from repro.engine.checkpoint import (
    CheckpointConfig,
    CheckpointDaemon,
    CheckpointError,
    load_snapshot,
    save_snapshot,
)
from repro.harness import clear_cache, set_result_store, simulation_count
from repro.machine import Machine

APP = "cilk5-cs"
PARAMS = dict(n=96, grain=16)
SEED = 42

#: The protocol matrix of ISSUE 5: hardware MESI, the three software-centric
#: HCC protocols, and DTS (ULI steal delivery) on the paper's best protocol.
KINDS = ["bt-mesi", "bt-hcc-dnv", "bt-hcc-gwt", "bt-hcc-gwb", "bt-hcc-dts-gwb"]


@pytest.fixture(autouse=True)
def isolated_harness():
    set_result_store(None)
    clear_cache()
    yield
    set_result_store(None)
    clear_cache()


def build(kind, *, fusion=True, tracer=None):
    app = make_app(APP, **PARAMS)
    machine = Machine(make_config(kind, "tiny", seed=SEED), tracer=tracer)
    machine.sim.fusion_enabled = fusion
    machine.enable_checkpointing()
    app.setup(machine)
    rt = WorkStealingRuntime(machine)
    return app, machine, rt


def end_state(machine, rt, cycles):
    return {
        "cycles": cycles,
        "flatten": machine.stats.flatten(),
        "digest": machine.memory_digest(machine.address_space.regions()),
        "tasks": rt.stats.get("tasks_executed"),
        "spawns": rt.stats.get("spawns"),
    }


def reference(kind, *, fusion=True):
    app, machine, rt = build(kind, fusion=fusion)
    cycles = rt.run(app.make_root(serial=False))
    app.check()
    return end_state(machine, rt, cycles)


def run_with_daemon(kind, interval, *, fusion=True):
    snaps = []
    app, machine, rt = build(kind, fusion=fusion)
    daemon = CheckpointDaemon(
        machine, interval, lambda m: snaps.append(m.snapshot())
    )
    daemon.arm()
    cycles = rt.run(app.make_root(serial=False))
    daemon.cancel()
    app.check()
    return end_state(machine, rt, cycles), snaps


def restore_and_finish(kind, snap, *, fusion=True):
    app, machine, rt = build(kind, fusion=fusion)
    machine.restore(snap, app.make_root(serial=False))
    cycles = rt.resume_run()
    app.check()
    return end_state(machine, rt, cycles)


class TestRoundTrip:
    @pytest.mark.parametrize("fusion", (True, False), ids=("fused", "unfused"))
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_snapshot_resumes_identically(self, kind, fusion):
        ref = reference(kind, fusion=fusion)
        daemon_ref, snaps = run_with_daemon(kind, 2000, fusion=fusion)
        # Taking snapshots never perturbs the run itself.
        assert daemon_ref == ref
        assert snaps, "run too short: no snapshots taken"
        for snap in snaps:
            resumed = restore_and_finish(kind, snap, fusion=fusion)
            assert resumed == ref, f"divergence from snapshot@{snap['cycle']}"

    def test_snapshot_survives_pickle_round_trip(self, tmp_path):
        _, snaps = run_with_daemon("bt-mesi", 2000)
        path = str(tmp_path / "run.ckpt")
        save_snapshot(path, snaps[0])
        resumed = restore_and_finish("bt-mesi", load_snapshot(path))
        assert resumed == reference("bt-mesi")

    def test_uli_steal_in_flight_snapshots(self):
        """DTS steals live on the wire as heap events (uli_req/uli_resp
        descriptors); snapshots taken mid-flight must restore them."""
        ref = reference("bt-hcc-dts-gwb")
        _, snaps = run_with_daemon("bt-hcc-dts-gwb", 250)
        in_flight = [
            s for s in snaps
            if any(e[2] in ("uli_req", "uli_resp") for e in s["sim"]["queue"])
        ]
        assert in_flight, "no snapshot caught a ULI message in flight"
        for snap in in_flight:
            resumed = restore_and_finish("bt-hcc-dts-gwb", snap)
            assert resumed == ref, f"divergence from snapshot@{snap['cycle']}"

    def test_resume_chain(self):
        """Snapshot, restore, snapshot again later, restore that: the
        kill → resume → kill → resume path crash recovery relies on."""
        kind = "bt-hcc-dts-gwb"
        ref = reference(kind)
        _, snaps = run_with_daemon(kind, 1000)
        first = snaps[0]
        # The restored run re-arms a daemon, as a resumed worker does.
        later = []
        app, machine, rt = build(kind)
        daemon = CheckpointDaemon(
            machine, 1000, lambda m: later.append(m.snapshot())
        )
        machine.restore(first, app.make_root(serial=False))
        daemon.arm()
        cycles = rt.resume_run()
        daemon.cancel()
        app.check()
        assert end_state(machine, rt, cycles) == ref
        assert later and later[0]["cycle"] > first["cycle"]
        resumed = restore_and_finish(kind, later[0])
        assert resumed == ref

    def test_paper_machine_snapshot_while_cores_switch(self):
        """On the 64-core ``paper`` machine most events run inside another
        core's trampoline call (switching); a daemon snapshot taken there
        resumes in a fresh machine to the cold run's end state."""
        def build_paper():
            app = make_app("ligra-bfs", scale=6, grain=4)
            machine = Machine(make_config("bt-hcc-dts-gwb", "paper", seed=SEED))
            machine.enable_checkpointing()
            app.setup(machine)
            return app, machine, WorkStealingRuntime(machine)

        app, machine, rt = build_paper()
        cold = end_state(machine, rt, rt.run(app.make_root(serial=False)))
        app.check()
        fusion = machine.sim.fusion_stats()
        # Fusion is nearly off here: events switch instead.
        assert fusion["fused_ratio"] < 0.2

        snaps = []
        app, machine, rt = build_paper()
        daemon = CheckpointDaemon(
            machine, 4000, lambda m: snaps.append(m.snapshot())
        )
        daemon.arm()
        cycles = rt.run(app.make_root(serial=False))
        daemon.cancel()
        assert end_state(machine, rt, cycles) == cold
        assert len(snaps) >= 2
        for snap in (snaps[0], snaps[len(snaps) // 2]):
            # Many cores' op completions were pending at the snapshot.
            completions = [e for e in snap["sim"]["queue"] if e[2] == "complete"]
            assert len(completions) >= 16
            app, machine, rt = build_paper()
            machine.restore(snap, app.make_root(serial=False))
            cycles = rt.resume_run()
            app.check()
            assert end_state(machine, rt, cycles) == cold, (
                f"divergence from snapshot@{snap['cycle']}"
            )

    def test_fresh_process_restore_is_byte_identical(self, tmp_path):
        """ISSUE acceptance: restore in a process that shares nothing with
        the snapshotting one (hash randomization, object ids, ...)."""
        ref = reference("bt-hcc-dts-gwb")
        _, snaps = run_with_daemon("bt-hcc-dts-gwb", 2000)
        path = str(tmp_path / "mid.ckpt")
        save_snapshot(path, snaps[len(snaps) // 2])
        script = (
            "import json, sys\n"
            "from repro.apps import make_app\n"
            "from repro.config import make_config\n"
            "from repro.core import WorkStealingRuntime\n"
            "from repro.engine.checkpoint import load_snapshot\n"
            "from repro.machine import Machine\n"
            f"app = make_app({APP!r}, **{PARAMS!r})\n"
            f"machine = Machine(make_config('bt-hcc-dts-gwb', 'tiny', seed={SEED}))\n"
            "machine.enable_checkpointing()\n"
            "app.setup(machine)\n"
            "rt = WorkStealingRuntime(machine)\n"
            "machine.restore(load_snapshot(sys.argv[1]), app.make_root(serial=False))\n"
            "cycles = rt.resume_run()\n"
            "app.check()\n"
            "print(json.dumps({'cycles': cycles,\n"
            "    'digest': machine.memory_digest(machine.address_space.regions()),\n"
            "    'tasks': rt.stats.get('tasks_executed'),\n"
            "    'spawns': rt.stats.get('spawns'),\n"
            "    'stats': sorted(machine.stats.flatten().items())}))\n"
        )
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", script, path],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        remote = json.loads(out.stdout)
        assert remote["cycles"] == ref["cycles"]
        assert remote["digest"] == ref["digest"]
        assert remote["tasks"] == ref["tasks"]
        assert remote["spawns"] == ref["spawns"]
        assert remote["stats"] == [list(kv) for kv in sorted(ref["flatten"].items())]

    def test_traced_resume_exports_identical_perfetto(self):
        """The tracer's event log is part of the snapshot: a resumed traced
        run exports the same Perfetto JSON, byte for byte — including the
        checkpoint instant markers."""
        from repro.trace import Tracer, export_chrome_trace

        def traced_run(interval, resume_snap=None):
            snaps = []
            tracer = Tracer()
            app, machine, rt = build("bt-hcc-dts-gwb", tracer=tracer)
            daemon = CheckpointDaemon(
                machine, interval, lambda m: snaps.append(m.snapshot())
            )
            if resume_snap is not None:
                machine.restore(resume_snap, app.make_root(serial=False))
                daemon.arm()
                rt.resume_run()
            else:
                daemon.arm()
                rt.run(app.make_root(serial=False))
            daemon.cancel()
            app.check()
            return export_chrome_trace(tracer), snaps

        ref_text, snaps = traced_run(2000)
        assert snaps
        for snap in snaps:
            resumed_text, _ = traced_run(2000, resume_snap=snap)
            assert resumed_text.encode() == ref_text.encode(), (
                f"trace divergence from snapshot@{snap['cycle']}"
            )


class TestHarnessIntegration:
    def test_run_experiment_resume_matches_cold(self, tmp_path):
        from repro.harness import run_experiment

        path = str(tmp_path / "run.ckpt")
        cold = run_experiment(APP, "bt-hcc-dts-gwb", "tiny", use_cache=False)
        first = run_experiment(
            APP, "bt-hcc-dts-gwb", "tiny", use_cache=False,
            checkpoint={"path": path, "interval": 2000, "keep": True},
        )
        assert os.path.exists(path)
        assert first.extras["ckpt_snapshots"] >= 1
        resumed = run_experiment(
            APP, "bt-hcc-dts-gwb", "tiny", use_cache=False,
            checkpoint={"path": path, "interval": 2000, "resume": True},
        )
        assert "ckpt_resumed_from" in resumed.extras
        assert not os.path.exists(path)  # consumed on success
        for result in (first, resumed):
            a = dataclasses.asdict(cold)
            b = dataclasses.asdict(result)
            a.pop("extras"), b.pop("extras")
            assert a == b

    def test_checkpointing_absent_from_cache_and_store_keys(self, tmp_path):
        """Checkpointing never perturbs outcomes, so a checkpointed run
        must share its memo/store slot with a plain one."""
        from repro.harness import run_experiment

        set_result_store(tmp_path / "results")
        run_experiment(APP, "bt-mesi", "tiny")
        sims = simulation_count()
        clear_cache()  # drop the memo; only the disk copy remains
        hit = run_experiment(
            APP, "bt-mesi", "tiny",
            checkpoint={"path": str(tmp_path / "never.ckpt"), "interval": 2000},
        )
        assert simulation_count() == sims  # store hit, no simulation
        assert hit.cycles > 0

    def test_grid_resume_picks_up_interrupted_point(self, tmp_path):
        """A killed sweep's leftover snapshot is found by the rerun: the
        point resumes mid-run instead of starting over."""
        from repro.harness import run_experiment, run_point
        from repro.harness.grid import (
            GridPoint,
            _point_checkpoint_spec,
            run_grid,
        )

        point = GridPoint(APP, "bt-hcc-dts-gwb", "tiny")
        cold = run_experiment(APP, "bt-hcc-dts-gwb", "tiny", use_cache=False)
        ckpt_dir = str(tmp_path / "ckpts")
        spec = _point_checkpoint_spec(
            point, ckpt_dir, 2000, resume=False
        )
        # Simulate the "killed mid-sweep" state: a run that left its
        # snapshot behind (keep=True stands in for the kill).
        clear_cache()
        run_point(point, use_cache=False, checkpoint=dict(spec, keep=True))
        assert os.path.exists(spec["path"])
        clear_cache()
        (resumed,) = run_grid(
            [point], jobs=1, checkpoint_dir=ckpt_dir,
            checkpoint_interval=2000, on_error="resume",
        )
        assert "ckpt_resumed_from" in resumed.extras
        a, b = dataclasses.asdict(cold), dataclasses.asdict(resumed)
        a.pop("extras"), b.pop("extras")
        assert a == b

    def test_parallel_grid_resume_picks_up_interrupted_point(self, tmp_path):
        """The checkpoint specs reach parallel workers too: a jobs=2 rerun
        resumes the point that left a snapshot and cold-runs the other,
        both identical to uninterrupted runs."""
        from repro.harness import run_point
        from repro.harness.grid import (
            GridPoint,
            _point_checkpoint_spec,
            run_grid,
        )

        p = GridPoint(APP, "bt-hcc-dts-gwb", "tiny")
        q = GridPoint("cilk5-mt", "bt-mesi", "tiny")
        cold = [run_point(point, use_cache=False) for point in (p, q)]
        ckpt_dir = str(tmp_path / "ckpts")
        spec = _point_checkpoint_spec(
            p, ckpt_dir, 2000, resume=False
        )
        clear_cache()
        run_point(p, use_cache=False, checkpoint=dict(spec, keep=True))
        assert os.path.exists(spec["path"])
        clear_cache()
        resumed = run_grid(
            [p, q], jobs=2, checkpoint_dir=ckpt_dir,
            checkpoint_interval=2000, on_error="resume",
        )
        assert "ckpt_resumed_from" in resumed[0].extras
        assert "ckpt_resumed_from" not in resumed[1].extras
        for c, r in zip(cold, resumed):
            a, b = dataclasses.asdict(c), dataclasses.asdict(r)
            a.pop("extras"), b.pop("extras")
            assert a == b


class TestGuards:
    def test_coerce_forms(self):
        assert CheckpointConfig.coerce(None) is None
        cfg = CheckpointConfig(path="x.ckpt")
        assert CheckpointConfig.coerce(cfg) is cfg
        assert CheckpointConfig.coerce("x.ckpt").path == "x.ckpt"
        assert CheckpointConfig.coerce({"path": "x.ckpt", "interval": 5}).interval == 5
        with pytest.raises(TypeError):
            CheckpointConfig.coerce(42)

    def test_load_rejects_non_checkpoints(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError, match="unreadable"):
            load_snapshot(str(path))

    def test_load_rejects_future_format_versions(self, tmp_path):
        import gzip
        import pickle

        from repro.engine.checkpoint import MAGIC

        path = tmp_path / "future.ckpt"
        snap = {"magic": MAGIC, "version": 999, "kind": "run"}
        path.write_bytes(gzip.compress(pickle.dumps(snap)))
        with pytest.raises(CheckpointError, match="version 999"):
            load_snapshot(str(path))

    def test_enable_checkpointing_must_precede_run(self):
        app = make_app(APP, **PARAMS)
        machine = Machine(make_config("bt-mesi", "tiny", seed=SEED))
        app.setup(machine)
        rt = WorkStealingRuntime(machine)
        rt.run(app.make_root(serial=False))
        with pytest.raises(RuntimeError, match="before the run starts"):
            machine.enable_checkpointing()

    def test_snapshot_requires_enabled_log(self):
        machine = Machine(make_config("bt-mesi", "tiny", seed=SEED))
        with pytest.raises(CheckpointError):
            machine.snapshot()

    def test_restore_requires_fresh_machine(self):
        _, snaps = run_with_daemon("bt-mesi", 2000)
        app, machine, rt = build("bt-mesi")
        rt.run(app.make_root(serial=False))  # machine now used
        with pytest.raises(CheckpointError):
            machine.restore(snaps[0], app.make_root(serial=False))

    def test_daemon_rejects_bad_interval(self):
        _, machine, _ = build("bt-mesi")
        with pytest.raises(ValueError):
            CheckpointDaemon(machine, 0, lambda m: None)

    def test_grid_checkpoint_argument_validation(self):
        from repro.harness.grid import run_grid

        with pytest.raises(ValueError, match="requires checkpoint_dir"):
            run_grid([], on_error="resume")

    @pytest.mark.parametrize("spec", [
        {"interval": 2000},
        {"resume": True, "keep": True},
        {"path": None, "interval": 2000},
    ])
    def test_pathless_spec_fails_before_simulating(self, spec):
        """A spec without a snapshot path would snapshot nothing and resume
        from nothing; it must raise instead of silently running cold."""
        from repro.harness import run_experiment

        sims = simulation_count()
        with pytest.raises((TypeError, ValueError), match="path"):
            run_experiment(APP, "bt-mesi", "tiny", checkpoint=spec)
        assert simulation_count() == sims
