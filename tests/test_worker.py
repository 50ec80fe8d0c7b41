"""Tests for the grid's worker pool (repro.harness.worker).

* the supervisor against a *fake* spawn function, driven through
  :meth:`Supervisor.poll` — dispatch, a final message, a silent death;
* real forked workers: :meth:`Supervisor.wait` blocks until a worker
  finishes, identical points run once, a SIGKILLed sweep leaves no worker
  running, and a point whose worker was killed fails as ``worker-died``
  and resumes from its snapshot when the sweep is rerun.
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

import repro.harness.runner as runner
import repro.harness.worker as worker
from repro.harness import clear_cache, set_result_store
from repro.harness.export import result_to_dict
from repro.harness.grid import (
    FailedResult,
    GridPoint,
    _point_checkpoint_spec,
    run_grid,
)
from repro.harness.worker import Supervisor
from repro.obs.ledger import read_ledger, set_ledger


@pytest.fixture(autouse=True)
def isolated_harness():
    set_result_store(None)
    clear_cache()
    yield
    set_result_store(None)
    clear_cache()


def point(**overrides) -> GridPoint:
    fields = dict(app="cilk5-mt", kind="bt-mesi", scale="tiny")
    fields.update(overrides)
    return GridPoint(**fields)


class _SpawnCounter:
    """Wraps the real ``spawn_worker``, recording each (point, pid)."""

    def __init__(self, monkeypatch):
        self.spawned = []
        self._real = worker.spawn_worker
        monkeypatch.setattr(worker, "spawn_worker", self)

    def __call__(self, grid_point, checkpoint):
        handle = self._real(grid_point, checkpoint)
        self.spawned.append((grid_point, handle.pid))
        return handle


# ----------------------------------------------------------------------
# Supervisor (fake workers)
# ----------------------------------------------------------------------
class FakeHandle:
    _next_pid = 50_000

    def __init__(self):
        FakeHandle._next_pid += 1
        self.pid = FakeHandle._next_pid
        self._alive = True
        self.killed = False
        self.messages = []

    def alive(self):
        return self._alive

    def poll_message(self):
        if self.messages:
            return self.messages.pop(0)
        return None

    def kill(self):
        self.killed = True
        self._alive = False

    def close(self):
        self._alive = False

    # Test helpers -----------------------------------------------------
    def finish_ok(self, result=None):
        self.messages.append(("ok", {"result": result or {"cycles": 1}}))
        self._alive = False

    def die_silently(self):
        self._alive = False


class FakeSpawner:
    def __init__(self):
        self.calls = []  # (point, checkpoint dict, handle)

    def __call__(self, point, checkpoint):
        handle = FakeHandle()
        self.calls.append((point, checkpoint, handle))
        return handle


def make_supervisor(slots=2):
    spawner = FakeSpawner()
    return Supervisor(slots, spawn=spawner), spawner


class TestSupervisor:
    def test_dispatch_fills_slots_and_completes(self):
        supervisor, spawner = make_supervisor(slots=2)
        tasks = [supervisor.submit(point(app_overrides={"n": i})) for i in range(3)]
        supervisor.poll()
        assert sorted(supervisor.active) == [0, 1]  # third waits for a slot
        tasks[0].handle.finish_ok()
        supervisor.poll()
        assert tasks[0].state == "done"
        assert tasks[0].outcome == "ok"
        assert tasks[2].id in supervisor.active  # backfilled
        for task in tasks[1:]:
            task.handle.finish_ok()
        supervisor.poll()
        assert all(task.state == "done" for task in tasks)
        assert not supervisor.active and len(spawner.calls) == 3

    def test_worker_death_fails_the_point_once(self):
        """A worker that exits without a message fails its point at once,
        on its one spawn."""
        supervisor, spawner = make_supervisor(slots=1)
        task = supervisor.submit(point())
        supervisor.poll()
        task.handle.die_silently()
        supervisor.poll()
        supervisor.poll()
        assert task.state == "failed"
        assert task.outcome == "worker-died"
        assert task.message == "worker exited without reporting a result"
        assert task.handle.killed
        assert len(spawner.calls) == 1 and not supervisor.active

    def test_lost_worker_leaves_one_grid_ledger_line(self, tmp_path):
        """The supervisor writes the one ledger line a silently dead worker
        never wrote."""
        supervisor, _ = make_supervisor(slots=1)
        set_ledger(tmp_path / "ledger.jsonl")
        try:
            task = supervisor.submit(point())
            supervisor.poll()
            task.handle.die_silently()
            supervisor.poll()
            supervisor.poll()
        finally:
            set_ledger(None)
        assert task.outcome == "worker-died"
        (line,) = read_ledger(tmp_path / "ledger.jsonl")
        assert line["outcome"] == "failed" and line["error"] == "worker-died"
        assert line["source"] == "grid"
        assert (line["app"], line["kind"], line["scale"]) == (
            "cilk5-mt", "bt-mesi", "tiny"
        )

    def test_deterministic_failure_never_retries(self):
        supervisor, spawner = make_supervisor(slots=1)
        task = supervisor.submit(point())
        supervisor.poll()
        task.handle.messages.append(
            ("deadlock", {"message": "all cores idle", "diagnostic": {}})
        )
        supervisor.poll()
        supervisor.poll()
        assert task.state == "failed"
        assert task.outcome == "deadlock"
        assert len(spawner.calls) == 1

    def test_wait_blocks_until_a_worker_can_be_reaped(self):
        """Real workers: ``wait()`` returns only once some worker has sent
        its message or exited, so each ``wait(); poll()`` round finishes at
        least one point."""
        supervisor = Supervisor(2)
        tasks = [supervisor.submit(point(kind=kind))
                 for kind in ("bt-mesi", "bt-hcc-gwt", "bt-hcc-dts-gwb")]
        supervisor.wait()  # nothing running yet: returns at once
        supervisor.poll()
        assert len(supervisor.active) == 2
        try:
            while not all(task.terminal for task in tasks):
                before = sum(task.terminal for task in tasks)
                supervisor.wait()
                supervisor.poll()
                assert sum(task.terminal for task in tasks) > before
        finally:
            supervisor.shutdown()
        assert [task.outcome for task in tasks] == ["ok"] * 3
        assert all(task.result["cycles"] > 0 for task in tasks)

    def test_dedup_coalesces_identical_jobs(self, monkeypatch):
        """Identical points are submitted once and share its result."""
        spawns = _SpawnCounter(monkeypatch)
        other = point(kind="bt-hcc-gwt")
        results = run_grid([point(), other, point()], jobs=2)
        assert sorted(p.kind for p, _ in spawns.spawned) == ["bt-hcc-gwt", "bt-mesi"]
        assert results[0] == results[2] and results[0] != results[1]

    def test_failure_fills_every_identical_slot(self, monkeypatch):
        """A failed point fails every slot of its group, on one spawn."""
        spawns = _SpawnCounter(monkeypatch)
        bad = point(app_overrides={"no_such_param": 1})
        results = run_grid([bad, point(), bad], jobs=2, on_error="record")
        assert len(spawns.spawned) == 2
        assert results[1].cycles > 0
        for failed in (results[0], results[2]):
            assert isinstance(failed, FailedResult) and failed.error == "error"
            assert "no_such_param" in failed.message


# ----------------------------------------------------------------------
# Real workers
# ----------------------------------------------------------------------
def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie (an orphan's new
    parent may reap it late, or never)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched run_point reaches the workers only through fork",
)
def test_sigkilled_sweep_leaves_no_worker_behind(tmp_path, monkeypatch):
    """A SIGKILLed sweep parent cannot stop its workers; each worker
    watches its parent and exits when it is gone."""
    pid_dir = tmp_path / "pids"
    pid_dir.mkdir()

    def sleeping_run_point(point, **kwargs):
        (pid_dir / str(os.getpid())).touch()
        time.sleep(120)

    monkeypatch.setattr(runner, "run_point", sleeping_run_point)
    monkeypatch.delenv("REPRO_MP", raising=False)
    points = [point(), point(kind="bt-hcc-gwb")]
    sweep = multiprocessing.get_context("fork").Process(
        target=run_grid, args=(points,), kwargs=dict(jobs=2)
    )
    sweep.start()
    pids = []
    try:
        deadline = time.monotonic() + 30.0
        while len(pids) < 2:
            assert time.monotonic() < deadline, "workers never started"
            time.sleep(0.02)
            pids = [int(name) for name in os.listdir(pid_dir)]
        os.kill(sweep.pid, signal.SIGKILL)
        sweep.join(10)
        deadline = time.monotonic() + 5.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in pids if _running(pid)] == []
    finally:
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        if sweep.is_alive():
            sweep.kill()
            sweep.join(10)


def test_killed_worker_resumes_from_its_snapshot(tmp_path, monkeypatch):
    """A real worker killed mid-run fails its point as ``worker-died``;
    rerunning the sweep resumes that point from its periodic snapshot,
    and the resumed run finishes with the cold result."""
    # Long enough (~33k cycles, 16 snapshots) that the kill, sent as soon
    # as the first snapshot exists, always lands mid-run.
    long_point = point(app="cilk5-cs", kind="bt-hcc-dts-gwb", scale="quick")
    reference = runner.run_point(long_point, use_cache=False)
    clear_cache()
    ckpt_dir = str(tmp_path / "ckpts")
    snapshot = _point_checkpoint_spec(long_point, ckpt_dir, 2000, resume=True)["path"]
    spawns = _SpawnCounter(monkeypatch)

    def kill_first_long_worker():
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if os.path.exists(snapshot):
                pid = next(pid for p, pid in spawns.spawned if p == long_point)
                os.kill(pid, signal.SIGKILL)
                return
            time.sleep(0.01)

    def sweep():
        return run_grid(
            [long_point, point()], jobs=2, checkpoint_dir=ckpt_dir,
            checkpoint_interval=2000, on_error="resume",
        )

    killer = threading.Thread(target=kill_first_long_worker, daemon=True)
    killer.start()
    set_result_store(tmp_path / "results")
    set_ledger(tmp_path / "ledger.jsonl")
    try:
        first = sweep()
    finally:
        set_ledger(None)
    killer.join(10)
    # One attempt: the killed point fails, and the sweep does not retry it.
    assert [p for p, _ in spawns.spawned].count(long_point) == 1
    assert isinstance(first[0], FailedResult) and first[0].error == "worker-died"
    assert first[1].cycles > 0
    lost = [e for e in read_ledger(tmp_path / "ledger.jsonl") if e["source"] == "grid"]
    assert [(e["app"], e["error"]) for e in lost] == [("cilk5-cs", "worker-died")]

    clear_cache()
    results = sweep()
    assert [p for p, _ in spawns.spawned].count(long_point) == 2
    result = result_to_dict(results[0])
    assert result.pop("extras")["ckpt_resumed_from"] >= 2000
    expected = result_to_dict(reference)
    expected.pop("extras")
    assert result == expected
    assert results[1] == first[1]
