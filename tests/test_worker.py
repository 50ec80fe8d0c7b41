"""Tests for the grid's worker pool (repro.harness.worker).

* the supervisor against a *fake* spawn function and an injected clock —
  every failure verdict (death, timeout, wedged, poison point) exercised
  in milliseconds;
* real forked workers: a SIGKILLed sweep leaves no worker running, and a
  worker killed mid-run resumes from its snapshot under
  ``run_grid(on_error="resume")``.
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
from repro.harness.grid import GridPoint, _point_checkpoint_spec, run_grid
from repro.harness.retry import NO_BACKOFF, BackoffPolicy
from repro.harness.worker import WEDGED_AFTER_S, HeartbeatAgeTracker, Supervisor
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


# ----------------------------------------------------------------------
# Supervisor (fake workers, fake clock)
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


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


def make_supervisor(slots=2, max_attempts=3, backoff=NO_BACKOFF, **kwargs):
    clock = FakeClock()
    spawner = FakeSpawner()
    kwargs.setdefault("heartbeat_age", lambda pid: None)
    supervisor = Supervisor(
        slots, max_attempts, backoff, spawn=spawner, clock=clock, **kwargs
    )
    return supervisor, spawner, clock


class TestSupervisor:
    def test_dispatch_fills_slots_and_completes(self):
        supervisor, spawner, _ = make_supervisor(slots=2)
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

    def test_worker_death_retries_then_quarantines(self):
        supervisor, spawner, _ = make_supervisor(slots=1, max_attempts=3)
        task = supervisor.submit(point())
        for attempt in range(1, 4):
            supervisor.poll()  # dispatch (NO_BACKOFF: instantly eligible)
            assert task.attempts == attempt
            task.handle.die_silently()
            supervisor.poll()  # reap the death
        assert task.state == "failed"
        assert task.outcome == "worker-died"
        assert "quarantined after 3 attempts" in task.message
        assert len(spawner.calls) == 3

    def test_backoff_delays_the_retry(self):
        supervisor, spawner, clock = make_supervisor(
            slots=1, backoff=BackoffPolicy(base_s=5.0, cap_s=5.0, multiplier=1.0),
        )
        task = supervisor.submit(point())
        supervisor.poll()
        task.handle.die_silently()
        supervisor.poll()  # reap; retry scheduled 5s out
        supervisor.poll()
        assert len(spawner.calls) == 1  # not yet eligible
        assert task.id in supervisor.delayed
        clock.advance(5.1)
        supervisor.poll()
        assert len(spawner.calls) == 2  # respawned after the backoff

    def test_deterministic_failure_never_retries(self):
        supervisor, spawner, _ = make_supervisor(slots=1)
        task = supervisor.submit(point())
        supervisor.poll()
        task.handle.messages.append(
            ("deadlock", {"message": "all cores idle", "diagnostic": {}})
        )
        supervisor.poll()
        assert task.state == "failed"
        assert task.outcome == "deadlock"
        assert len(spawner.calls) == 1

    def test_timeout_kills_and_retries(self):
        supervisor, spawner, clock = make_supervisor(slots=1, timeout_s=30.0)
        task = supervisor.submit(point())
        supervisor.poll()
        handle = task.handle
        clock.advance(31.0)
        supervisor.poll()  # kill + (NO_BACKOFF) immediate redispatch
        assert handle.killed
        assert len(spawner.calls) == 2
        assert task.attempts == 2 and task.state == "running"

    def test_result_read_after_the_deadline_is_a_timeout(self):
        supervisor, _, clock = make_supervisor(
            slots=1, timeout_s=30.0, max_attempts=1
        )
        task = supervisor.submit(point())
        supervisor.poll()
        task.handle.finish_ok()
        clock.advance(31.0)
        supervisor.poll()
        assert task.state == "failed" and task.outcome == "timeout"

    def test_timed_out_worker_leaves_one_failed_ledger_line(self, tmp_path):
        """A worker the supervisor kills cannot write its own ledger line;
        the supervisor writes exactly one on its behalf."""
        supervisor, _, clock = make_supervisor(
            slots=1, timeout_s=30.0, max_attempts=1
        )
        set_ledger(tmp_path / "ledger.jsonl")
        try:
            task = supervisor.submit(point())
            supervisor.poll()
            clock.advance(31.0)
            supervisor.poll()
        finally:
            set_ledger(None)
        assert task.handle.killed
        assert task.state == "failed" and task.outcome == "timeout"
        assert "timed out after 30.0s" in task.message
        (line,) = read_ledger(tmp_path / "ledger.jsonl")
        assert line["outcome"] == "failed" and line["error"] == "timeout"
        assert line["source"] == "grid"
        assert (line["app"], line["kind"], line["scale"]) == (
            "cilk5-mt", "bt-mesi", "tiny"
        )
        assert line["attempt"] == 1 and line["wall_s"] == 31.0

    def test_wedged_worker_detected_via_heartbeat_age(self, tmp_path):
        supervisor, spawner, _ = make_supervisor(
            slots=1, heartbeat_age=lambda pid: WEDGED_AFTER_S + 1.0
        )
        set_ledger(tmp_path / "ledger.jsonl")
        try:
            task = supervisor.submit(point())
            supervisor.poll()
            handle = task.handle
            supervisor.poll()
        finally:
            set_ledger(None)
        assert handle.killed
        assert len(spawner.calls) == 2  # retried
        (line,) = read_ledger(tmp_path / "ledger.jsonl")
        assert line["error"] == "wedged"

    def test_wedged_verdict_runs_on_the_injected_clock(self, tmp_path, monkeypatch):
        """Regression: heartbeat ages used to be ``time.time() - mtime``
        while every other verdict ran on the injected clock — untestable
        under a fake clock, and one NTP step could false-kill a healthy
        worker.  With the default tracker the whole wedged path runs on
        the supervisor's own clock against real snapshot files."""
        hb_dir = tmp_path / "heartbeats"
        hb_dir.mkdir()
        monkeypatch.setenv("REPRO_HEARTBEAT_DIR", str(hb_dir))
        clock = FakeClock()
        # heartbeat_age not injected: the default tracker.
        supervisor = Supervisor(1, 3, NO_BACKOFF, spawn=FakeSpawner(), clock=clock)
        task = supervisor.submit(point())
        supervisor.poll()
        handle = task.handle
        snapshot = hb_dir / f"{handle.pid}-1.json"
        # Snapshot written in the *wall* clock's past: an mtime-vs-wall
        # subtraction would see it as ancient and kill instantly.
        snapshot.write_text("{}")
        os.utime(snapshot, (time.time() - 3600, time.time() - 3600))
        supervisor.poll()
        assert not handle.killed  # first observation counts as fresh
        clock.advance(WEDGED_AFTER_S - 1.0)
        supervisor.poll()
        assert not handle.killed  # under the threshold on the fake clock
        # A fresh beat (mtime changes) resets the age even though the fake
        # clock keeps marching.
        os.utime(snapshot, (time.time() - 1800, time.time() - 1800))
        clock.advance(WEDGED_AFTER_S - 1.0)
        supervisor.poll()
        assert not handle.killed
        clock.advance(WEDGED_AFTER_S + 1.0)  # no new beat for that long
        supervisor.poll()
        assert handle.killed
        assert task.attempts == 2  # retried

    def test_heartbeat_tracker_forgets_reaped_pids(self, tmp_path, monkeypatch):
        hb_dir = tmp_path / "heartbeats"
        hb_dir.mkdir()
        monkeypatch.setenv("REPRO_HEARTBEAT_DIR", str(hb_dir))
        clock = FakeClock()
        tracker = HeartbeatAgeTracker(clock)
        snapshot = hb_dir / "123-1.json"
        snapshot.write_text("{}")
        assert tracker(123) == 0.0
        clock.advance(5.0)
        assert tracker(123) == 5.0
        tracker.forget(123)
        clock.advance(5.0)
        # Same mtime, but a recycled pid starts a fresh observation window.
        assert tracker(123) == 0.0
        snapshot.unlink()
        assert tracker(123) is None  # no snapshot -> no wedged verdict

    def test_dedup_coalesces_identical_jobs(self):
        supervisor, spawner, _ = make_supervisor(slots=2)
        leader = supervisor.submit(point())
        follower = supervisor.submit(point())  # identical work key
        supervisor.poll()
        assert len(spawner.calls) == 1  # only the leader runs
        assert supervisor.followers == {leader.id: [follower]}
        leader.handle.finish_ok({"cycles": 42})
        supervisor.poll()
        assert leader.state == "done" and leader.outcome == "ok"
        assert follower.state == "done" and follower.outcome == "dedup"
        assert follower.result == {"cycles": 42} and follower.sims == 0

    def test_follower_runs_itself_when_leader_quarantined(self):
        supervisor, _, _ = make_supervisor(slots=2, max_attempts=1)
        leader = supervisor.submit(point())
        follower = supervisor.submit(point())
        supervisor.poll()
        assert supervisor.followers == {leader.id: [follower]}  # coalesced first
        leader.handle.die_silently()
        supervisor.poll()  # leader quarantined (max_attempts=1)
        assert leader.state == "failed"
        supervisor.poll()
        assert follower.id in supervisor.active  # promoted to run itself
        assert not supervisor.followers


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
    """A real worker killed mid-run is retried from its periodic snapshot,
    and the resumed run finishes with the cold result."""
    # Long enough (~33k cycles, 16 snapshots) that the kill, sent as soon
    # as the first snapshot exists, always lands mid-run.
    long_point = point(app="cilk5-cs", kind="bt-hcc-dts-gwb", scale="quick")
    reference = runner.run_point(long_point, use_cache=False)
    clear_cache()
    ckpt_dir = str(tmp_path / "ckpts")
    snapshot = _point_checkpoint_spec(long_point, ckpt_dir, 2000, resume=True)["path"]

    spawned = []
    real_spawn = worker.spawn_worker

    def spawn(grid_point, checkpoint):
        handle = real_spawn(grid_point, checkpoint)
        spawned.append((grid_point, handle.pid))
        return handle

    monkeypatch.setattr(worker, "spawn_worker", spawn)

    def kill_first_long_worker():
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if os.path.exists(snapshot):
                pid = next(pid for p, pid in spawned if p == long_point)
                os.kill(pid, signal.SIGKILL)
                return
            time.sleep(0.01)

    killer = threading.Thread(target=kill_first_long_worker, daemon=True)
    killer.start()
    set_result_store(tmp_path / "results")
    set_ledger(tmp_path / "ledger.jsonl")
    try:
        results = run_grid(
            [long_point, point()], jobs=2, checkpoint_dir=ckpt_dir,
            checkpoint_interval=2000, on_error="resume",
        )
    finally:
        set_ledger(None)
    killer.join(10)
    # The kill cost the long point one worker-died retry.
    assert [p for p, _ in spawned].count(long_point) == 2
    lost = [e for e in read_ledger(tmp_path / "ledger.jsonl") if e["source"] == "grid"]
    assert [(e["app"], e["error"]) for e in lost] == [("cilk5-cs", "worker-died")]
    result = result_to_dict(results[0])
    assert result.pop("extras")["ckpt_resumed_from"] >= 2000
    expected = result_to_dict(reference)
    expected.pop("extras")
    assert result == expected
