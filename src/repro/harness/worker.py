"""Worker processes and the pool that supervises them.

:func:`spawn_worker` forks (or spawns) one child that runs a single
:class:`repro.harness.runner.GridPoint` through ``run_point`` with the
checkpoint spec passed beside it, and ships the outcome back over a
one-way pipe as JSON-safe plain data; the caller gets a
:class:`WorkerHandle`.  :class:`Supervisor` drives these handles as the
worker pool behind ``run_grid(jobs > 1)``.

Pipe protocol — exactly one ``(status, payload)`` message per worker:

* ``("ok", {"result", "sims"})`` — ``result`` in ``result_to_dict`` form;
  ``sims`` is the child's simulation count (0 = satisfied from the store);
* ``(error, {"message", "diagnostic"})`` — ``error`` is the kind
  :func:`repro.harness.runner._classify_failure` assigns (``deadlock``,
  ``violation``, ``error``), the same table the serial path uses.

A worker that dies before sending reads as a broken pipe on the parent
side; the supervisor turns that into ``worker-died``.  A worker whose
parent dies exits at once (:func:`_exit_with_parent`), so a killed sweep
leaves nothing simulating behind it.
"""

from __future__ import annotations

import glob
import itertools
import multiprocessing
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Callable, Deque, Dict, List, Optional

import repro.harness.runner as runner
from repro.harness.grid import _mp_context
from repro.harness.resultstore import hash_key
from repro.harness.retry import Backoff, BackoffPolicy
from repro.harness.runner import GridPoint

#: Errors that are deterministic functions of the point — retrying would
#: only reproduce them.
DETERMINISTIC_ERRORS = ("deadlock", "violation")

#: A running worker whose heartbeat snapshot has not been replaced for this
#: many seconds is presumed wedged and killed (only when a heartbeat
#: directory is configured).
WEDGED_AFTER_S = 60.0


def _exit_with_parent() -> None:
    """Exit this worker as soon as its parent process is gone.

    A SIGKILLed sweep cannot kill its children, and an orphaned worker
    would keep simulating and writing the store and snapshots.  The parent
    sentinel becomes readable once every copy of the parent's end of it is
    closed.  A sibling forked later holds a copy too, but the newest worker
    depends on the parent alone, so the exits unravel newest first.
    """
    parent = multiprocessing.parent_process()
    if parent is None:
        return

    def watch():
        wait([parent.sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="repro-parent-watch", daemon=True).start()


def _worker_entry(
    conn, point: GridPoint, checkpoint: Optional[dict], results_dir: Optional[str]
) -> None:
    """Run one point in a child process; send one message on ``conn``."""
    _exit_with_parent()
    try:
        runner.set_result_store(results_dir)
        result = runner.run_point(point, checkpoint=checkpoint)
        from repro.harness.export import result_to_dict

        message = (
            "ok",
            {"result": result_to_dict(result), "sims": runner.simulation_count()},
        )
    except Exception as exc:  # report, never hang the parent
        error, text, diagnostic = runner._classify_failure(exc)
        message = (error, {"message": text, "diagnostic": diagnostic})
    try:
        conn.send(message)
    except Exception:
        pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


class WorkerHandle:
    """A live worker process plus the read end of its result pipe."""

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn

    @property
    def pid(self) -> int:
        return self.proc.pid

    def alive(self) -> bool:
        return self.proc.is_alive()

    def poll_message(self):
        """The worker's (status, payload) message, or None; "gone" when
        the pipe broke before any message arrived."""
        try:
            if not self.conn.poll(0):
                return None
            return self.conn.recv()
        except (EOFError, OSError):
            return ("gone", None)

    def kill(self) -> None:
        if self.proc.is_alive():
            self.proc.kill()

    def close(self) -> None:
        try:
            self.conn.close()
        except Exception:
            pass
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join()


def spawn_worker(point: GridPoint, checkpoint: Optional[dict]) -> WorkerHandle:
    """Start one worker for ``point`` against the configured result store.

    ``checkpoint`` is the run's CheckpointConfig kwargs (plain data, so it
    pickles), or None.
    """
    store = runner.get_result_store()
    results_dir = str(store.root) if store is not None else None
    ctx = _mp_context()
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_worker_entry,
        args=(child_conn, point, checkpoint, results_dir),
        daemon=True,
    )
    proc.start()
    child_conn.close()
    return WorkerHandle(proc, parent_conn)


class HeartbeatAgeTracker:
    """Ages heartbeat snapshots on the supervisor's injected clock.

    File mtimes live in the wall-clock domain (``time.time``) while every
    supervision verdict runs on the injectable ``clock`` (default
    ``time.monotonic``); subtracting one from the other lets an NTP step
    instantly "age" a healthy worker past the wedged threshold — and makes
    the wedged path untestable under a fake clock.  The tracker therefore
    never subtracts an mtime from anything: mtimes are compared only for
    *equality* (did the snapshot change since last look?), each change is
    stamped with the injected clock, and ages are differences of those
    stamps.  The first observation of a pid counts as fresh (age 0): the
    worker gets one full :data:`WEDGED_AFTER_S` window from the moment the
    supervisor starts watching it, never a head start from stale files.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self.clock = clock
        #: pid -> (newest mtime last seen, injected-clock stamp of that
        #: observation).  Mtimes are opaque change tokens here.
        self._seen: Dict[int, tuple] = {}

    @staticmethod
    def _newest_mtime(pid: int) -> Optional[float]:
        from repro.obs.heartbeat import heartbeat_dir

        directory = heartbeat_dir()
        if not directory:
            return None
        newest = None
        for path in glob.glob(os.path.join(directory, f"{pid}-*.json")):
            try:
                mtime = os.path.getmtime(path)
            except OSError:
                continue
            if newest is None or mtime > newest:
                newest = mtime
        return newest

    def __call__(self, pid: int) -> Optional[float]:
        """Seconds (on the injected clock) since worker ``pid`` last
        replaced a heartbeat snapshot, or None when no snapshot exists
        (heartbeats off → no wedged verdict, the wall-clock timeout is
        the only backstop)."""
        newest = self._newest_mtime(pid)
        if newest is None:
            self._seen.pop(pid, None)
            return None
        now = self.clock()
        last = self._seen.get(pid)
        if last is None or last[0] != newest:
            self._seen[pid] = (newest, now)
            return 0.0
        return max(0.0, now - last[1])

    def forget(self, pid: int) -> None:
        """Drop state for a reaped worker (pids get recycled)."""
        self._seen.pop(pid, None)


@dataclass
class Task:
    """One submitted point: how it runs and how far it got.

    ``state`` goes pending → running → done | failed; a retry goes back
    to pending.  ``outcome`` is ``"ok"``, ``"dedup"`` (finished by an
    identical running point) or the failure kind.
    """

    id: int
    point: GridPoint
    checkpoint: Optional[dict]
    #: ``hash_key(point.key())``: identical points share it.
    key: str
    state: str = "pending"
    attempts: int = 0
    outcome: Optional[str] = None
    message: Optional[str] = None
    #: ``result_to_dict`` payload once done.
    result: Optional[dict] = None
    #: The worker's simulation count once done (0 = a store hit; dedup
    #: followers ran nothing themselves).
    sims: Optional[int] = None
    #: Failure detail once failed (watchdog dump, sanitizer violations).
    diagnostic: dict = field(default_factory=dict)
    handle: Optional[WorkerHandle] = None
    started_at: float = 0.0
    backoff: Optional[Backoff] = None

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed")


class Supervisor:
    """A pool of ``slots`` worker processes over a FIFO of points.

    One :meth:`poll` is a complete supervision tick: reap worker messages,
    judge lost workers, admit backed-off retries, and dispatch pending
    points into free slots.  The clock, the spawn function and the
    heartbeat probe are injectable, so every failure path runs in
    milliseconds without real processes.

    Verdicts per worker, in check order:

    1. wall-clock budget exceeded — kill, retryable (``timeout``), even
       when a message is waiting: a result is only seen when the pool
       polls, so one read after the deadline cannot show the run met it;
    2. message received — ``ok``, a deterministic failure
       (``deadlock``/``violation``: quarantined at once) or a retryable
       ``error``;
    3. process died without a message — retryable (``worker-died``);
    4. heartbeat snapshot too old — kill, retryable (``wedged``).

    On verdicts 1, 3 and 4 the supervisor writes a ``failed`` run ledger
    line with ``source: "grid"``: a killed or dead worker never wrote its
    own.  Retryable failures wait out ``backoff``
    (``repro.harness.retry``); a point that fails ``max_attempts`` times
    is quarantined as ``failed``.  A point identical to a running one
    (same work key) waits for that twin and takes its result.
    """

    def __init__(
        self,
        slots: int,
        max_attempts: int,
        backoff: BackoffPolicy,
        timeout_s: Optional[float] = None,
        spawn: Optional[Callable[[GridPoint, Optional[dict]], WorkerHandle]] = None,
        clock: Callable[[], float] = time.monotonic,
        heartbeat_age: Optional[Callable[[int], Optional[float]]] = None,
    ):
        self.slots = slots
        self.max_attempts = max_attempts
        self.backoff = backoff
        self.timeout_s = timeout_s
        # Looked up per instance, not bound as a default, so a wrapped
        # spawn_worker takes effect.
        self.spawn = spawn if spawn is not None else spawn_worker
        self.clock = clock
        # The default tracker shares the supervisor's clock so wedged
        # verdicts run in the same (fake-steppable) time domain as the rest.
        self.heartbeat_age = (
            heartbeat_age if heartbeat_age is not None
            else HeartbeatAgeTracker(clock)
        )
        self._ids = itertools.count()
        self.active: Dict[int, Task] = {}
        self.delayed: Dict[int, Task] = {}
        #: leader task id -> tasks coalesced behind it.
        self.followers: Dict[int, List[Task]] = {}
        self._pending: Deque[Task] = deque()

    def submit(self, point: GridPoint, checkpoint: Optional[dict] = None) -> Task:
        """Queue one point (behind every point already queued)."""
        task = Task(next(self._ids), point, checkpoint, hash_key(point.key()))
        self._pending.append(task)
        return task

    def poll(self) -> None:
        """One complete supervision pass (cheap; call it on a timer)."""
        self._check_timeouts()
        self._reap_messages()
        self._check_wedged()
        self._admit_delayed()
        self._dispatch()

    def shutdown(self) -> None:
        """Kill every live worker."""
        for tid in list(self.active):
            task = self.active.pop(tid)
            task.handle.kill()
            task.handle.close()

    # ------------------------------------------------------------------
    # Message reaping
    # ------------------------------------------------------------------
    def _reap_messages(self) -> None:
        for task in list(self.active.values()):
            message = task.handle.poll_message()
            if message is not None:
                self._on_message(task, *message)
            elif not task.handle.alive():
                self._lost(task, "worker-died",
                           "worker exited without reporting a result")

    def _on_message(self, task: Task, status, payload) -> None:
        if status == "gone":
            self._lost(task, "worker-died", "result pipe broke")
            return
        payload = payload or {}
        self._close(task)
        if status == "ok":
            self._complete(task, payload)
        elif status in DETERMINISTIC_ERRORS:
            self._quarantine(task, status, payload.get("message", status),
                             payload.get("diagnostic"))
        else:
            self._retry(task, status, payload.get("message", status),
                        payload.get("diagnostic"))

    def _close(self, task: Task) -> None:
        del self.active[task.id]
        task.handle.close()
        forget = getattr(self.heartbeat_age, "forget", None)
        if forget is not None:
            forget(task.handle.pid)

    def _lost(self, task: Task, error: str, message: str) -> None:
        """Kill (if still alive) and reap a worker that cannot report, write
        the ledger line it never will, and retry its point."""
        task.handle.kill()
        self._close(task)
        from repro.obs.ledger import get_ledger

        ledger = get_ledger()
        if ledger is not None:
            point = task.point
            ledger.record(
                source="grid",
                outcome="failed",
                error=error,
                message=message,
                app=point.app,
                kind=point.kind,
                scale=point.scale,
                serial=bool(point.serial),
                attempt=task.attempts,
                wall_s=self.clock() - task.started_at,
            )
        self._retry(task, error, message)

    # ------------------------------------------------------------------
    # Verdicts
    # ------------------------------------------------------------------
    def _complete(self, task: Task, payload: dict) -> None:
        task.state = "done"
        task.outcome = "ok"
        task.result = payload["result"]
        task.sims = payload.get("sims")
        for follower in self.followers.pop(task.id, []):
            follower.state = "done"
            follower.outcome = "dedup"
            follower.result = task.result
            follower.sims = 0

    def _quarantine(
        self, task: Task, error: str, message: str,
        diagnostic: Optional[dict] = None,
    ) -> None:
        task.state = "failed"
        task.outcome = error
        task.message = message
        task.diagnostic = diagnostic or {}
        # Followers must run for themselves now (and will store-hit if the
        # failure was environmental and a retrying twin later succeeds).
        self._pending.extend(self.followers.pop(task.id, []))

    def _retry(
        self, task: Task, error: str, message: str,
        diagnostic: Optional[dict] = None,
    ) -> None:
        if task.attempts >= self.max_attempts:
            self._quarantine(
                task, error,
                f"quarantined after {task.attempts} attempts: {message}",
                diagnostic,
            )
            return
        task.state = "pending"
        if task.backoff is None:
            task.backoff = Backoff(self.backoff, clock=self.clock)
        task.backoff.fail()
        self.delayed[task.id] = task

    # ------------------------------------------------------------------
    # Watchdogs: timeout, wedged
    # ------------------------------------------------------------------
    def _check_timeouts(self) -> None:
        if self.timeout_s is None:
            return
        now = self.clock()
        for task in list(self.active.values()):
            if now > task.started_at + self.timeout_s:
                self._lost(task, "timeout", f"timed out after {self.timeout_s}s")

    def _check_wedged(self) -> None:
        for task in list(self.active.values()):
            age = self.heartbeat_age(task.handle.pid)
            if age is not None and age > WEDGED_AFTER_S:
                self._lost(task, "wedged", f"no heartbeat for {age:.1f}s")

    def _admit_delayed(self) -> None:
        for tid in list(self.delayed):
            if self.delayed[tid].backoff.ready():
                self._pending.append(self.delayed.pop(tid))

    def _dispatch(self) -> None:
        while len(self.active) < self.slots and self._pending:
            task = self._pending.popleft()
            twin = next(
                (run for run in self.active.values() if run.key == task.key), None
            )
            if twin is not None:
                # Identical work is already in flight: wait for its result
                # instead of simulating twice.
                self.followers.setdefault(twin.id, []).append(task)
                continue
            task.handle = self.spawn(task.point, task.checkpoint)
            task.state = "running"
            task.attempts += 1
            task.started_at = self.clock()
            self.active[task.id] = task
