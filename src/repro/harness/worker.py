"""Worker processes and the pool that supervises them.

:func:`spawn_worker` forks (or spawns) one child that runs a single
:class:`repro.harness.runner.GridPoint` through ``run_point`` with the
checkpoint spec passed beside it, and ships the outcome back over a
one-way pipe as JSON-safe plain data; the caller gets a
:class:`WorkerHandle`.  :class:`Supervisor` drives these handles as the
worker pool behind ``run_grid(jobs > 1)``: one attempt per point, no
timers, blocking on the workers' pipes and process sentinels.

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

import itertools
import multiprocessing
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Callable, Deque, Dict, Optional

import repro.harness.runner as runner
from repro.harness.grid import _mp_context
from repro.harness.runner import GridPoint


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


@dataclass
class Task:
    """One submitted point and how its single attempt went.

    ``state`` goes pending → running → done | failed.  ``outcome`` is
    ``"ok"`` or the failure kind.
    """

    id: int
    point: GridPoint
    checkpoint: Optional[dict]
    state: str = "pending"
    outcome: Optional[str] = None
    message: Optional[str] = None
    #: ``result_to_dict`` payload once done.
    result: Optional[dict] = None
    #: The worker's simulation count once done (0 = a store hit).
    sims: Optional[int] = None
    #: Failure detail once failed (watchdog dump, sanitizer violations).
    diagnostic: dict = field(default_factory=dict)
    handle: Optional[WorkerHandle] = None
    started_at: float = 0.0

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed")


class Supervisor:
    """A pool of ``slots`` worker processes over a FIFO of points.

    :meth:`poll` never blocks: it reaps worker messages and deaths, then
    dispatches pending points into free slots.  :meth:`wait` blocks until
    some worker has something to reap.  The spawn function is injectable,
    so tests drive :meth:`poll` against fake workers.

    Each point gets one attempt, and a worker's message is final: ``ok``
    completes the point, any failure kind it reports fails it.  A worker
    that exits without a message fails its point as ``worker-died``; it
    never wrote its own run ledger line, so the supervisor writes a
    ``failed`` one with ``source: "grid"``.  A failed point is recovered
    by rerunning the sweep.
    """

    def __init__(
        self,
        slots: int,
        spawn: Optional[Callable[[GridPoint, Optional[dict]], WorkerHandle]] = None,
    ):
        self.slots = slots
        # Looked up per instance, not bound as a default, so a wrapped
        # spawn_worker takes effect.
        self.spawn = spawn if spawn is not None else spawn_worker
        self._ids = itertools.count()
        self.active: Dict[int, Task] = {}
        self._pending: Deque[Task] = deque()

    def submit(self, point: GridPoint, checkpoint: Optional[dict] = None) -> Task:
        """Queue one point (behind every point already queued)."""
        task = Task(next(self._ids), point, checkpoint)
        self._pending.append(task)
        return task

    def poll(self) -> None:
        """Reap finished workers, then fill free slots; never blocks."""
        for task in list(self.active.values()):
            message = task.handle.poll_message()
            if message is not None:
                self._on_message(task, *message)
            elif not task.handle.alive():
                self._lost(task, "worker exited without reporting a result")
        while len(self.active) < self.slots and self._pending:
            task = self._pending.popleft()
            task.handle = self.spawn(task.point, task.checkpoint)
            task.state = "running"
            task.started_at = time.monotonic()
            self.active[task.id] = task

    def wait(self) -> None:
        """Block until a running worker sends its message or exits."""
        if self.active:
            wait([obj for task in self.active.values()
                  for obj in (task.handle.conn, task.handle.proc.sentinel)])

    def shutdown(self) -> None:
        """Kill every live worker."""
        for tid in list(self.active):
            task = self.active.pop(tid)
            task.handle.kill()
            task.handle.close()

    def _on_message(self, task: Task, status, payload) -> None:
        if status == "gone":
            self._lost(task, "result pipe broke")
            return
        payload = payload or {}
        self._close(task)
        if status == "ok":
            task.state = "done"
            task.outcome = "ok"
            task.result = payload["result"]
            task.sims = payload.get("sims")
        else:
            self._fail(task, status, payload.get("message", status),
                       payload.get("diagnostic"))

    def _close(self, task: Task) -> None:
        del self.active[task.id]
        task.handle.close()

    def _fail(
        self, task: Task, error: str, message: str,
        diagnostic: Optional[dict] = None,
    ) -> None:
        task.state = "failed"
        task.outcome = error
        task.message = message
        task.diagnostic = diagnostic or {}

    def _lost(self, task: Task, message: str) -> None:
        """Reap a worker that exited without reporting, write the ledger
        line it never will, and fail its point as ``worker-died``."""
        task.handle.kill()
        self._close(task)
        from repro.obs.ledger import get_ledger

        ledger = get_ledger()
        if ledger is not None:
            point = task.point
            ledger.record(
                source="grid",
                outcome="failed",
                error="worker-died",
                message=message,
                app=point.app,
                kind=point.kind,
                scale=point.scale,
                serial=bool(point.serial),
                wall_s=time.monotonic() - task.started_at,
            )
        self._fail(task, "worker-died", message)
