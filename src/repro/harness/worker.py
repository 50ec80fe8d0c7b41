"""Worker processes: the one place the repo starts simulation children.

:func:`spawn_worker` forks (or spawns) one child that runs a single
:class:`repro.harness.grid.GridPoint` through ``run_experiment`` and ships
the outcome back over a one-way pipe as JSON-safe plain data; the caller
gets a :class:`WorkerHandle`.  ``repro.serve.Supervisor`` drives these
handles for both of its clients: the job service and ``run_grid``'s
parallel path.

Pipe protocol — exactly one ``(status, payload)`` message per worker:

* ``("ok", {"result", "sims"})`` — ``result`` in ``result_to_dict`` form;
  ``sims`` is the child's simulation count (0 = satisfied from the store);
* ``("parked", {"cycle", "snapshot"})`` — preempted cooperatively;
* ``(error, {"message", "diagnostic"})`` — ``error`` is the kind
  :func:`repro.harness.runner._classify_failure` assigns (``deadlock``,
  ``violation``, ``error``), the same table the serial path uses.

A worker that dies before sending reads as a broken pipe on the parent
side; the supervisor turns that into ``worker-died``.
"""

from __future__ import annotations

import os
from typing import Optional

import repro.harness.runner as runner
from repro.engine.checkpoint import ParkedRun
from repro.harness.grid import GridPoint, _mp_context


def _worker_entry(
    conn, point_kwargs: dict, results_dir: Optional[str], ledger_source: str
) -> None:
    """Run one grid point in a child process; send one message on ``conn``."""
    try:
        # Ledger lines this child writes carry its supervisor's label.
        os.environ["REPRO_LEDGER_SOURCE"] = ledger_source
        runner.set_result_store(results_dir)
        point = GridPoint(**point_kwargs)
        result = runner.run_experiment(**point.run_kwargs())
        from repro.harness.export import result_to_dict

        message = (
            "ok",
            {"result": result_to_dict(result), "sims": runner.simulation_count()},
        )
    except ParkedRun as exc:
        # The snapshot is already on disk; report where the run stopped.
        message = ("parked", {"cycle": exc.cycle, "snapshot": exc.path})
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


def spawn_worker(point: GridPoint, ledger_source: str) -> WorkerHandle:
    """Start one worker for ``point`` against the configured result store.

    ``ledger_source`` labels the run-ledger lines the child writes
    (``"runner"`` for grid sweeps, ``"serve"`` for the job service).
    """
    store = runner.get_result_store()
    results_dir = str(store.root) if store is not None else None
    ctx = _mp_context()
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_worker_entry,
        args=(child_conn, point.as_fields(), results_dir, ledger_source),
        daemon=True,
    )
    proc.start()
    child_conn.close()
    return WorkerHandle(proc, parent_conn)
