"""Crash-tolerant simulation job service (``repro serve``).

A long-lived server that accepts (app × config × scale) experiment jobs
over a unix socket, runs them on supervised grid worker processes, and
survives being killed at any instant: every queue transition is
write-ahead journaled, so a restarted server recovers every in-flight job
exactly once — see ``repro.serve.journal`` for the recovery semantics and
DESIGN.md §11 for the full state machine.

Layering: ``queue`` (job model, pure bookkeeping) ← ``journal``
(write-ahead log + replay) ← ``supervisor`` (dispatch, retry/backoff,
preemption, wedged detection) ← ``server`` (asyncio socket front end) /
``client`` (blocking CLI client); ``policy`` parameterizes everything.
The server is imported from ``repro.serve.server``, not re-exported
here: parallel ``run_grid`` sweeps import this package for the
supervisor, and asyncio would cost each of their workers ~2.5 MB.
"""

from repro.serve.journal import Journal, recover, replay
from repro.serve.policy import SERVE_BACKOFF, ServePolicy, admission_reason
from repro.serve.queue import Job, JobQueue, JobRecord
from repro.serve.supervisor import Supervisor
from repro.serve.client import ServeClient, ServeError, connect

__all__ = [
    "Job",
    "JobQueue",
    "JobRecord",
    "Journal",
    "SERVE_BACKOFF",
    "ServeClient",
    "ServeError",
    "ServePolicy",
    "Supervisor",
    "admission_reason",
    "connect",
    "recover",
    "replay",
]
