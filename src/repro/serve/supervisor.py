"""Job supervisor: dispatch, worker supervision, retry.

The :class:`Supervisor` is the service's synchronous core: one
:meth:`poll` call performs a complete supervision tick — reap worker
messages, detect dead/wedged/timed-out workers, admit backed-off retries,
and dispatch pending work into free slots in queue order.
The asyncio server (``repro.serve.server``) just calls ``poll()`` on a
timer; unit tests call it directly with an injected clock, spawn function,
and heartbeat probe, so every failure path is exercisable in milliseconds
without real processes.

Workers come from ``repro.harness.worker.spawn_worker`` — the one
worker process, pipe protocol and result serialization in the repo —
so a job inherits the grid's determinism and store adoption for free.
The spawn function is injectable: the job service's default gives every
run a periodic checkpoint at ``snapshots/<id>.ckpt``, so a killed or
wedged worker's retry resumes from its last snapshot instead of cycle 0;
``run_grid`` injects a spawn that launches its own grid points with their
own checkpoint specs and drives this class as a batch client.

Supervision verdicts per worker, in check order:

1. message received — ``ok``, a deterministic failure
   (``deadlock``/``violation``: quarantined at once) or a retryable
   ``error``;
2. process died without a message — retryable (``worker-died``);
3. wall-clock budget exceeded — kill, retryable (``timeout``);
4. heartbeat snapshot too old — kill, retryable (``wedged``).

A worker that could not report (verdicts 2-4) never wrote its own run
ledger line, so the supervisor writes a ``failed`` line on its behalf
(``source`` is :attr:`Supervisor.ledger_source`: ``"serve"``, or
``"grid"`` under ``run_grid``).  Retryable failures wait out the
policy's decorrelated-jitter backoff (``repro.harness.retry``); a job
that fails ``max_attempts`` times is quarantined as terminally
``failed`` — one poison job can never wedge the service.
"""

from __future__ import annotations

import glob
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.harness.retry import Backoff
from repro.harness.worker import WorkerHandle, spawn_worker
from repro.serve.journal import Journal, proc_start_time
from repro.serve.policy import ServePolicy, admission_reason
from repro.serve.queue import Job, JobQueue, JobRecord

#: Errors that are deterministic functions of the job — retrying would
#: only reproduce them.
DETERMINISTIC_ERRORS = ("deadlock", "violation")


def spawn_serve_worker(record: JobRecord, checkpoint: dict) -> WorkerHandle:
    """Start one worker for ``record`` (the default spawn function): the
    job is itself the point it runs."""
    return spawn_worker(record.job, checkpoint, ledger_source="serve")


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
    worker gets one full ``wedged_after_s`` window from the moment the
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
class _Active:
    """Book-keeping for one dispatched worker."""

    record: JobRecord
    handle: WorkerHandle
    started_at: float
    deadline: Optional[float]


@dataclass
class _Delayed:
    """A retry waiting out its backoff."""

    record: JobRecord
    backoff: Backoff


class Supervisor:
    """Synchronous supervision core for the job service."""

    def __init__(
        self,
        queue: JobQueue,
        journal: Journal,
        policy: ServePolicy,
        workdir: str,
        spawn: Callable[[JobRecord, dict], WorkerHandle] = spawn_serve_worker,
        clock: Callable[[], float] = time.monotonic,
        heartbeat_age: Optional[Callable[[int], Optional[float]]] = None,
        log: Optional[Callable[[str], None]] = None,
    ):
        self.queue = queue
        self.journal = journal
        self.policy = policy
        self.workdir = workdir
        self.snapshots_dir = os.path.join(workdir, "snapshots")
        os.makedirs(self.snapshots_dir, exist_ok=True)
        self.spawn = spawn
        self.clock = clock
        # Default tracker shares the supervisor's clock so wedged verdicts
        # run in the same (fake-steppable) time domain as every other one.
        self.heartbeat_age = (
            heartbeat_age if heartbeat_age is not None
            else HeartbeatAgeTracker(clock)
        )
        self.log = log or (lambda message: None)
        self.active: Dict[str, _Active] = {}
        self.delayed: Dict[str, _Delayed] = {}
        #: Persistent per-job backoff state (decorrelated jitter carries
        #: the previous delay across retries of the same job).
        self._backoffs: Dict[str, Backoff] = {}
        #: leader job id -> follower records coalesced behind it.
        self.followers: Dict[str, List[JobRecord]] = {}
        #: ``source`` of the ledger lines written for workers that could
        #: not report (killed or dead); a batch client relabels it.
        self.ledger_source = "serve"

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
    def submit(self, job: Job) -> JobRecord:
        """Admit (or explicitly reject) one job; returns its record."""
        jid = self.queue.new_id()
        reason = admission_reason(self.policy, self.queue, job)
        if reason is not None:
            self.journal.append("reject", id=jid, job=job.as_dict(), reason=reason)
            record = JobRecord(
                id=jid, job=job, state="rejected",
                outcome="rejected", message=reason,
            )
            self.queue.add(record)
            self.log(f"{jid} rejected: {reason}")
            return record
        self.journal.append("submit", id=jid, job=job.as_dict())
        record = JobRecord(id=jid, job=job)
        self.queue.add(record)
        self.log(f"{jid} submitted: {job.app}/{job.kind}/{job.scale}")
        return record

    # ------------------------------------------------------------------
    # The supervision tick
    # ------------------------------------------------------------------
    def poll(self) -> None:
        """One complete supervision pass (cheap; call it on a timer)."""
        self._reap_messages()
        self._check_watchdogs()
        self._admit_delayed()
        self._dispatch()

    def idle(self) -> bool:
        """True when no job can make further progress without new input."""
        return not self.active and not self.delayed and not any(
            record.state == "pending" for record in self.queue.records.values()
        )

    def shutdown(self) -> None:
        """Kill every live worker (their jobs recover from the journal)."""
        for jid in list(self.active):
            active = self.active.pop(jid)
            active.handle.kill()
            active.handle.close()

    # ------------------------------------------------------------------
    # Message reaping
    # ------------------------------------------------------------------
    def _reap_messages(self) -> None:
        for jid in list(self.active):
            active = self.active[jid]
            message = active.handle.poll_message()
            if message is not None:
                self._on_message(jid, active, *message)
            elif not active.handle.alive():
                self._lost(jid, "worker-died",
                           "worker exited without reporting a result")

    def _on_message(self, jid: str, active: _Active, status, payload) -> None:
        if status == "gone":
            self._lost(jid, "worker-died", "result pipe broke")
            return
        record = active.record
        payload = payload or {}
        self._close(jid)
        if status == "ok":
            self._complete(record, payload)
        elif status in DETERMINISTIC_ERRORS:
            self._quarantine(record, status, payload.get("message", status),
                             payload.get("diagnostic"))
        else:
            self._retry(record, status, payload.get("message", status),
                        payload.get("diagnostic"))

    def _close(self, jid: str) -> None:
        active = self.active.pop(jid)
        active.handle.close()
        forget = getattr(self.heartbeat_age, "forget", None)
        if forget is not None:
            forget(active.handle.pid)

    def _lost(self, jid: str, error: str, message: str) -> None:
        """Kill (if still alive) and reap a worker that cannot report, write
        the ledger line it never will, and retry its job."""
        active = self.active[jid]
        active.handle.kill()
        self._close(jid)
        from repro.obs.ledger import get_ledger

        ledger = get_ledger()
        if ledger is not None:
            job = active.record.job
            ledger.record(
                source=self.ledger_source,
                outcome="failed",
                error=error,
                message=message,
                app=job.app,
                kind=job.kind,
                scale=job.scale,
                serial=bool(job.serial),
                attempt=active.record.attempts,
                wall_s=self.clock() - active.started_at,
            )
        self._retry(active.record, error, message)

    # ------------------------------------------------------------------
    # Verdicts
    # ------------------------------------------------------------------
    def _complete(self, record: JobRecord, payload: dict) -> None:
        self.journal.append("done", id=record.id, outcome="ok")
        record.state = "done"
        record.outcome = "ok"
        record.result = payload["result"]
        record.sims = payload.get("sims")
        self._backoffs.pop(record.id, None)
        self.log(f"{record.id} done")
        for follower in self.followers.pop(record.id, []):
            self.journal.append("done", id=follower.id, outcome="dedup")
            follower.state = "done"
            follower.outcome = "dedup"
            follower.result = record.result
            follower.sims = 0
            self.log(f"{follower.id} done (dedup of {record.id})")

    def _quarantine(
        self, record: JobRecord, error: str, message: str,
        diagnostic: Optional[dict] = None,
    ) -> None:
        self.journal.append("failed", id=record.id, error=error, message=message)
        record.state = "failed"
        record.outcome = error
        record.message = message
        record.diagnostic = diagnostic or {}
        self._backoffs.pop(record.id, None)
        self.log(f"{record.id} failed: {error}")
        # Followers must run for themselves now (and will store-hit if the
        # failure was environmental and a retrying twin later succeeds).
        for follower in self.followers.pop(record.id, []):
            follower.dedup_of = None
            self.queue.requeue(follower)

    def _retry(
        self, record: JobRecord, error: str, message: str,
        diagnostic: Optional[dict] = None,
    ) -> None:
        if record.attempts >= self.policy.max_attempts:
            self._quarantine(
                record, error,
                f"quarantined after {record.attempts} attempts: {message}",
                diagnostic,
            )
            return
        self.journal.append(
            "retry", id=record.id, attempt=record.attempts, error=error
        )
        record.state = "pending"
        backoff = self._backoffs.setdefault(
            record.id, Backoff(self.policy.backoff, clock=self.clock)
        )
        delay = backoff.fail()
        self.delayed[record.id] = _Delayed(record, backoff)
        self.log(
            f"{record.id} attempt {record.attempts} failed ({error}); "
            f"retry in {delay:.2f}s"
        )

    # ------------------------------------------------------------------
    # Watchdogs: timeout, wedged
    # ------------------------------------------------------------------
    def _check_watchdogs(self) -> None:
        now = self.clock()
        for jid in list(self.active):
            active = self.active[jid]
            if active.deadline is not None and now > active.deadline:
                self._lost(jid, "timeout",
                           f"timed out after {self.policy.timeout_s}s")
            elif self.policy.wedged_after_s is not None:
                age = self.heartbeat_age(active.handle.pid)
                if age is not None and age > self.policy.wedged_after_s:
                    self._lost(jid, "wedged", f"no heartbeat for {age:.1f}s")

    # ------------------------------------------------------------------
    # Backoff admission
    # ------------------------------------------------------------------
    def _admit_delayed(self) -> None:
        for jid in list(self.delayed):
            if self.delayed[jid].backoff.ready():
                delayed = self.delayed.pop(jid)
                self.queue.requeue(delayed.record)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        while len(self.active) < self.policy.slots:
            record = self.queue.pop_runnable()
            if record is None:
                break
            twin = self.queue.running_twin(record)
            if twin is not None:
                # Identical work is already in flight: coalesce behind it
                # instead of simulating twice.
                self.journal.append("dedup", id=record.id, of=twin.id)
                record.dedup_of = twin.id
                self.followers.setdefault(twin.id, []).append(record)
                self.log(f"{record.id} deduped onto {twin.id}")
                continue
            self._start(record)

    def _start(self, record: JobRecord) -> None:
        snapshot_path = os.path.join(self.snapshots_dir, f"{record.id}.ckpt")
        # A snapshot left by a killed attempt is the retry's resume point.
        resuming = os.path.exists(snapshot_path)
        checkpoint = dict(
            path=snapshot_path,
            interval=self.policy.checkpoint_interval,
            resume=True,
        )
        handle = self.spawn(record, checkpoint)
        record.state = "running"
        record.attempts += 1
        self.journal.append(
            "start", id=record.id, pid=handle.pid,
            start_time=proc_start_time(handle.pid),
            attempt=record.attempts, resume=resuming,
        )
        now = self.clock()
        self.active[record.id] = _Active(
            record=record,
            handle=handle,
            started_at=now,
            deadline=(
                now + self.policy.timeout_s
                if self.policy.timeout_s is not None
                else None
            ),
        )
        self.log(
            f"{record.id} started (pid {handle.pid}, attempt {record.attempts}"
            + (", resume" if resuming else "") + ")"
        )

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    def status(self) -> dict:
        """The service-level snapshot (wire `status` op; `repro top`)."""
        return {
            "counts": self.queue.counts(),
            "slots": self.policy.slots,
            "active": [
                {
                    "id": jid,
                    "pid": active.handle.pid,
                    "app": active.record.job.app,
                    "attempt": active.record.attempts,
                }
                for jid, active in sorted(self.active.items())
            ],
            "delayed": sorted(self.delayed),
            "jobs": [
                record.public()
                for _, record in sorted(self.queue.records.items())
            ],
        }
