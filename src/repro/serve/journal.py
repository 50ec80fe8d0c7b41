"""Write-ahead job journal: crash-recoverable JSONL event log.

Every queue state transition is appended to the journal *before* it takes
effect in memory, with the same ``O_APPEND`` single-``write()`` discipline
as ``repro.obs.ledger`` — a line is either fully present or torn at the
tail, never interleaved.  A server killed at any instant (including
mid-append) restarts by replaying the journal: :func:`replay` folds the
event stream back into the job table, and :meth:`Journal.recover` turns
that table into a runnable queue — every in-flight job returns to
``pending`` (and resumes from its periodic snapshot, if one is on disk),
orphaned worker processes recorded in ``start`` events are killed (when
their pid and start time still match), and
nothing submitted is ever lost or run twice (a recovered rerun of a job
whose simulation actually completed is satisfied by the sha256 result
store, not re-simulated).

Event vocabulary (one JSON object per line, ``ev`` discriminates)::

    submit  {id, job}             job accepted into the queue
    reject  {id, job, reason}     admission refused (overload / quota)
    start   {id, pid, start_time, attempt, resume}
                                  dispatched to a worker process
    retry   {id, attempt, error}  attempt failed; back to pending
    dedup   {id, of}              coalesced behind an identical job
    done    {id, outcome}         terminal success (ok / dedup)
    failed  {id, error, message}  terminal failure (quarantine etc.)
    recover {pending, running, killed}   server restart marker

Journals written while the service could preempt jobs may also hold
``park {id, snapshot, cycle}`` lines; they replay as ``retry`` (back to
pending, resuming from ``snapshots/<id>.ckpt`` when dispatched).

The torn-tail tolerance comes from
:func:`repro.obs.ledger.read_jsonl_with_errors`: a final line cut short by
the crash is classified as recoverable damage and skipped — by
construction it described a transition that never completed.
"""

from __future__ import annotations

import json
import os
import signal
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.obs.ledger import read_jsonl_with_errors
from repro.serve.queue import Job, JobQueue, JobRecord

#: Journal line schema; bump when the event shape changes (added fields
#: that readers may find missing, like ``start_time``, need no bump).
JOURNAL_SCHEMA = 1

#: A journaled worker: (pid, start time from :func:`proc_start_time`).
_Orphan = Tuple[int, Optional[int]]


class Journal:
    """Append-only event log for one job service instance."""

    def __init__(self, path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.lines_written = 0

    def append(self, ev: str, **fields) -> dict:
        """Write one event line (atomic O_APPEND single write)."""
        entry = {"schema": JOURNAL_SCHEMA, "ev": ev, "ts": time.time()}
        entry.update(fields)
        line = json.dumps(entry, sort_keys=True, default=str) + "\n"
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)
        self.lines_written += 1
        return entry


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
def replay(path) -> Tuple[Dict[str, JobRecord], Dict[str, _Orphan], dict]:
    """Fold a journal into (job table, orphan workers, read stats).

    The table holds one :class:`JobRecord` per job id in its *journaled*
    final state.  ``orphans`` maps job id -> the (pid, start time) recorded
    by the most recent un-superseded ``start`` event — processes that may
    still be running if the server died without reaping them; the start
    time is None on lines written without one.  ``stats`` carries
    the tolerant-reader counters (``events``, ``malformed``, ``torn_tail``)
    for the recovery report.
    """
    records: Dict[str, JobRecord] = {}
    orphans: Dict[str, _Orphan] = {}
    if not os.path.exists(path):
        return records, orphans, {"events": 0, "malformed": 0, "torn_tail": False}
    entries, bad, torn = read_jsonl_with_errors(path)
    for entry in entries:
        ev = entry.get("ev")
        jid = entry.get("id")
        if ev == "recover":
            # A past restart marker: any orphans before it were killed then.
            orphans.clear()
            continue
        if not jid:
            bad += 1
            continue
        if ev in ("submit", "reject"):
            try:
                job = Job.from_dict(entry.get("job") or {})
                job.key()
            except (TypeError, ValueError):
                # A job the live server would now refuse as "bad job":
                # skip it rather than let it fail recovery.
                bad += 1
                continue
            record = JobRecord(
                id=jid,
                job=job,
                submitted_at=float(entry.get("ts") or time.time()),
            )
            if ev == "reject":
                record.state = "rejected"
                record.outcome = "rejected"
                record.message = entry.get("reason")
            records[jid] = record
            continue
        record = records.get(jid)
        if record is None:
            bad += 1
            continue
        if ev == "start":
            record.state = "running"
            record.attempts = int(entry.get("attempt") or record.attempts + 1)
            pid = entry.get("pid")
            if pid:
                orphans[jid] = (int(pid), entry.get("start_time"))
        elif ev in ("retry", "park"):
            # ``park``: a preempted job from an older journal; it resumes
            # from its snapshot when dispatched, like any retry.
            record.state = "pending"
            record.attempts = int(entry.get("attempt") or record.attempts)
            orphans.pop(jid, None)
        elif ev == "dedup":
            record.state = "pending"
            record.dedup_of = entry.get("of")
            orphans.pop(jid, None)
        elif ev == "done":
            record.state = "done"
            record.outcome = entry.get("outcome", "ok")
            orphans.pop(jid, None)
        elif ev == "failed":
            record.state = "failed"
            record.outcome = entry.get("error", "error")
            record.message = entry.get("message")
            orphans.pop(jid, None)
        else:
            bad += 1
    return records, orphans, {"events": len(entries), "malformed": bad, "torn_tail": torn}


def proc_start_time(pid: int) -> Optional[int]:
    """Start time of process ``pid`` in clock ticks since boot, or None.

    Read from field 22 of ``/proc/<pid>/stat``; None when the process is
    gone or the platform has no ``/proc``.  A pid and its start time name
    one process: a later process that reuses the pid starts later.
    """
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            stat = fh.read()
        # Field 2 (comm) may hold spaces and parentheses; the fields after
        # its closing parenthesis start at field 3.
        return int(stat[stat.rindex(b")") + 2:].split()[19])
    except (OSError, ValueError, IndexError):
        return None


def _kill_orphan(pid: int, start_time: Optional[int]) -> bool:
    """SIGKILL a worker the dead server left behind, if it is still alive.

    The pid alone does not name the worker: after a reboot or a long
    downtime it may belong to an unrelated process.  Only a live process
    whose start time matches the journaled one is signalled; a line
    without a start time, or one that cannot be read, leaves the process
    alone.  Returns True when a signal was delivered.
    """
    if pid == os.getpid() or start_time is None:
        return False
    if proc_start_time(pid) != start_time:
        return False
    try:
        os.kill(pid, signal.SIGKILL)
    except OSError:
        return False
    return True


def recover(journal: Journal) -> Tuple[JobQueue, dict]:
    """Rebuild a runnable :class:`JobQueue` from ``journal``'s history.

    Recovery semantics (each case journaled via one ``recover`` marker):

    * terminal jobs (``done``/``failed``/``rejected``) stay terminal;
    * ``pending`` jobs re-enter the queue as-is;
    * ``running`` jobs lose their worker (killed if still alive) and
      re-enter ``pending``; the rerun is exactly-once because a completed
      simulation is satisfied from the result store;
    * dedup followers re-enter ``pending`` (their leader may be gone);
      a completed leader satisfies them through the store.
    """
    records, orphans, stats = replay(journal.path)
    queue = JobQueue()
    report = {
        "jobs": len(records),
        "pending": 0,
        "running": 0,
        "terminal": 0,
        "killed": [],
        **stats,
    }
    for jid, record in sorted(records.items()):
        queue.reserve_id(jid)
        if record.terminal:
            report["terminal"] += 1
            queue.add(record)
            continue
        report[record.state] += 1
        if record.state == "running":
            orphan = orphans.get(jid)
            if orphan and _kill_orphan(*orphan):
                report["killed"].append(orphan[0])
        record.state = "pending"
        record.dedup_of = None
        queue.add(record)
    journal.append(
        "recover",
        pending=report["pending"],
        running=report["running"],
        killed=report["killed"],
        torn_tail=report["torn_tail"],
    )
    return queue, report
