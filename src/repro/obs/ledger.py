"""Structured run ledger: one JSONL manifest line per ``run_experiment``.

The result store answers "what was the result of experiment X?"; the ledger
answers "what work did this machine actually do, when, and how did it go?"
— the record a sweep's hit/miss, failure and wall-time accounting is
rebuilt from.  Every ``run_experiment`` call appends exactly one line
describing its outcome:

* ``ok``         — a real simulation ran to completion,
* ``memo-hit``   — satisfied from the in-process memo cache,
* ``store-hit``  — satisfied from the persistent result store,
* ``failed``     — the run raised, or its worker was lost (``error`` holds
  deadlock / violation / worker-died / error, matching
  ``FailedResult.error``).

Every run labels its own line ``source: "runner"``, in-process or in a
grid worker.  A worker that died without reporting can't write its own
line, so the ``run_grid`` worker pool that lost it appends one on its
behalf with ``source: "grid"``.

Each line carries the store-key digest (the same SHA-256 that names the
result store's files), the config seed, the robustness block, checkpoint
lineage, wall time, and the host/python fingerprint — enough for
``repro report`` to rebuild a sweep's hit/miss/failure accounting from the
ledger alone.

Configuration (off by default):

* ``REPRO_LEDGER=/path/file.jsonl`` — append to that file;
* ``REPRO_LEDGER=1`` — append to ``ledger.jsonl`` next to the configured
  result store (silently off when no store is configured);
* :func:`set_ledger` — explicit process-wide override (the CLI's
  ``--ledger`` flag).

Appends are single ``write()`` calls on an ``O_APPEND`` descriptor, so
concurrent grid workers sharing one ledger never interleave partial lines
(POSIX guarantees atomicity for appends well past this line size).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Optional

from repro.obs import host_fingerprint

#: Schema tag carried on every line; bump when the entry shape changes.
LEDGER_SCHEMA = 1

#: Sentinel: "not configured yet, consult REPRO_LEDGER on first use".
_LEDGER_UNSET = object()
_LEDGER = _LEDGER_UNSET

#: Host fingerprint is per-process constant; compute it once.
_HOST: Optional[dict] = None


class RunLedger:
    """Append-only JSONL manifest of experiment runs."""

    def __init__(self, path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.lines_written = 0

    def record(self, **fields) -> dict:
        """Append one manifest line; returns the entry as written."""
        global _HOST
        if _HOST is None:
            _HOST = host_fingerprint()
        entry = {
            "schema": LEDGER_SCHEMA,
            "ts": time.time(),
            "pid": os.getpid(),
            "host": _HOST,
        }
        entry.update(fields)
        line = json.dumps(entry, sort_keys=True, default=str) + "\n"
        fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)
        self.lines_written += 1
        return entry


# ----------------------------------------------------------------------
# Process-wide configuration
# ----------------------------------------------------------------------
def set_ledger(ledger) -> Optional[RunLedger]:
    """Install ``ledger`` (a RunLedger, a path, True for store-adjacent,
    or None to disable)."""
    global _LEDGER
    if ledger is None or isinstance(ledger, RunLedger):
        _LEDGER = ledger
    elif ledger is True:
        _LEDGER = _store_adjacent()
    else:
        _LEDGER = RunLedger(ledger)
    return _LEDGER if _LEDGER is not _LEDGER_UNSET else None


def _store_adjacent() -> Optional[RunLedger]:
    from repro.harness.runner import get_result_store

    store = get_result_store()
    if store is None:
        return None
    return RunLedger(store.root / "ledger.jsonl")


def get_ledger() -> Optional[RunLedger]:
    """The process-wide ledger, or None when ledgering is off."""
    global _LEDGER
    if _LEDGER is _LEDGER_UNSET:
        spec = os.environ.get("REPRO_LEDGER", "")
        if not spec or spec == "0":
            _LEDGER = None
        elif spec in ("1", "true", "store"):
            _LEDGER = _store_adjacent()
        else:
            _LEDGER = RunLedger(spec)
    return _LEDGER


def reset_ledger() -> None:
    """Forget the cached configuration (tests; env changes)."""
    global _LEDGER
    _LEDGER = _LEDGER_UNSET


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
def read_ledger(path) -> list:
    """Parse a ledger file into entry dicts, skipping malformed lines.

    A line torn by a crashed writer must not poison the whole history, so
    bad lines are skipped; ``repro report`` surfaces the skip count via
    :func:`read_ledger_with_errors`.
    """
    entries, _bad, _torn = read_ledger_with_errors(path)
    return entries


def read_ledger_with_errors(path):
    """(entries, malformed_line_count, torn_tail) for a ledger file.

    ``torn_tail`` is True when the *final* line fails to parse and the
    file does not end in a newline — the signature of a writer killed
    mid-append.  That line is *recoverable* damage (every complete entry
    before it is intact, and the interrupted run never finished recording
    its outcome anyway), so it is reported separately rather than counted
    among the malformed lines.
    """
    entries = []
    bad = 0
    torn = False
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    lines = raw.split("\n")
    #: A file ending in "\n" splits into [..., ""]; anything else in the
    #: final slot is an unterminated (possibly torn) tail.
    unterminated = lines[-1] != ""
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            if unterminated and i == len(lines) - 1:
                torn = True
            else:
                bad += 1
            continue
        if isinstance(entry, dict):
            entries.append(entry)
        else:
            bad += 1
    return entries, bad, torn
