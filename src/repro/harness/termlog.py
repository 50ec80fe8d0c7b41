"""Shared stderr logging for harness telemetry.

Everything the harness says on stderr — the grid progress/ETA line, retry
notes, result-store hit/miss telemetry — goes through this module so the
output is consistent and parallel activity cannot interleave mangled
fragments: every emission is a single ``write()`` call, and a pending
overwriting status line is terminated with a newline before any regular
line is printed over it.

Verbosity is controlled by the ``REPRO_VERBOSE`` environment variable:

* ``0`` — silence all telemetry (progress and store lines);
* ``1`` — normal (the default): store telemetry, retry notes, and the
  progress line when ``REPRO_PROGRESS`` requests one;
* ``2+`` — debug-level extras (per-worker lifecycle notes).

Structured mode: ``REPRO_LOG_JSON=1`` switches every emission to one JSON
object per line — ``{"ts": ..., "level": ..., "kind": "log"|"alert"|
"status", "msg": ...}`` — so log collectors can consume harness
telemetry without scraping human-formatted stderr.  The
human format stays the default; in JSON mode status lines lose their
``\\r`` overwrite behaviour (each update is its own line, as a stream
consumer needs).
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Optional

#: True while the last stderr emission was an unterminated ``\r`` status
#: line; the next regular line must first drop to a fresh row.
_status_active = False


def verbosity() -> int:
    """Current verbosity level from ``REPRO_VERBOSE`` (default 1)."""
    try:
        return int(os.environ.get("REPRO_VERBOSE", "1"))
    except ValueError:
        return 1


def json_mode() -> bool:
    """Whether ``REPRO_LOG_JSON`` requests JSON-lines telemetry."""
    return os.environ.get("REPRO_LOG_JSON", "") not in ("", "0")


def progress_enabled(override: Optional[bool] = None) -> bool:
    """Whether the overwriting progress/ETA line should be drawn.

    ``override`` (the ``run_grid(progress=...)`` argument) wins when given;
    otherwise ``REPRO_PROGRESS`` opts in.  ``REPRO_VERBOSE=0`` silences the
    line regardless.
    """
    if verbosity() <= 0:
        return False
    if override is not None:
        return override
    return os.environ.get("REPRO_PROGRESS", "") not in ("", "0")


def _emit_json(kind: str, message: str, level: int) -> None:
    """One structured telemetry line (single write, like the human path)."""
    record = {"ts": time.time(), "level": level, "kind": kind, "msg": message}
    sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
    sys.stderr.flush()


def log(message: str, level: int = 1) -> None:
    """Emit one complete telemetry line (atomically) at ``level``."""
    global _status_active
    if verbosity() < level:
        return
    if json_mode():
        _emit_json("log", message, level)
        return
    prefix = "\n" if _status_active else ""
    _status_active = False
    sys.stderr.write(f"{prefix}{message}\n")
    sys.stderr.flush()


def alert(message: str) -> None:
    """Emit a high-visibility line for watchdog/sanitizer findings.

    Alerts carry a distinct ``!!`` prefix so deadlock diagnostics and
    invariant violations stand out from routine telemetry, and they print
    even at ``REPRO_VERBOSE=0``: a sweep that silently swallowed a
    deadlock would defeat the point of recording it.
    """
    global _status_active
    if json_mode():
        _emit_json("alert", message, 0)
        return
    prefix = "\n" if _status_active else ""
    _status_active = False
    sys.stderr.write(f"{prefix}!! {message}\n")
    sys.stderr.flush()


def status(message: str) -> None:
    """Draw/overwrite the single in-place status line (no newline).

    In JSON mode every update is a complete line instead (a ``\\r``
    overwrite is meaningless to a stream consumer).
    """
    global _status_active
    if verbosity() <= 0:
        return
    if json_mode():
        _emit_json("status", message, 1)
        return
    sys.stderr.write(f"\r{message}")
    sys.stderr.flush()
    _status_active = True


def end_status() -> None:
    """Terminate a pending status line, if any, with a newline."""
    global _status_active
    if _status_active:
        sys.stderr.write("\n")
        sys.stderr.flush()
        _status_active = False
