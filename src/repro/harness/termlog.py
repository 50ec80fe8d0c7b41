"""Shared stderr logging for harness telemetry.

Everything the harness says on stderr — the grid progress/ETA line,
failed-point alerts, result-store hit/miss telemetry — goes through this
module so the output is consistent and parallel activity cannot
interleave mangled fragments: every emission is a single ``write()``
call, and a pending overwriting status line is terminated with a newline
before any regular line is printed over it.

Verbosity is controlled by the ``REPRO_VERBOSE`` environment variable:

* ``0`` — silence all telemetry (progress and store lines);
* ``1`` — normal (the default): store telemetry and the
  progress line when ``REPRO_PROGRESS`` requests one;
* ``2+`` — debug-level extras (per-worker lifecycle notes).
"""

from __future__ import annotations

import os
import sys
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


def log(message: str, level: int = 1) -> None:
    """Emit one complete telemetry line (atomically) at ``level``."""
    global _status_active
    if verbosity() < level:
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
    prefix = "\n" if _status_active else ""
    _status_active = False
    sys.stderr.write(f"{prefix}!! {message}\n")
    sys.stderr.flush()


def status(message: str) -> None:
    """Draw/overwrite the single in-place status line (no newline)."""
    global _status_active
    if verbosity() <= 0:
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
