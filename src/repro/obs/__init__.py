"""Observability: self-profiling and a run ledger.

Perfetto traces and end-of-run ``StatGroup`` aggregates explain a finished
run.  This package adds wall-time attribution of the simulator itself and a
durable record of past work:

* :mod:`repro.obs.profile` — lightweight wall-clock attribution inside the
  engine hot loop (per op kind and per component: coroutines, L1/L2/DRAM,
  NoC, event loop), off by default, driven by ``bench/run.py --trace``.
* :mod:`repro.obs.ledger` — every ``run_experiment`` appends one
  machine-readable manifest line (keys, seeds, lineage, wall time, host
  fingerprint, outcome) to a JSONL ledger; ``repro report`` aggregates it.

The profiler and the ledger are **off by default** and neither
participates in result identity: an observed run is byte-identical to a
bare one.
"""

from __future__ import annotations

import os
import platform
import sys


def host_fingerprint() -> dict:
    """A stable identity block for the executing host + interpreter.

    Embedded in every ledger line so past runs stay attributable across
    machines.
    """
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
        "release": platform.release(),
        "node": platform.node(),
        "cpu_count": os.cpu_count() or 1,
    }


from repro.obs.ledger import RunLedger, get_ledger, set_ledger  # noqa: E402
from repro.obs.profile import EngineProfiler, WallProfiler  # noqa: E402

__all__ = [
    "host_fingerprint",
    "RunLedger",
    "get_ledger",
    "set_ledger",
    "EngineProfiler",
    "WallProfiler",
]
