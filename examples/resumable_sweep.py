#!/usr/bin/env python
"""Resumable sweep: a checkpointed ``run_grid`` sweep that survives a kill.

Runs four paper-scale Table III points on a pool of worker processes,
with a result store and one snapshot file per point.  Kill the sweep at
any moment, even with SIGKILL, and run the same command again: points
that finished are result-store hits, a point that was interrupted resumes
from its last snapshot, and stdout is byte-identical to an uninterrupted
run.  The workers of a killed sweep exit with it.  A point whose worker
alone is killed prints ``FAILED worker-died`` (each point gets one
attempt) and the sweep exits 1; rerunning it resumes that point.

Prints one ``label cycles digest`` line per point.  ``digest`` is a
sha256 of the whole result apart from ``extras``, which is the only part
that records whether a point resumed.  Resumed points are announced on
stderr.

Run:  python examples/resumable_sweep.py --results-dir DIR --checkpoint-dir DIR
"""

import argparse
import hashlib
import json
import sys

from repro.harness import GridPoint, result_to_dict, run_grid, set_result_store

#: A short point beside a long one (~0.5 s and ~8 s on one core), so a
#: store entry exists while the long point has seconds left to run.
POINTS = [
    GridPoint("cilk5-nq", "bt-hcc-gwb", "paper"),
    GridPoint("ligra-bc", "bt-mesi", "paper"),
    GridPoint("cilk5-mt", "bt-mesi", "paper"),
    GridPoint("ligra-bfs", "bt-hcc-gwb", "paper"),
]


def digest(result) -> str:
    payload = result_to_dict(result)
    payload.pop("extras")
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results-dir", required=True)
    parser.add_argument("--checkpoint-dir", required=True)
    args = parser.parse_args()

    set_result_store(args.results_dir)
    results = run_grid(
        POINTS,
        # Always a pool: the crash-recovery check kills the sweep's
        # parent and needs worker processes to be running when it does.
        jobs=2,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_interval=20_000,
        on_error="resume",
        progress=False,
    )
    status = 0
    for point, result in zip(POINTS, results):
        if getattr(result, "failed", False):
            print(f"{point.label()} FAILED {result.error}")
            status = 1
            continue
        print(f"{point.label()} {result.cycles} {digest(result)}")
        resumed = result.extras.get("ckpt_resumed_from")
        if resumed is not None:
            print(f"resumed {point.label()} from cycle {int(resumed)}",
                  file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
