"""Parallel experiment grid: fan an (app, config, scale) grid over workers.

Every paper artifact (Tables III-V, Figures 5-8) is derived from the same
experiment grid.  :func:`run_grid` executes a list of :class:`GridPoint`s
(defined in ``repro.harness.runner``, re-exported here), each with the
checkpoint spec the grid derives for it, either serially in-process or,
with ``jobs > 1``, on the worker pool of ``repro.harness.worker`` (one
attempt per point, identical points simulated once) — with an optional
progress/ETA line.
Completed results are adopted into the parent's memo cache (and the
persistent result store when one is configured), so the table/figure
producers that follow hit the cache instead of re-simulating.

Determinism: a simulation's outcome is a pure function of its grid point —
every Machine seeds its own RNG from the configuration — so a parallel run
is bit-identical to a serial one.  Workers return results serialized
through ``result_to_dict`` and the parent revives them with
``result_from_dict``; Python's JSON float round-trip is exact, so even
float fields survive the process boundary unchanged (this is asserted by
``tests/test_grid.py``).

Worker count resolution order: explicit ``jobs=`` argument, then
:func:`set_default_jobs` (the CLI's ``--jobs``), then the ``REPRO_JOBS``
environment variable, then 1 (serial).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import repro.harness.runner as runner
from repro.harness import termlog
from repro.harness.resultstore import hash_key
from repro.harness.runner import GridPoint


class GridError(RuntimeError):
    """A grid point failed on the worker pool (``on_error="raise"``)."""


@dataclass
class FailedResult:
    """A grid point that did not produce a result (``on_error="record"``).

    Occupies the failed point's slot in ``run_grid``'s output so a sweep
    with one wedged configuration still returns every other cell.  The
    ``error`` field is one of ``"deadlock"``, ``"violation"``,
    ``"worker-died"``, or ``"error"``; ``diagnostic`` carries the
    watchdog's per-core dump (or the sanitizer's violation list) when
    available.
    """

    app: str
    kind: str
    scale: str
    label: str
    error: str
    message: str
    diagnostic: dict = field(default_factory=dict)

    #: Discriminator mirroring ExperimentResult duck-typing checks.
    failed: bool = True


def expand_grid(
    apps: Sequence[str],
    kinds: Sequence[str],
    scales: Sequence[str],
    **common,
) -> List[GridPoint]:
    """The full cross product, app-major (the paper's presentation order)."""
    return [
        GridPoint(app, kind, scale, **common)
        for app in apps
        for kind in kinds
        for scale in scales
    ]


# ----------------------------------------------------------------------
# Default worker count
# ----------------------------------------------------------------------
_DEFAULT_JOBS: Optional[int] = None


def set_default_jobs(jobs: Optional[int]) -> None:
    """This process's default for ``run_grid(jobs=None)`` (CLI ``--jobs``)."""
    global _DEFAULT_JOBS
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    _DEFAULT_JOBS = jobs


def default_jobs() -> int:
    if _DEFAULT_JOBS is not None:
        return _DEFAULT_JOBS
    env = os.environ.get("REPRO_JOBS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


class _Progress:
    """A single overwriting [done/total + ETA] line, via ``termlog``.

    ETA comes from a *windowed* completion rate over the most recent
    simulated runs, with store/memo hits excluded: a warm store satisfies
    its points in microseconds, so the naive ``elapsed / done * remaining``
    extrapolation announces a wildly optimistic ETA right until the first
    cold point lands (and a wildly pessimistic one on a sweep that ends in
    a burst of hits).  Hits still advance ``done`` — they just contribute
    no rate evidence.  The window keeps the estimate honest when per-point
    cost drifts across a sweep (small scales first, large scales last).
    """

    #: Completions the rate window spans (timestamps kept: WINDOW + 1).
    WINDOW = 16

    def __init__(self, total: int, enabled: bool, clock=time.monotonic):
        self.total = total
        self.enabled = enabled
        self.done = 0
        self.hits = 0
        self._clock = clock
        self.start = clock()
        #: Timestamps of simulated (non-hit) completions, seeded with the
        #: start time so the first miss already defines a rate.
        self._window = deque([self.start], maxlen=self.WINDOW + 1)
        #: Last computed ETA in seconds (None until an estimate exists);
        #: exposed for tests and for the ledger's ETA-accuracy accounting.
        self.last_eta: Optional[float] = None

    def _eta(self, now: float) -> Optional[float]:
        remaining = self.total - self.done
        if remaining <= 0:
            return 0.0
        if len(self._window) >= 2:
            span = self._window[-1] - self._window[0]
            completions = len(self._window) - 1
            if span > 0:
                return remaining / (completions / span)
        # No simulated completion yet (all hits so far): fall back to the
        # naive extrapolation, which at least reflects observed hit cost.
        if self.done > 0:
            return (now - self.start) / self.done * remaining
        return None

    def step(self, label: str, instant: bool = False) -> None:
        """Count one completed point; ``instant`` marks a store/memo hit."""
        self.done += 1
        now = self._clock()
        if instant:
            self.hits += 1
        else:
            self._window.append(now)
        self.last_eta = self._eta(now)
        if not self.enabled:
            return
        elapsed = now - self.start
        eta_text = f"{self.last_eta:6.1f}s" if self.last_eta is not None else "   ?  "
        termlog.status(
            f"[{self.done}/{self.total}] {label:<48.48s} "
            f"elapsed {elapsed:6.1f}s  ETA {eta_text}"
        )
        if self.done == self.total:
            termlog.end_status()


# ----------------------------------------------------------------------
# Worker start method (repro.harness.worker starts the processes)
# ----------------------------------------------------------------------
def _live_helper_threads():
    """Names of live non-daemon threads other than the caller's.

    Forking while a non-daemon helper (a third-party pool, say) is running
    clones whatever locks it holds into the child — where no thread will
    ever release them — so fork is only safe when none are alive.  Daemon
    threads are excluded: they are assumed to hold no locks across their
    sleep.
    """
    import threading

    current = threading.current_thread()
    return [
        thread.name
        for thread in threading.enumerate()
        if thread is not current
        and not thread.daemon
        and thread.is_alive()
    ]


def _mp_context():
    """Pick the multiprocessing start method for grid workers.

    ``REPRO_MP=spawn|fork`` forces a method (``fork`` asserts no live
    non-daemon helper threads first — a forced fork with helpers alive is
    a latent deadlock, better refused loudly).  Unset, prefer fork (cheap,
    inherits loaded modules) unless helper threads are alive or fork is
    unavailable, in which case fall back to spawn.
    """
    methods = multiprocessing.get_all_start_methods()
    choice = os.environ.get("REPRO_MP", "").strip().lower()
    if choice:
        if choice not in ("fork", "spawn"):
            raise ValueError(f"REPRO_MP must be 'spawn' or 'fork', got {choice!r}")
        if choice not in methods:
            raise ValueError(f"REPRO_MP={choice} unsupported on this platform")
        if choice == "fork":
            helpers = _live_helper_threads()
            if helpers:
                raise RuntimeError(
                    "REPRO_MP=fork with live non-daemon threads "
                    f"{helpers}: forked children would inherit their locks "
                    "held forever; stop the helpers or use REPRO_MP=spawn"
                )
        return multiprocessing.get_context(choice)
    if "fork" in methods and not _live_helper_threads():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


# ----------------------------------------------------------------------
# The grid driver
# ----------------------------------------------------------------------
def _record_failure(
    point: GridPoint, error: str, message: str, diagnostic: dict
) -> FailedResult:
    first_line = message.splitlines()[0] if message else error
    termlog.alert(f"{error}: {point.label()}: {first_line}")
    return FailedResult(
        app=point.app,
        kind=point.kind,
        scale=point.scale,
        label=point.label(),
        error=error,
        message=message,
        diagnostic=diagnostic or {},
    )


def _point_checkpoint_spec(
    point: GridPoint,
    checkpoint_dir: str,
    checkpoint_interval: Optional[int],
    resume: bool,
) -> dict:
    """The CheckpointConfig kwargs one grid point runs with.

    The snapshot filename is ``hash_key(point.key())``, so a rerun of the
    same sweep finds exactly its own snapshot and two different points can
    never collide.
    """
    return dict(
        path=os.path.join(checkpoint_dir, f"{hash_key(point.key())[:20]}.ckpt"),
        interval=checkpoint_interval,
        resume=resume,
    )


def run_grid(
    points: Sequence[GridPoint],
    jobs: Optional[int] = None,
    progress: Optional[bool] = None,
    on_error: str = "raise",
    checkpoint_dir: Optional[str] = None,
    checkpoint_interval: Optional[int] = 50_000,
):
    """Run every grid point; return results in input order.

    ``jobs <= 1`` (or a single point) runs the points in-process;
    ``jobs > 1`` runs them on a pool of ``jobs`` worker processes
    (:class:`repro.harness.worker.Supervisor`), where a point that fails
    raises :class:`GridError`.  Every point gets one attempt: a failure is
    recovered by rerunning the sweep, not inside it.  Identical points
    coalesce onto one simulation on the pool.  All completed results are
    adopted into the in-process memo cache and the configured result
    store, so follow-up ``run_experiment`` calls for the same points are
    free.

    ``on_error="record"`` makes sweeps crash-tolerant: a point that
    deadlocks, trips the sanitizer, errors or loses its worker yields a
    :class:`FailedResult` in its slot (announced via ``termlog.alert``)
    instead of aborting the whole grid.

    ``checkpoint_dir`` turns on deterministic checkpointing: every point
    snapshots itself each ``checkpoint_interval`` cycles into its own file
    under the directory.  ``on_error="resume"`` is ``"record"`` plus
    restore-on-restart — a re-run or previously killed point picks up from
    its latest snapshot instead of starting over (results are
    byte-identical either way; it requires ``checkpoint_dir``).  So a
    failed or killed sweep recovers by running it again: with a result
    store, finished points are store hits, and an interrupted one resumes
    from its snapshot.
    """
    if on_error not in ("raise", "record", "resume"):
        raise ValueError(
            f"on_error must be 'raise', 'record', or 'resume', got {on_error!r}"
        )
    if on_error == "resume" and checkpoint_dir is None:
        raise ValueError("on_error='resume' requires checkpoint_dir")
    points = list(points)
    specs: List[Optional[dict]] = [None] * len(points)
    if checkpoint_dir is not None:
        specs = [
            _point_checkpoint_spec(
                point,
                checkpoint_dir,
                checkpoint_interval,
                resume=(on_error == "resume"),
            )
            for point in points
        ]
    if jobs is None:
        jobs = default_jobs()
    meter = _Progress(len(points), termlog.progress_enabled(progress))
    if not points:
        return []
    if on_error == "resume":
        on_error = "record"
    if jobs <= 1 or len(points) == 1:
        results = []
        for point, spec in zip(points, specs):
            sims_before = runner.simulation_count()
            try:
                results.append(runner.run_point(point, checkpoint=spec))
            except Exception as exc:
                if on_error != "record":
                    raise
                results.append(_record_failure(point, *runner._classify_failure(exc)))
            meter.step(
                point.label(),
                instant=(runner.simulation_count() == sims_before),
            )
        return results
    return _run_supervised(points, specs, jobs, meter, on_error)


def _run_supervised(
    points: List[GridPoint],
    specs: List[Optional[dict]],
    jobs: int,
    meter: _Progress,
    on_error: str,
) -> list:
    """Run ``points`` on a pool of ``jobs`` worker processes.

    Identical points (same ``hash_key(point.key())``) are submitted once,
    and their one result fills every slot of the group.
    """
    from repro.harness.export import result_from_dict
    from repro.harness.worker import Supervisor

    groups: Dict[str, List[int]] = {}
    for idx, point in enumerate(points):
        groups.setdefault(hash_key(point.key()), []).append(idx)
    supervisor = Supervisor(slots=jobs)
    waiting = {}
    for idxs in groups.values():
        task = supervisor.submit(points[idxs[0]], specs[idxs[0]])
        waiting[task.id] = (task, idxs)
    results: list = [None] * len(points)
    try:
        while waiting:
            supervisor.wait()
            supervisor.poll()
            for tid, (task, idxs) in list(waiting.items()):
                if not task.terminal:
                    continue
                del waiting[tid]
                if task.state == "failed" and on_error != "record":
                    raise GridError(
                        f"grid point {task.point.label()} failed: {task.message}"
                    )
                for n, idx in enumerate(idxs):
                    point = points[idx]
                    if task.state == "done":
                        result = result_from_dict(task.result)
                        runner.adopt_result(result, point)
                        results[idx] = result
                    else:
                        results[idx] = _record_failure(
                            point, task.outcome, task.message, task.diagnostic
                        )
                    # Only the group's first slot can have simulated.
                    meter.step(point.label(), instant=(n > 0 or task.sims == 0))
    finally:
        supervisor.shutdown()
    return results
