"""Fault-injection fuzzing: sweep fault seeds, assert nothing breaks.

The paper's correctness story is that the runtimes tolerate *any* timing:
steals may win or lose, ULI requests may be delayed, cache lines may be
evicted at the worst moment — and the program still computes the same
answer.  :func:`run_fuzz` turns that claim into a harness: it runs one
(app, config, scale) cell once fault-free to capture a baseline (final
memory digest over the application's own allocations, task/spawn counts),
then re-runs it under a :class:`~repro.faults.FaultPlan` for each seed in
a sweep, with the sanitizer watching and a watchdog bounding deadlocks.

For **timing-only** plans (no forced evictions, no steal aborts — see
``FaultPlan.timing_only``; forced evictions change which lines are
resident and steal aborts change who runs what, both of which legitimately
perturb *scheduling*, though never the answer) the harness additionally
asserts the faulted end state is byte-identical to the baseline.  For all
plans it asserts: the app's own ``check()`` passes, the sanitizer saw
zero violations, and no run deadlocked.  A sweep in which no seeded run
fired a single fault tested nothing, so it fails too (steal aborts, for
one, exist only in Chase-Lev deques, which no fuzz run uses).

The deliberately broken runtime variants (``break_coherence=...``) invert
the game: a fuzz sweep over a broken runtime must *find* violations,
which is the positive control proving the sanitizer can see real bugs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import List, Optional

from repro.apps import make_app
from repro.config import make_config
from repro.core import WorkStealingRuntime
from repro.engine.watchdog import DeadlockError
from repro.faults import FaultPlan
from repro.harness.params import app_params
from repro.machine import Machine

#: Default watchdog grace for fuzz runs: generous against slow timing
#: faults, tiny against the 500M-cycle max_cycles guard.
DEFAULT_FUZZ_GRACE = 2_000_000


@dataclass
class FuzzCase:
    """Outcome of one seeded faulted run."""

    seed: int
    cycles: int = 0
    tasks: int = 0
    spawns: int = 0
    faults_fired: int = 0
    digest: Optional[str] = None
    #: None when the plan is not timing-only (digest is informational).
    digest_match: Optional[bool] = None
    violations: List[dict] = field(default_factory=list)
    #: None, or "deadlock" / "check" / "error".
    error: Optional[str] = None
    message: Optional[str] = None
    diagnostic: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (
            self.error is None
            and not self.violations
            and self.digest_match is not False
        )


@dataclass
class FuzzReport:
    """One fuzz sweep: a baseline plus one :class:`FuzzCase` per seed."""

    app: str
    kind: str
    scale: str
    plan: dict
    sanitize: bool
    break_coherence: Optional[str]
    baseline_cycles: int
    baseline_digest: str
    cases: List[FuzzCase] = field(default_factory=list)

    @property
    def n_violations(self) -> int:
        return sum(len(c.violations) for c in self.cases)

    @property
    def failed_cases(self) -> List[FuzzCase]:
        return [c for c in self.cases if not c.ok]

    @property
    def faults_fired(self) -> int:
        return sum(c.faults_fired for c in self.cases)

    @property
    def ok(self) -> bool:
        return not self.failed_cases and self.faults_fired > 0

    def as_dict(self) -> dict:
        return asdict(self)

    def summary(self) -> str:
        lines = [
            f"fuzz {self.app} on {self.kind} @ {self.scale}: "
            f"{len(self.cases)} seed(s), plan {self.plan}",
            f"baseline       : {self.baseline_cycles} cycles, "
            f"digest {self.baseline_digest[:16]}...",
        ]
        for case in self.cases:
            if case.ok:
                detail = f"{case.cycles} cycles, {case.faults_fired} faults fired"
                if case.digest_match is not None:
                    detail += ", digest identical"
                lines.append(f"seed {case.seed:<4d}     : ok ({detail})")
            else:
                reasons = []
                if case.error:
                    reasons.append(f"{case.error}: {case.message}")
                if case.violations:
                    reasons.append(f"{len(case.violations)} violation(s), "
                                   f"first {case.violations[0]['kind']}")
                if case.digest_match is False:
                    reasons.append("end-state digest diverged")
                lines.append(f"seed {case.seed:<4d}     : FAIL ({'; '.join(reasons)})")
        problems = []
        if self.failed_cases:
            problems.append(f"{len(self.failed_cases)} failing seed(s)")
        if not self.faults_fired:
            problems.append("no seed fired a fault")
        verdict = "; ".join(problems) or "ok"
        lines.append(f"verdict        : {verdict}, {self.n_violations} violation(s)")
        return "\n".join(lines)


def _run_once(
    app_name: str,
    kind: str,
    scale: str,
    plan: Optional[FaultPlan],
    sanitize: bool,
    watchdog: Optional[int],
    break_coherence: Optional[str],
):
    """One simulation; returns (machine, runtime, app, app-only regions)."""
    config = make_config(kind, scale)
    machine = Machine(config, faults=plan, sanitize=sanitize)
    app = make_app(app_name, **app_params(app_name, scale))
    app.setup(machine)
    # Snapshot now: these are the application's own allocations; the
    # runtime's deques/task args allocated later are scheduling-dependent
    # and excluded from the end-state digest by construction.
    regions = list(machine.address_space.regions())
    rt_kwargs = {}
    if watchdog is not None:
        rt_kwargs["watchdog"] = watchdog
    if break_coherence is not None:
        rt_kwargs["break_coherence"] = break_coherence
    runtime = WorkStealingRuntime(machine, **rt_kwargs)
    runtime.run(app.make_root(serial=False))
    return machine, runtime, app, regions


def run_fuzz(
    app_name: str = "cilk5-cs",
    kind: str = "bt-hcc-dts-gwb",
    scale: str = "tiny",
    seeds=range(1, 6),
    plan="timing",
    sanitize: bool = True,
    watchdog: Optional[int] = DEFAULT_FUZZ_GRACE,
    break_coherence: Optional[str] = None,
) -> FuzzReport:
    """Sweep ``seeds`` over ``plan``; see the module docstring for claims."""
    base_plan = FaultPlan.coerce(plan)
    if base_plan is None:
        raise ValueError("run_fuzz needs an active fault plan (got none)")

    # Fault-free baseline (sanitized too: a violation here is a real bug).
    machine, runtime, app, regions = _run_once(
        app_name, kind, scale, None, sanitize, watchdog, break_coherence
    )
    baseline_violations: List[dict] = []
    if machine.sanitizer is not None:
        baseline_violations = machine.sanitizer.finish(runtime, strict=False)
    report = FuzzReport(
        app=app_name,
        kind=kind,
        scale=scale,
        plan=base_plan.as_dict(),
        sanitize=sanitize,
        break_coherence=break_coherence,
        baseline_cycles=machine.sim.now,
        baseline_digest=machine.memory_digest(regions),
    )
    baseline_tasks = runtime.stats.get("tasks_executed")
    baseline_spawns = runtime.stats.get("spawns")
    if baseline_violations:
        case = FuzzCase(seed=-1, violations=baseline_violations,
                        message="fault-free baseline tripped the sanitizer")
        report.cases.append(case)

    for seed in seeds:
        seeded = base_plan.replace(seed=seed)
        case = FuzzCase(seed=seed)
        report.cases.append(case)
        try:
            machine, runtime, app, regions = _run_once(
                app_name, kind, scale, seeded, sanitize, watchdog, break_coherence
            )
        except DeadlockError as exc:
            case.error = "deadlock"
            case.message = str(exc)
            case.diagnostic = exc.diagnostic
            continue
        except Exception as exc:  # noqa: BLE001 - every seed must report
            case.error = "error"
            case.message = f"{exc!r}"
            continue
        case.cycles = machine.sim.now
        case.tasks = runtime.stats.get("tasks_executed")
        case.spawns = runtime.stats.get("spawns")
        if machine.fault_injector is not None:
            case.faults_fired = machine.fault_injector.total_fired()
        if machine.sanitizer is not None:
            case.violations = machine.sanitizer.finish(runtime, strict=False)
        case.digest = machine.memory_digest(regions)
        if seeded.timing_only:
            case.digest_match = (
                case.digest == report.baseline_digest
                and case.tasks == baseline_tasks
                and case.spawns == baseline_spawns
            )
        try:
            app.check()
        except AssertionError as exc:
            case.error = "check"
            case.message = str(exc)
    return report
