"""Experiment runner: one :class:`GridPoint` simulation -> ExperimentResult.

:class:`GridPoint` is the one definition of an experiment; its memo key,
store key, work key and snapshot name all derive from it.

Results are memoized per process *and* persisted to an optional on-disk
:class:`repro.harness.resultstore.ResultStore`, the way a results database
would in the paper's gem5 workflow: the Table III runs feed Figures 5-8
without re-simulating, and a warm rerun of any benchmark against the same
results directory performs zero simulations.

The store is configured explicitly with :func:`set_result_store` (the CLI's
``--results-dir`` / ``--no-store`` flags) or ambiently via the
``REPRO_RESULTS_DIR`` environment variable.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from repro import __version__
from repro.analysis.cilkview import CilkviewAnalyzer, WorkSpanReport
from repro.analysis.energy import EnergyReport, estimate_energy
from repro.apps import make_app
from repro.config import make_config
from repro.core import WorkStealingRuntime
from repro.engine.checkpoint import (
    CheckpointConfig,
    CheckpointDaemon,
    capture_run_state,
    load_snapshot,
    save_snapshot,
)
from repro.faults import FaultPlan
from repro.harness.params import app_params
from repro.harness.resultstore import STORE_SCHEMA, ResultStore, hash_key
from repro.machine import Machine
from repro.obs.heartbeat import heartbeat_dir


@dataclass
class ExperimentResult:
    app: str
    kind: str
    scale: str
    serial: bool
    cycles: int
    instructions: int
    tasks: int
    spawns: int
    steals: int
    steal_attempts: int
    l1_hit_rate_tiny: float
    lines_invalidated: int
    lines_flushed: int
    invalidate_ops: int
    flush_ops: int
    amos: int
    traffic_bytes: Dict[str, int]
    tiny_breakdown: Dict[str, int]
    energy: EnergyReport
    uli_handled: int = 0
    uli_handler_cycles: int = 0
    uli_nacks: int = 0
    uli_utilization: float = 0.0
    uli_avg_latency: float = 0.0
    #: Always "exact"/None; kept because result_to_dict serialises them into digests.
    mode: str = "exact"
    sampling: Optional[Dict] = None
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def total_traffic(self) -> int:
        return sum(self.traffic_bytes.values())


_CACHE: Dict[Tuple, ExperimentResult] = {}
_WORKSPAN_CACHE: Dict[Tuple, WorkSpanReport] = {}

#: Number of timed machine simulations actually executed in this process
#: (cache and store hits do not count) — the quantity warm-store smoke
#: tests assert to be zero.
_SIM_COUNT = 0

#: Lazily initialized process-wide result store; the sentinel means "not
#: configured yet, consult REPRO_RESULTS_DIR on first use".
_STORE_UNSET = object()
_STORE: Union[object, Optional[ResultStore]] = _STORE_UNSET


def default_scale() -> str:
    """Benchmark scale, overridable with REPRO_SCALE=paper|large|quick."""
    return os.environ.get("REPRO_SCALE", "quick")


def simulation_count() -> int:
    """How many real simulations this process has executed so far."""
    return _SIM_COUNT


# ----------------------------------------------------------------------
# Result store configuration
# ----------------------------------------------------------------------
def get_result_store() -> Optional[ResultStore]:
    """The process-wide result store (REPRO_RESULTS_DIR), or None."""
    global _STORE
    if _STORE is _STORE_UNSET:
        path = os.environ.get("REPRO_RESULTS_DIR")
        _STORE = ResultStore(path) if path else None
    return _STORE


def set_result_store(store) -> Optional[ResultStore]:
    """Install ``store`` (a ResultStore, a directory path, or None)."""
    global _STORE
    if store is None or isinstance(store, ResultStore):
        _STORE = store
    else:
        _STORE = ResultStore(store)
    return _STORE


# ----------------------------------------------------------------------
# Canonical keys
# ----------------------------------------------------------------------
def canonicalize(value):
    """Recursively reduce ``value`` to a hashable, order-independent form.

    Dicts become key-sorted tuples of (key, canonical value) pairs, lists
    and tuples become tuples, sets become repr-sorted tuples.  This is the
    memo-key form; the on-disk store applies the same discipline through
    ``json.dumps(sort_keys=True)``.
    """
    if isinstance(value, dict):
        return tuple((k, canonicalize(value[k])) for k in sorted(value))
    if isinstance(value, (list, tuple)):
        return tuple(canonicalize(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted((canonicalize(v) for v in value), key=repr))
    return value


@dataclass(frozen=True)
class GridPoint:
    """One experiment: every field that decides a run's outcome.

    This is the only definition of an experiment.  The in-process memo key
    (:meth:`key`), the persistent store key (:meth:`store_key`), the worker
    pool's dedup key and a grid point's snapshot name (both
    ``hash_key(point.key())``) and the progress label all derive from these
    fields.  How a point is run (tracer, checkpoint spec, cache use) is
    passed beside it to :func:`run_point`.
    """

    app: str
    kind: str
    scale: str
    serial: bool = False
    app_overrides: Optional[dict] = None
    runtime_kwargs: Optional[dict] = None
    config_overrides: Optional[dict] = None
    #: Fault plan (preset/spec string, dict, or ``FaultPlan``).
    faults: Optional[object] = None
    sanitize: bool = False
    watchdog: Optional[int] = None

    def robustness(self) -> dict:
        """Canonical description of the fault/sanitizer/watchdog setup.

        Part of both the memo key and the persistent store key: a faulted or
        sanitized run must never satisfy a cache probe for a clean one (or
        vice versa).  The watchdog participates too — it cannot change a
        *successful* run's numbers, but a result produced under a different
        deadlock policy is a different experiment.
        """
        faults = FaultPlan.coerce(self.faults)
        return {
            "faults": faults.as_dict() if faults is not None else None,
            "sanitize": bool(self.sanitize),
            "watchdog": self.watchdog,
        }

    def key(self) -> Tuple:
        """The in-process memo key (always hashable).

        Built from this class's own fields only, so a subclass's extra
        fields never enter it.  Nothing is resolved here: a bad override
        fails when the point runs, not when it is keyed.
        """
        return (
            self.app,
            self.kind,
            self.scale,
            bool(self.serial),
            canonicalize(self.app_overrides or {}),
            canonicalize(self.runtime_kwargs or {}),
            canonicalize(self.config_overrides or {}),
            canonicalize(self.robustness()),
        )

    def store_key(self) -> dict:
        """The persistent store key: resolved params + config + code version.

        App parameters and the system configuration are resolved before
        hashing, so editing a scale preset or an input table invalidates
        exactly the affected entries.
        """
        app_overrides = self.app_overrides or {}
        config = make_config(self.kind, self.scale, **(self.config_overrides or {}))
        return {
            "schema": STORE_SCHEMA,
            "code_version": __version__,
            "experiment": {
                "app": self.app,
                "kind": self.kind,
                "scale": self.scale,
                "serial": bool(self.serial),
                "app_params": app_params(self.app, self.scale, **app_overrides),
                "runtime_kwargs": self.runtime_kwargs or {},
                "config": dataclasses.asdict(config),
                "robustness": self.robustness(),
                "init_signature": _init_signature(
                    self.app, self.scale, **app_overrides
                ),
            },
        }

    def label(self) -> str:
        """Progress/failure label naming every field not at its default."""
        parts = [self.app, self.kind, self.scale]
        if self.serial:
            parts.append("serial")
        if self.app_overrides:
            parts.append(f"app={self.app_overrides}")
        if self.runtime_kwargs:
            parts.append(f"rt={self.runtime_kwargs}")
        if self.config_overrides:
            parts.append(f"cfg={self.config_overrides}")
        if self.faults is not None:
            parts.append(f"faults={self.faults}")
        if self.sanitize:
            parts.append("sanitize")
        if self.watchdog is not None:
            parts.append(f"watchdog={self.watchdog}")
        return " ".join(parts)


def _init_signature(app_name: str, scale: str, /, **overrides) -> str:
    """Digest of an app's resolved inputs and the code version.

    Kept only for store-key identity: it adds nothing the key's
    ``app_params`` and ``code_version`` do not, but schema-3 keys carry it
    and dropping it would orphan every stored result.
    """
    payload = json.dumps(
        {
            "app": app_name,
            "scale": scale,
            "app_params": app_params(app_name, scale, **overrides),
            "code_version": __version__,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def _workspan_store_key(app_name: str, scale: str, overrides: dict) -> dict:
    return {
        "schema": STORE_SCHEMA,
        "code_version": __version__,
        "workspan": {
            "app": app_name,
            "scale": scale,
            "app_params": app_params(app_name, scale, **overrides),
        },
    }


def _classify_failure(exc: BaseException):
    """(error kind, message, diagnostic dict) for a failed run: the one
    table the ledger, the serial grid path and grid workers share."""
    from repro.engine.watchdog import DeadlockError
    from repro.sanitize import SanitizerError

    if isinstance(exc, DeadlockError):
        return "deadlock", str(exc), exc.diagnostic
    if isinstance(exc, SanitizerError):
        return "violation", str(exc), {"violations": exc.violations}
    return "error", f"{exc!r}", {}


def _ledger_record(
    outcome: str,
    point: GridPoint,
    *,
    wall_s: float,
    store_key=None,
    error=None,
    message=None,
    cycles=None,
    seed=None,
    lineage=None,
) -> None:
    """Append one run-manifest line when a ledger is configured (no-op
    otherwise — the ledger is strictly off by default)."""
    from repro.obs.ledger import get_ledger

    ledger = get_ledger()
    if ledger is None:
        return
    ledger.record(
        source="runner",
        outcome=outcome,
        app=point.app,
        kind=point.kind,
        scale=point.scale,
        serial=bool(point.serial),
        error=error,
        message=message,
        wall_s=wall_s,
        cycles=cycles,
        seed=seed,
        robustness=point.robustness(),
        lineage=lineage,
        store_key=hash_key(store_key) if store_key is not None else None,
    )


def run_experiment(
    app_name: str,
    kind: str,
    scale: str,
    serial: bool = False,
    use_cache: bool = True,
    app_overrides: Optional[dict] = None,
    runtime_kwargs: Optional[dict] = None,
    config_overrides: Optional[dict] = None,
    tracer=None,
    sample_interval: Optional[int] = None,
    faults=None,
    sanitize: bool = False,
    watchdog: Optional[int] = None,
    checkpoint=None,
) -> ExperimentResult:
    """Simulate ``app_name`` on configuration ``kind`` at ``scale``.

    Builds the :class:`GridPoint` these arguments name and runs it with
    :func:`run_point`.
    """
    point = GridPoint(
        app_name, kind, scale, serial, app_overrides, runtime_kwargs,
        config_overrides, faults, sanitize, watchdog,
    )
    return run_point(
        point, use_cache=use_cache, tracer=tracer,
        sample_interval=sample_interval, checkpoint=checkpoint,
    )


def run_point(
    point: GridPoint,
    *,
    use_cache: bool = True,
    tracer=None,
    sample_interval: Optional[int] = None,
    checkpoint=None,
) -> ExperimentResult:
    """Simulate one experiment, or serve it from the memo cache or store.

    Passing a :class:`repro.trace.Tracer` (and optionally a
    ``sample_interval`` in cycles for the interval statistics sampler)
    records a cycle-accurate event trace of the run.  Traced runs always
    simulate — the memo cache and the on-disk result store are bypassed,
    since a cached result carries no events — but the *result* is
    identical either way: tracing never perturbs simulated timing.

    The point's ``faults`` (a :class:`repro.faults.FaultPlan`, preset
    name, or spec string), ``sanitize``, and ``watchdog`` (a grace in
    cycles) configure the robustness subsystem; all three participate in
    the memo and store keys.  A sanitized run raises
    :class:`repro.sanitize.SanitizerError` on any invariant violation; a
    watchdogged run raises :class:`repro.engine.DeadlockError` with a
    per-core diagnostic instead of grinding to ``max_cycles``.  Every run
    ends with the app's own result check.

    ``checkpoint`` (a :class:`repro.engine.CheckpointConfig`, a snapshot
    path, or a kwargs dict) enables deterministic checkpoint/restore:
    with ``path`` + ``interval`` the run snapshots itself periodically;
    with ``resume`` an existing snapshot at ``path`` is restored and the
    run finishes from there, byte-identical to an uninterrupted run.  A
    spec without a ``path`` raises before anything is simulated.
    Checkpointing never perturbs a simulation's outcome, so it
    participates in neither the memo key nor the store key;
    provenance lands in ``result.extras`` (``ckpt_*`` keys) and the store
    payload's ``lineage``.
    """
    started = time.perf_counter()
    ckpt = CheckpointConfig.coerce(checkpoint)
    traced = tracer is not None or sample_interval is not None
    if traced:
        use_cache = False
    key = point.key()
    if use_cache and key in _CACHE:
        result = _CACHE[key]
        _ledger_record(
            "memo-hit", point,
            wall_s=time.perf_counter() - started, cycles=result.cycles,
        )
        return result

    store = get_result_store() if use_cache else None
    store_key = None
    if store is not None:
        store_key = point.store_key()
        payload = store.load(store_key)
        if payload is not None:
            from repro.harness.export import result_from_dict

            result = result_from_dict(payload["result"])
            _CACHE[key] = result
            _ledger_record(
                "store-hit", point,
                wall_s=time.perf_counter() - started, store_key=store_key,
                cycles=result.cycles, lineage=payload.get("lineage"),
            )
            return result

    # The uncached path runs in a helper so this wrapper can guarantee the
    # observability postconditions on *every* exit: exactly one ledger
    # line per call (success or failure) and a finalized heartbeat file.
    ctx: dict = {}
    try:
        result = _simulate_experiment(point, tracer, sample_interval, ckpt, ctx)
        if use_cache:
            _CACHE[key] = result
        if store is not None:
            from repro.harness.export import result_to_dict

            store.store(store_key, {
                "key": store_key,
                "result": result_to_dict(result),
                "lineage": ctx["lineage"],
            })
    except Exception as exc:
        heartbeat = ctx.get("heartbeat")
        if heartbeat is not None:
            heartbeat.finalize("failed", error=repr(exc))
        _ledger_record(
            "failed", point,
            wall_s=time.perf_counter() - started, store_key=store_key,
            error=_classify_failure(exc)[0],
            message=(str(exc).splitlines() or [repr(exc)])[0],
            seed=ctx.get("seed"), lineage=ctx.get("lineage"),
        )
        raise
    heartbeat = ctx.get("heartbeat")
    if heartbeat is not None:
        heartbeat.finalize("done")
    _ledger_record(
        "ok", point,
        wall_s=time.perf_counter() - started, store_key=store_key,
        cycles=result.cycles, seed=ctx.get("seed"), lineage=ctx.get("lineage"),
    )
    return result


def _simulate_experiment(
    point: GridPoint, tracer, sample_interval: Optional[int], ckpt, ctx: dict
) -> ExperimentResult:
    """The uncached simulation path of :func:`run_point`.

    ``ctx`` is an out-channel for provenance the caller needs even when
    this function raises mid-run: the machine seed, the checkpoint lineage
    dict, and the heartbeat writer (the caller finalizes it — "done" or
    "failed" — once the outcome is known).
    """
    global _SIM_COUNT
    _SIM_COUNT += 1
    machine = Machine(
        make_config(point.kind, point.scale, **(point.config_overrides or {})),
        tracer=tracer,
        faults=FaultPlan.coerce(point.faults),
        sanitize=point.sanitize,
    )
    ctx["seed"] = machine.config.seed
    if ckpt is not None:
        machine.enable_checkpointing()

    lineage = {"resumed_from_cycle": None, "snapshots_taken": 0}
    ctx["lineage"] = lineage
    resume_snap = None
    if ckpt is not None and ckpt.resume and os.path.exists(ckpt.path):
        resume_snap = load_snapshot(ckpt.path)

    # Resumed runs set up too: the restore overwrites setup's effects, but
    # the app object it produces must exist either way.
    app = make_app(
        point.app,
        **app_params(point.app, point.scale, **(point.app_overrides or {})),
    )
    app.setup(machine)

    rt_kwargs = dict(point.runtime_kwargs or {})
    if point.serial:
        # Table III "serial IO" baseline: the serial elision of the same
        # program (same grain, no runtime bookkeeping).
        rt_kwargs["serial_elision"] = True
    if point.watchdog is not None:
        rt_kwargs["watchdog"] = point.watchdog
    runtime = WorkStealingRuntime(machine, **rt_kwargs)

    heartbeat = None
    hb_dir = heartbeat_dir()
    if hb_dir:
        from repro.obs.heartbeat import HeartbeatWriter

        heartbeat = HeartbeatWriter.for_run(
            machine, runtime, hb_dir,
            meta={
                "app": point.app,
                "kind": point.kind,
                "scale": point.scale,
                "serial": bool(point.serial),
            },
        )
        ctx["heartbeat"] = heartbeat

    sampler = None
    if sample_interval is not None:
        from repro.obs.metrics import machine_metrics
        from repro.trace.sampler import IntervalSampler
        from repro.trace.tracer import NULL_TRACER

        # engine=False: event/fusion gauges differ between fused and
        # unfused runs, and sampled traces must stay byte-identical.
        sampler = IntervalSampler(
            machine.sim, machine_metrics(machine, engine=False).collect,
            sample_interval,
            tracer=tracer if tracer is not None else NULL_TRACER,
        )
        if ckpt is not None:
            # Let snapshots carry (and restores re-arm) the sampler.
            machine.ckpt_sampler = sampler
        if resume_snap is None:
            sampler.start()

    daemon = None
    if ckpt is not None and ckpt.interval:
        daemon = CheckpointDaemon(
            machine,
            ckpt.interval,
            lambda m: save_snapshot(ckpt.path, capture_run_state(m)),
        )
    if resume_snap is not None:
        machine.restore(resume_snap, app.make_root(serial=False))
        lineage["resumed_from_cycle"] = resume_snap["cycle"]
    # Daemons arm after any restore so their ticks ride the restored event
    # queue (restore rebuilds simulator state).
    if daemon is not None:
        daemon.arm()
    if heartbeat is not None:
        heartbeat.start()
    if resume_snap is not None:
        cycles = runtime.resume_run()
    else:
        cycles = runtime.run(app.make_root(serial=False))
    if daemon is not None:
        daemon.cancel()
        lineage["snapshots_taken"] = daemon.snapshots_taken
    if ckpt is not None and not ckpt.keep and os.path.exists(ckpt.path):
        # The run completed; a leftover snapshot would only be clutter
        # (and a stale resume source).  ``keep=True`` preserves it.
        os.remove(ckpt.path)
    if sampler is not None:
        sampler.finalize()
    if tracer is not None:
        tracer.core_labels.update(machine.core_labels())
        tracer.set_meta(
            app=point.app, kind=point.kind, scale=point.scale,
            serial=bool(point.serial),
            seed=machine.config.seed, n_cores=machine.config.n_cores,
            cycles=cycles, sample_interval=sample_interval,
        )
        tracer.finish(machine.sim.now)
    if machine.sanitizer is not None:
        # Raises SanitizerError before any (less diagnostic) check failure.
        machine.sanitizer.finish(runtime)
    app.check()

    result = assemble_result(
        point.app, point.kind, point.scale, point.serial, machine, runtime, cycles
    )
    if machine.fault_injector is not None:
        result.extras["faults_fired"] = machine.fault_injector.total_fired()
    if machine.sanitizer is not None:
        result.extras["sanitizer_walks"] = machine.sanitizer.stats.get("walks")
    # Checkpoint provenance: diagnostics only, never part of result
    # identity (a resumed run is byte-identical to a cold one; comparisons
    # should ignore ``extras``).
    if lineage["resumed_from_cycle"] is not None:
        result.extras["ckpt_resumed_from"] = float(lineage["resumed_from_cycle"])
    if lineage["snapshots_taken"]:
        result.extras["ckpt_snapshots"] = float(lineage["snapshots_taken"])
    return result


def assemble_result(
    app_name: str,
    kind: str,
    scale: str,
    serial: bool,
    machine,
    runtime,
    cycles: int,
) -> ExperimentResult:
    """Build an :class:`ExperimentResult` from a finished machine/runtime.

    Used by :func:`_simulate_experiment` and by drivers that run their own
    machines (the repository benchmark), so every caller derives its
    result fields from the machine state the same way.
    """
    tiny_ids = machine.tiny_core_ids() or list(range(machine.config.n_cores))
    l1_agg = machine.aggregate_l1_stats(tiny_ids)
    uli_stats = machine.stats.child("uli_network")
    uli_messages = uli_stats.get("messages")
    return ExperimentResult(
        app=app_name,
        kind=kind,
        scale=scale,
        serial=serial,
        cycles=cycles,
        instructions=machine.total_instructions(),
        tasks=runtime.stats.get("tasks_executed"),
        spawns=runtime.stats.get("spawns"),
        steals=runtime.stats.get("steals"),
        steal_attempts=runtime.stats.get("steal_attempts"),
        l1_hit_rate_tiny=machine.l1_hit_rate(tiny_ids),
        lines_invalidated=l1_agg["lines_invalidated"],
        lines_flushed=l1_agg["lines_flushed"],
        invalidate_ops=l1_agg["invalidate_ops"],
        flush_ops=l1_agg["flush_ops"],
        amos=l1_agg["amos"],
        traffic_bytes=machine.traffic.snapshot(),
        tiny_breakdown=machine.aggregate_core_breakdown(tiny_ids),
        energy=estimate_energy(machine),
        uli_handled=runtime.stats.get("uli_handler_runs"),
        uli_handler_cycles=sum(
            machine.cores[c].stats.get("cycles_uli_handler") for c in tiny_ids
        ),
        uli_nacks=runtime.stats.get("steal_nacks"),
        uli_utilization=machine.uli_network.utilization(max(1, cycles)),
        uli_avg_latency=(
            uli_stats.get("total_latency") / uli_messages if uli_messages else 0.0
        ),
    )


def adopt_result(result: ExperimentResult, point: GridPoint) -> None:
    """Insert ``point``'s externally computed result (e.g. from a grid
    worker) into the in-process memo cache and, when configured, the
    result store.

    Refuses anything that is not a successful :class:`ExperimentResult`:
    adopting a ``FailedResult`` would persist a failure as a success and
    every later probe of that key would silently skip the simulation.
    """
    if getattr(result, "failed", False) or not isinstance(result, ExperimentResult):
        raise TypeError(
            f"refusing to adopt {type(result).__name__} into the result "
            "cache/store: only successful ExperimentResults are cacheable"
        )
    _CACHE[point.key()] = result
    store = get_result_store()
    if store is not None:
        store_key = point.store_key()
        if not store.contains(store_key):
            from repro.harness.export import result_to_dict

            store.store(
                store_key, {"key": store_key, "result": result_to_dict(result)}
            )


def run_serial_baseline(app_name: str, scale: str, **kwargs) -> ExperimentResult:
    """The Table III baseline: serial elision on one in-order core."""
    return run_experiment(app_name, "serial-io", scale, serial=True, **kwargs)


def workspan(app_name: str, scale: str, /, **overrides) -> WorkSpanReport:
    """Cilkview work/span analysis of the app at this scale's input."""
    key = (app_name, scale, canonicalize(overrides))
    if key in _WORKSPAN_CACHE:
        return _WORKSPAN_CACHE[key]
    store = get_result_store()
    store_key = None
    if store is not None:
        store_key = _workspan_store_key(app_name, scale, overrides)
        payload = store.load(store_key)
        if payload is not None:
            report = WorkSpanReport(**payload["workspan"])
            _WORKSPAN_CACHE[key] = report
            return report
    params = app_params(app_name, scale, **overrides)
    app = make_app(app_name, **params)
    analyzer = CilkviewAnalyzer()
    app.setup(analyzer.machine)
    report = analyzer.analyze(app.make_root())
    _WORKSPAN_CACHE[key] = report
    if store is not None:
        store.store(
            store_key,
            {"key": store_key, "workspan": dataclasses.asdict(report)},
        )
    return report


def clear_cache() -> None:
    _CACHE.clear()
    _WORKSPAN_CACHE.clear()
