"""Deterministic simulation checkpoint/restore (gem5-style).

A *run snapshot* captures the complete deterministic state of a simulation
at an event boundary — clock and event heap, per-core coroutine stacks,
runtime bookkeeping, every cache/directory/DRAM/NoC/traffic structure,
statistics, RNG streams, tracer events, and backing memory — so the run can
be killed and later finished in a fresh process with byte-identical
results.

The hard problem is the coroutine stacks: thread programs are Python
generators, which cannot be pickled.  Instead of serializing frames the
machine keeps a *send log* (``Machine.enable_checkpointing``): every value
sent into a thread generator funnels through a single call site in
``Core._resume``, which appends ``(core_id, value)`` to a machine-wide
list; pushing a ULI handler frame appends a ``("h", core_id, thief)``
marker.  A snapshot stores this log, and restore *replays* it — it rebuilds
the app, machine, and runtime from the original arguments, starts fresh
thread generators, then walks the log sending each value into the top
frame of its core (popping on ``StopIteration``, pushing handler frames on
markers).  Host-side state mutated between yields (task registration,
address-space allocation, per-thread RNG draws, progress counters)
re-executes identically because it is a pure function of the sent values.
Everything else — simulated time, caches, stats, memory, heap events — is
then overwritten concretely from the snapshot, which also clobbers any
double-counting the replay performed.  Replay never dispatches op handlers
and never advances the clock; tracing is suppressed for its duration.

Determinism argument, in brief: (1) all generator sends go through the
logged call site, so the log is a complete replay script for the coroutine
stacks; (2) op handlers (``Core._op_*``) only touch state that is restored
concretely; (3) the event heap contains only four callback shapes (core
wake, op completion, ULI request, ULI response — the latter two are
``functools.partial`` objects precisely so they are recognizable), each
reducible to a plain descriptor; (4) daemon events are observers that
cannot perturb the simulation, so they are re-armed at their next absolute
multiple rather than captured.  ``tests/test_checkpoint.py`` verifies
byte-identical memory digests, statistics, and Perfetto traces across
protocols, with fusion on and off, with steals in flight.

Snapshots are gzip-compressed pickles of plain dicts/lists/tuples with a
magic string and a format version; ``load_snapshot`` refuses anything it
does not recognize.
"""

from __future__ import annotations

import copy
import gzip
import os
import pickle
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional

MAGIC = "repro-checkpoint"

#: Bump whenever the snapshot layout changes incompatibly.
FORMAT_VERSION = 1

#: Marker encoding of the ``Core._NO_RESULT`` sentinel on resume stacks
#: (the sentinel itself is an anonymous object and cannot be pickled).
_NO_RESULT_MARK = "__repro_no_result__"


class CheckpointError(RuntimeError):
    """A snapshot could not be taken, loaded, or restored."""


# ----------------------------------------------------------------------
# Harness-facing configuration
# ----------------------------------------------------------------------
@dataclass
class CheckpointConfig:
    """How a harness run snapshots itself.

    ``path`` names the run's snapshot file and is required: a spec without
    one would silently run cold.  ``interval`` drives periodic snapshots
    to ``path``; ``resume`` makes ``run_experiment`` restore from ``path``
    when it exists, so a run killed mid-flight (a crashed worker, a
    SIGKILLed service) finishes from its last periodic snapshot; ``keep``
    leaves the file in place after a successful run.  None of these
    fields participate in memo or store keys: checkpointing never perturbs
    a simulation's outcome.
    """

    path: str
    interval: Optional[int] = None
    resume: bool = False
    keep: bool = False

    def __post_init__(self):
        if not self.path:
            raise ValueError("a checkpoint spec needs a snapshot path")

    @classmethod
    def coerce(cls, value) -> Optional["CheckpointConfig"]:
        """None | CheckpointConfig | snapshot path | kwargs dict."""
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(path=value)
        if isinstance(value, dict):
            return cls(**value)
        raise TypeError(f"cannot interpret checkpoint spec {value!r}")


# ----------------------------------------------------------------------
# Snapshot file I/O
# ----------------------------------------------------------------------
def save_snapshot(path: str, snap: dict) -> str:
    """Atomically write ``snap`` as a gzipped pickle; returns ``path``."""
    data = gzip.compress(pickle.dumps(snap, protocol=4), compresslevel=1)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)
    return path


def load_snapshot(path: str) -> dict:
    """Read and validate a snapshot written by :func:`save_snapshot`."""
    try:
        with gzip.open(path, "rb") as fh:
            snap = pickle.load(fh)
    except (OSError, EOFError, pickle.UnpicklingError) as exc:
        raise CheckpointError(f"unreadable snapshot {path}: {exc}") from exc
    if not isinstance(snap, dict) or snap.get("magic") != MAGIC:
        raise CheckpointError(f"{path} is not a repro checkpoint")
    version = snap.get("version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path} has snapshot format version {version}; "
            f"this build reads version {FORMAT_VERSION}"
        )
    return snap


# ----------------------------------------------------------------------
# Event-heap descriptors
#
# Exactly four callback shapes ever reach the regular event heap (see
# Core.start/_resume/_send_uli/_respond); anything else is a bug worth
# failing loudly on.
# ----------------------------------------------------------------------
def _describe_event(entry) -> tuple:
    time, seq, callback = entry
    bound_self = getattr(callback, "__self__", None)
    if bound_self is not None:
        name = getattr(callback, "__name__", "")
        if name == "_on_complete":
            return (time, seq, "complete", bound_self.core_id)
        if name == "_resume_none":
            return (time, seq, "wake", bound_self.core_id)
    if isinstance(callback, partial):
        fn = callback.func
        target = getattr(fn, "__self__", None)
        name = getattr(fn, "__name__", "")
        if target is not None and name == "deliver_uli_request":
            return (time, seq, "uli_req", target.core_id, callback.args[0])
        if target is not None and name == "deliver_uli_response":
            return (time, seq, "uli_resp", target.core_id, callback.args[0])
    raise CheckpointError(
        f"cannot serialize in-flight event {callback!r} at cycle {time}"
    )


def _rebuild_event(entry, cores) -> tuple:
    time, seq, kind = entry[0], entry[1], entry[2]
    core = cores[entry[3]]
    if kind == "complete":
        callback = core._complete_cont
    elif kind == "wake":
        callback = core._resume_none_cont
    elif kind == "uli_req":
        callback = partial(core.deliver_uli_request, entry[4])
    elif kind == "uli_resp":
        callback = partial(core.deliver_uli_response, entry[4])
    else:
        raise CheckpointError(f"unknown event descriptor kind {kind!r}")
    return (time, seq, callback)


# ----------------------------------------------------------------------
# Per-subsystem capture/restore helpers
# ----------------------------------------------------------------------
def _capture_stats(group) -> dict:
    return {
        "counters": dict(group._counters),
        "children": {
            name: _capture_stats(child) for name, child in group._children.items()
        },
    }


def _restore_stats(group, snap: dict) -> None:
    # In place: Core/L1 hot paths hold direct references to the raw
    # counter dicts, so the dict objects must survive the restore.
    counters = group._counters
    counters.clear()
    counters.update(snap["counters"])
    children = snap["children"]
    for name, child_snap in children.items():
        _restore_stats(group.child(name), child_snap)
    for name, child in group._children.items():
        if name not in children:
            _restore_stats(child, {"counters": {}, "children": {}})


def _capture_core(core) -> dict:
    from repro.cores.core import _NO_RESULT

    return {
        "halted": core.halted,
        "uli_enabled": core.uli_enabled,
        "in_handler": core._in_handler,
        "pending_uli": core._pending_uli,
        "uli_waiting": core._uli_waiting,
        "deferred_uli_resp": core._deferred_uli_resp,
        "uli_send_time": core._uli_send_time,
        "handler_entry_time": core._handler_entry_time,
        "wait_handler_cycles": core._wait_handler_cycles,
        "pending_result": core._pending_result,
        "resume_stack": [
            _NO_RESULT_MARK if value is _NO_RESULT else value
            for value in core._resume_stack
        ],
        "frame_depth": len(core._frames),
    }


def _restore_core(core, snap: dict) -> None:
    from repro.cores.core import _NO_RESULT

    core.halted = snap["halted"]
    core.uli_enabled = snap["uli_enabled"]
    core._in_handler = snap["in_handler"]
    core._pending_uli = snap["pending_uli"]
    core._uli_waiting = snap["uli_waiting"]
    core._deferred_uli_resp = snap["deferred_uli_resp"]
    core._uli_send_time = snap["uli_send_time"]
    core._handler_entry_time = snap["handler_entry_time"]
    core._wait_handler_cycles = snap["wait_handler_cycles"]
    core._pending_result = snap["pending_result"]
    core._resume_stack = [
        _NO_RESULT if value == _NO_RESULT_MARK else value
        for value in snap["resume_stack"]
    ]


def _capture_rngs(machine, runtime) -> dict:
    state: Dict[str, Any] = {
        "machine": machine.rng._state,
        "contexts": [ctx.rng._state for ctx in runtime.contexts],
        "steal_failures": [
            getattr(ctx, "_steal_failures", 0) for ctx in runtime.contexts
        ],
        # Start cycle of each thread's current steal attempt: consumed by
        # the tracer when an in-flight steal completes after the restore
        # (the replayed frame re-read sim.now before the clock came back).
        "steal_starts": [
            getattr(ctx, "_steal_start", 0) for ctx in runtime.contexts
        ],
    }
    injector = machine.fault_injector
    if injector is not None:
        state["fault"] = {
            "noc": injector._noc_rng._state,
            "uli": injector._uli_rng._state,
            "steal": injector._steal_rng._state,
            "l1": [rng._state for rng in injector._l1_rngs],
        }
    return state


def _restore_rngs(machine, runtime, state: dict) -> None:
    machine.rng._state = state["machine"]
    for ctx, rng_state in zip(runtime.contexts, state["contexts"]):
        ctx.rng._state = rng_state
    for ctx, failures in zip(runtime.contexts, state["steal_failures"]):
        ctx._steal_failures = failures
    for ctx, start in zip(runtime.contexts, state["steal_starts"]):
        ctx._steal_start = start
    injector = machine.fault_injector
    fault_state = state.get("fault")
    if injector is not None and fault_state is not None:
        injector._noc_rng._state = fault_state["noc"]
        injector._uli_rng._state = fault_state["uli"]
        injector._steal_rng._state = fault_state["steal"]
        for rng, rng_state in zip(injector._l1_rngs, fault_state["l1"]):
            rng._state = rng_state


def _capture_sanitizer(sanitizer) -> Optional[dict]:
    if sanitizer is None:
        return None
    return {
        "violations": copy.deepcopy(sanitizer.violations),
        "unpublished": dict(sanitizer._unpublished),
        "by_core": {cid: set(words) for cid, words in sanitizer._by_core.items()},
        "interval": sanitizer.interval,
    }


def _restore_sanitizer(machine, state: Optional[dict]) -> None:
    sanitizer = machine.sanitizer
    if sanitizer is None:
        if state is not None:
            raise CheckpointError(
                "snapshot was taken with the sanitizer installed; "
                "rebuild the machine with sanitize=True before restoring"
            )
        return
    if state is None:
        raise CheckpointError(
            "snapshot was taken without the sanitizer; "
            "rebuild the machine with sanitize=False before restoring"
        )
    sanitizer.violations = copy.deepcopy(state["violations"])
    sanitizer._unpublished = dict(state["unpublished"])
    sanitizer._by_core = {cid: set(words) for cid, words in state["by_core"].items()}
    # Re-arm the periodic SWMR walk at its next absolute multiple so walk
    # cycles (and the "walks" counter) match the uninterrupted run.
    _rearm_at_next_multiple(machine.sim, sanitizer.interval, sanitizer._walk_tick)


def _capture_tracer(tracer) -> Optional[dict]:
    if not tracer.enabled:
        return None
    return copy.deepcopy(dict(tracer.__dict__))


def _restore_tracer(tracer, state: Optional[dict]) -> None:
    if state is None:
        return
    # Wholesale: every Tracer field is plain data living in __dict__.
    # Clearing also drops the instance-level ``enabled = False`` replay
    # shade, re-exposing the class attribute (True).
    tracer.__dict__.clear()
    tracer.__dict__.update(copy.deepcopy(state))


def _rearm_at_next_multiple(sim, interval: int, callback: Callable[[], None]) -> None:
    """Schedule a self-re-arming daemon at its next absolute phase point.

    Periodic daemons armed at cycle 0 fire at k*interval; after a restore
    to cycle T the next firing must be at the smallest multiple strictly
    greater than T (the firing *at* T, if any, happened before the
    snapshot was taken).
    """
    due = (sim.now // interval + 1) * interval
    sim.schedule_at(due, callback, daemon=True)


# ----------------------------------------------------------------------
# Run snapshots
# ----------------------------------------------------------------------
def capture_run_state(machine) -> dict:
    """Snapshot a checkpoint-enabled machine mid-run (or at completion).

    Must be called between events — from a daemon callback or outside
    ``sim.run()`` — so every core is parked (its continuation, if any, is
    on the heap and its pending result is concrete).
    """
    if machine._ckpt_log is None:
        raise CheckpointError(
            "machine was built without checkpointing; call "
            "Machine.enable_checkpointing() before the run starts"
        )
    runtime = machine.runtime
    if runtime is None:
        raise CheckpointError("no runtime attached to this machine")
    sim = machine.sim
    sim_state = sim.export_state()
    sim_state["queue"] = [_describe_event(entry) for entry in sim_state["queue"]]
    sampler = getattr(machine, "ckpt_sampler", None)
    return {
        "magic": MAGIC,
        "version": FORMAT_VERSION,
        "kind": "run",
        "cycle": sim.now,
        "sim": sim_state,
        "log": list(machine._ckpt_log),
        "cores": [_capture_core(core) for core in machine.cores],
        "l1s": [l1.export_state() for l1 in machine.l1s],
        "l2": machine.l2.export_state(),
        "dram": [controller.export_state() for controller in machine.l2.dram],
        "traffic": machine.traffic.export_state(),
        "memory": machine.memory.export_state(),
        "address_space": machine.address_space.export_state(),
        "stats": _capture_stats(machine.stats),
        "rng": _capture_rngs(machine, runtime),
        "runtime": {
            "done": runtime.done,
            "progress": runtime.progress,
            "next_task_id": runtime._next_task_id,
        },
        "tracer": _capture_tracer(machine.tracer),
        "sanitizer": _capture_sanitizer(machine.sanitizer),
        "sampler": (
            {
                "samples": copy.deepcopy(sampler.samples),
                "prev": copy.deepcopy(sampler._prev),
                "interval": sampler.interval,
            }
            if sampler is not None
            else None
        ),
    }


def _replay_log(machine, log: List) -> None:
    """Walk the send log against freshly started thread generators.

    Sends advance the coroutines through exactly the host-side execution
    of the recorded run; yielded ops are discarded (their architectural
    effects are restored concretely afterwards).
    """
    cores = machine.cores
    for entry in log:
        first = entry[0]
        if first.__class__ is str:  # ("h", core_id, thief): handler push
            core = cores[entry[1]]
            core._push_frame(core.uli_handler_factory(entry[2]))
            continue
        frames = cores[first]._frames
        try:
            frames[-1].send(entry[1])
        except StopIteration:
            frames.pop()


def _validate_replay(machine, runtime, snap: dict) -> None:
    """Cross-check replay-reconstructed host state against the snapshot.

    Any mismatch means the rebuild diverged from the recorded run (wrong
    app parameters, code drift, nondeterminism) — restoring on top of it
    would silently corrupt the simulation, so fail loudly instead.
    """
    problems = []
    for core, core_snap in zip(machine.cores, snap["cores"]):
        if len(core._frames) != core_snap["frame_depth"]:
            problems.append(
                f"core {core.core_id}: frame depth {len(core._frames)} "
                f"!= snapshot {core_snap['frame_depth']}"
            )
    rt_snap = snap["runtime"]
    if runtime.done != rt_snap["done"]:
        problems.append(f"runtime.done {runtime.done} != {rt_snap['done']}")
    if runtime.progress != rt_snap["progress"]:
        problems.append(
            f"runtime.progress {runtime.progress} != {rt_snap['progress']}"
        )
    if runtime._next_task_id != rt_snap["next_task_id"]:
        problems.append(
            f"next_task_id {runtime._next_task_id} != {rt_snap['next_task_id']}"
        )
    addr_next = snap["address_space"]["next"]
    if machine.address_space._next != addr_next:
        problems.append(
            f"address space next {machine.address_space._next:#x} "
            f"!= snapshot {addr_next:#x}"
        )
    for ctx, rng_state in zip(runtime.contexts, snap["rng"]["contexts"]):
        if ctx.rng._state != rng_state:
            problems.append(f"thread {ctx.tid}: rng state diverged during replay")
    if problems:
        raise CheckpointError(
            "replay diverged from snapshot:\n  " + "\n  ".join(problems)
        )


def restore_run_state(machine, snap: dict, root, main_tid: int = 0) -> None:
    """Restore ``snap`` into a freshly built machine/runtime pair.

    The caller must have rebuilt the app, machine (with checkpointing
    enabled and the same tracer/fault/sanitizer setup), and runtime with
    the original arguments, *without* starting the run.  ``root`` is a
    fresh root task from ``app.make_root``.
    """
    if snap.get("kind") != "run":
        raise CheckpointError(f"expected a run snapshot, got {snap.get('kind')!r}")
    runtime = machine.runtime
    if runtime is None:
        raise CheckpointError("no runtime attached to this machine")
    if machine._ckpt_log is None:
        raise CheckpointError("enable_checkpointing() must precede restore")
    if machine.sim.now != 0 or machine._ckpt_log:
        raise CheckpointError("restore requires a machine that has not run yet")

    tracer = machine.tracer
    recording = tracer.enabled
    if recording and snap["tracer"] is None:
        raise CheckpointError(
            "cannot resume an untraced snapshot with tracing enabled: the "
            "events before the snapshot were never recorded"
        )
    if recording:
        # Instance attribute shades the Tracer class attribute; removed
        # again when the tracer state is restored wholesale below.
        tracer.enabled = False
    runtime._tracing = False
    try:
        runtime.start_threads(root, main_tid)
        _replay_log(machine, snap["log"])
        _validate_replay(machine, runtime, snap)
    finally:
        if recording and tracer.__dict__.get("enabled") is False:
            del tracer.__dict__["enabled"]
        runtime._tracing = tracer.enabled

    # Concrete overwrite of all timed/architectural state.
    for core, core_snap in zip(machine.cores, snap["cores"]):
        _restore_core(core, core_snap)
    sim_state = snap["sim"]
    events = [_rebuild_event(entry, machine.cores) for entry in sim_state["queue"]]
    machine.sim.load_state(sim_state, events)
    for l1, l1_state in zip(machine.l1s, snap["l1s"]):
        l1.load_state(l1_state)
    machine.l2.load_state(snap["l2"])
    for controller, dram_state in zip(machine.l2.dram, snap["dram"]):
        controller.load_state(dram_state)
    machine.traffic.load_state(snap["traffic"])
    machine.memory.load_state(snap["memory"])
    machine.address_space.load_state(snap["address_space"])
    _restore_stats(machine.stats, snap["stats"])
    _restore_rngs(machine, runtime, snap["rng"])
    runtime.done = snap["runtime"]["done"]
    runtime.progress = snap["runtime"]["progress"]
    runtime._next_task_id = snap["runtime"]["next_task_id"]
    _restore_tracer(tracer, snap["tracer"])
    runtime._tracing = tracer.enabled
    _restore_sanitizer(machine, snap["sanitizer"])
    sampler_state = snap.get("sampler")
    sampler = getattr(machine, "ckpt_sampler", None)
    if sampler_state is not None:
        if sampler is None:
            raise CheckpointError(
                "snapshot carries interval-sampler state; recreate the "
                "sampler (same interval) before restoring"
            )
        sampler.samples = copy.deepcopy(sampler_state["samples"])
        sampler._prev = copy.deepcopy(sampler_state["prev"])
        _rearm_at_next_multiple(machine.sim, sampler.interval, sampler._tick)
    elif sampler is not None:
        raise CheckpointError(
            "cannot resume with an interval sampler: the snapshot was "
            "taken without one, so the earlier intervals were never sampled"
        )
    # Continue the send log from the snapshot so later snapshots of the
    # resumed run are themselves restorable (in place: cores share the list).
    machine._ckpt_log[:] = snap["log"]


# ----------------------------------------------------------------------
# Periodic snapshot daemon
# ----------------------------------------------------------------------
class CheckpointDaemon:
    """Self-re-arming daemon taking a snapshot every ``interval`` cycles.

    Daemon events run between regular events, so every snapshot lands at a
    safe point with all cores parked.  ``write`` receives the machine and
    is responsible for capture + persistence (the harness adds experiment
    metadata there).  Firing cycles are absolute multiples of the
    interval, so a resumed run's later snapshots (and tracer checkpoint
    marks) land at the same cycles as an uninterrupted run's.
    """

    def __init__(self, machine, interval: int, write: Callable):
        if interval <= 0:
            raise ValueError(f"checkpoint interval must be positive, got {interval}")
        self.machine = machine
        self.interval = int(interval)
        self.write = write
        self.snapshots_taken = 0
        self._armed = False

    def arm(self) -> None:
        self._armed = True
        _rearm_at_next_multiple(self.machine.sim, self.interval, self._tick)

    def cancel(self) -> None:
        self._armed = False

    def _tick(self) -> None:
        if not self._armed:
            return
        machine = self.machine
        tracer = machine.tracer
        if tracer.enabled:
            tracer.checkpoint_mark(machine.sim.now)
        self.write(machine)
        self.snapshots_taken += 1
        _rearm_at_next_multiple(machine.sim, self.interval, self._tick)
