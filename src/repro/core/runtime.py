"""Work-stealing runtimes for hardware, heterogeneous, and DTS systems.

This module implements all three runtime variants of the paper's Figure 3:

* ``hw``  (Figure 3a) — baseline for hardware-based cache coherence:
  per-deque spin locks around every deque access; AMO reference counts.
* ``hcc`` (Figure 3b) — heterogeneous cache coherence: every deque access
  additionally invalidates the whole private cache after the lock acquire
  and flushes it before the release; stolen tasks execute between an
  invalidate and a flush; the parent invalidates after ``wait`` in case a
  child was stolen; the reference count is polled with ``amo_or(rc, 0)``.
* ``dts`` (Figure 3c) — direct task stealing: deques become thread-private
  (ULI disabled around local accesses instead of locks); steals are ULI
  round trips serviced by a victim-side handler; the handler sets the
  parent's ``has_stolen_child`` flag before exporting a task, letting the
  runtime skip AMOs, flushes and the final invalidate whenever no child was
  actually stolen (the DAG-consistency optimizations of Section IV-C).

The variants share one ``spawn``, one local poll (``_poll_local``) and one
steal (``_steal``); each difference is an inline branch on flags fixed in
``__init__``.  ``wait`` is one loop for ``hw`` and ``hcc``; DTS keeps its
own (``_wait_dts``), which reads ``has_stolen_child`` before the reference
count.

The variant is normally derived from the machine's configuration, but can
be forced (e.g. running the HCC runtime on a MESI machine — the coherence
ops no-op — or ablating the DTS software optimizations).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.chaselev import ChaseLevDeque
from repro.core.task import Task
from repro.core.taskqueue import TaskDeque
from repro.cores import ops
from repro.engine.simulator import SimulationError
from repro.engine.watchdog import Watchdog
from repro.machine import Machine
from repro.mem.address import WORD_BYTES
from repro.trace.tracer import NULL_TRACER

#: Modeled fixed costs (in "instructions" of Work) of runtime bookkeeping.
SPAWN_OVERHEAD = 6
TASK_START_OVERHEAD = 4

#: Idle cycles after a failed steal attempt before retrying; consecutive
#: failures back off exponentially up to the cap (classic work-stealing
#: backoff, bounding probe churn at 256 cores).  The cap is deliberately
#: small: long sleeps delay work discovery and flatten exactly the steal
#: dynamics the paper measures.
STEAL_BACKOFF = 24
STEAL_BACKOFF_CAP = 128


class WorkStealingRuntime:
    """A TBB/Cilk-like library runtime running on a simulated Machine."""

    VARIANTS = ("hw", "hcc", "dts")

    def __init__(
        self,
        machine: Machine,
        variant: Optional[str] = None,
        dts_elide_queue_sync: bool = True,
        dts_elide_parent_sync: bool = True,
        serial_elision: bool = False,
        deque_kind: str = "lock",
        watchdog: Optional[int] = None,
        break_coherence: Optional[str] = None,
    ):
        if variant is None:
            if machine.config.dts:
                variant = "dts"
            elif machine.config.tiny_protocol != "mesi":
                variant = "hcc"
            else:
                variant = "hw"
        if variant not in self.VARIANTS:
            raise ValueError(f"unknown runtime variant {variant!r}")
        self.machine = machine
        self.variant = variant
        #: Serial elision: fork_join runs children as plain nested calls —
        #: no deques, no reference counts, no coherence ops.  This is the
        #: "serial IO" baseline of Table III (the Cilk serial elision).
        self.serial_elision = serial_elision
        #: Ablation flags for the two DTS software optimizations (Section IV-B/C).
        self.dts_elide_queue_sync = dts_elide_queue_sync
        self.dts_elide_parent_sync = dts_elide_parent_sync

        if deque_kind not in ("lock", "chase-lev"):
            raise ValueError(f"unknown deque kind {deque_kind!r}")
        #: Deadlock watchdog grace period in cycles (None = no watchdog).
        #: Must exceed the longest single task's cycle count: the progress
        #: counter only advances at scheduling points (task start, spawn,
        #: handler).
        self.watchdog_grace = watchdog
        #: Deliberately-broken coherence disciplines for sanitizer positive
        #: controls (repro.sanitize): "no-thief-flush" skips the flush
        #: after a stolen task; "no-parent-invalidate" skips the parent's
        #: post-wait invalidate.  Never use outside robustness testing.
        if break_coherence not in (None, "no-thief-flush", "no-parent-invalidate"):
            raise ValueError(f"unknown break_coherence mode {break_coherence!r}")
        self.break_coherence = break_coherence
        #: Monotonic scheduling-progress counter sampled by the watchdog.
        self.progress = 0
        if deque_kind == "chase-lev" and variant == "dts":
            raise ValueError(
                "DTS makes deques thread-private; a lock-free deque is moot"
            )
        self.deque_kind = deque_kind
        # The Figure 3 decisions, fixed for the run and tested inline on the
        # scheduling paths: lock-deque accesses are bracketed by
        # invalidate/flush (hcc); deques are thread-private and steals are
        # ULI round trips (dts); a stolen task runs between an invalidate
        # and a flush (every variant but hw).
        self._hw = variant == "hw"
        self._hcc = variant == "hcc"
        self._dts = variant == "dts"
        self._lock_free = deque_kind == "chase-lev"
        self._thief_flush = break_coherence != "no-thief-flush"
        self._parent_invalidate = break_coherence != "no-parent-invalidate"
        self.contexts = machine.make_contexts()
        self.n_threads = machine.config.n_cores
        deque_cls = TaskDeque if deque_kind == "lock" else ChaseLevDeque
        self.deques = [
            deque_cls(machine, tid) for tid in range(self.n_threads)
        ]
        # One mailbox word per thread, each on its own cache line.
        self._mailboxes = [
            machine.address_space.alloc_words(1, f"mailbox_{tid}")
            for tid in range(self.n_threads)
        ]
        self.tasks: Dict[int, Task] = {}
        self._next_task_id = 1
        self.done = False
        self.stats = machine.stats.child("runtime")
        #: Raw counter dict of ``stats`` (mutated in place, never rebound),
        #: indexed directly on the scheduling paths.
        self._cnt = self.stats._counters
        #: Event tracer (repro.trace); the machine's, NULL_TRACER when off.
        #: ``_tracing`` is hoisted so hot loops pay one attribute test.
        self.tracer = getattr(machine, "tracer", NULL_TRACER)
        self._tracing = self.tracer.enabled
        machine.runtime = self
        if self._dts:
            self._install_uli_handlers()

    # ------------------------------------------------------------------
    # Task registration
    # ------------------------------------------------------------------
    def register_task(self, task: Task, parent: Optional[Task]) -> Task:
        """Assign an id and a descriptor block (host-side bookkeeping)."""
        task.task_id = self._next_task_id
        self._next_task_id += 1
        task.parent = parent
        task.desc_addr = self.machine.address_space.alloc_words(
            2 + task.ARG_WORDS, f"task_{task.task_id}"
        )
        self.tasks[task.task_id] = task
        return task

    def _init_descriptor(self, ctx, task: Task):
        """Simulated stores initializing rc/hsc/args (task construction)."""
        yield ctx.work(SPAWN_OVERHEAD)
        yield ctx.store(task.rc_addr, 0)
        yield ctx.store(task.hsc_addr, 0)
        for i in range(task.ARG_WORDS):
            yield ctx.store(task.arg_addr(i), 0)

    # ------------------------------------------------------------------
    # Public API: spawn / wait / fork_join
    # ------------------------------------------------------------------
    def spawn(self, ctx, task: Task):
        """Figure 3 ``task::spawn``: enqueue on the current thread's deque."""
        self._cnt["spawns"] += 1
        self.progress += 1
        dq = self.deques[ctx.tid]
        if self._dts:
            yield ctx.uli_disable()
            yield dq.enqueue(ctx, task.task_id)
            yield ctx.uli_enable()
            if not self.dts_elide_queue_sync:
                # Ablation: keep the conservative per-spawn flush.
                yield ctx.cache_flush()
        elif self._lock_free:
            # Lock-free publication; the push itself flushes user data on
            # protocols that need it before the tail becomes visible.
            yield dq.push(ctx, task.task_id)
        else:
            yield dq.lock_acquire(ctx)
            if self._hcc:
                yield ctx.cache_invalidate()
            yield dq.enqueue(ctx, task.task_id)
            if self._hcc:
                yield ctx.cache_flush()
            yield dq.lock_release(ctx)

    def wait(self, ctx, parent: Task):
        """Figure 3 ``task::wait``: scheduling loop until children join.

        This is the loop of Figures 3a and 3b; DTS has its own
        (:meth:`_wait_dts`).
        """
        if self._dts:
            yield self._wait_dts(ctx, parent)
            return
        core = ctx.core
        core.spinning = True
        while True:
            if self._tracing:
                self.tracer.core_state(ctx.tid, self.machine.sim.now, "waiting")
            if self._hcc:
                # Poll the count at the coherence point, not a stale copy.
                rc = yield ctx.amo_or(parent.rc_addr, 0)
            else:
                rc = yield ctx.load(parent.rc_addr)
            if rc <= 0:
                break
            executed = yield self._poll_local(ctx)
            if not executed:
                yield self._steal(ctx)
        core.spinning = False
        # A child may have been stolen and executed remotely: invalidate so
        # the parent sees its children's writes (DAG consistency, req. 2).
        if self._hcc and self._parent_invalidate:
            yield ctx.cache_invalidate()

    def fork_join(self, ctx, parent: Task, children: List[Task]):
        """Spawn ``children`` of ``parent`` and wait for all of them.

        This is the building block behind ``parallel_invoke`` and the
        recursive splitting of ``parallel_for`` (paper Figure 2).
        """
        if not children:
            return
        if self.serial_elision:
            # Serial elision: children are plain nested calls.
            for child in children:
                self.register_task(child, parent)
                yield child.execute(self, ctx)
            return
        yield ctx.store(parent.rc_addr, len(children))
        for child in children:
            self.register_task(child, parent)
            yield self._init_descriptor(ctx, child)
        for child in children:
            yield self.spawn(ctx, child)
        yield self.wait(ctx, parent)

    def run_inline(self, ctx, task: Task):
        """Execute a fresh parentless task on the current thread."""
        self.register_task(task, parent=None)
        if self.serial_elision:
            yield task.execute(self, ctx)
            return
        yield self._init_descriptor(ctx, task)
        yield self._run_task(ctx, task)

    # ------------------------------------------------------------------
    # Task execution
    # ------------------------------------------------------------------
    def _run_task(self, ctx, task: Task):
        # Task bodies and their fixed per-task bookkeeping are *work*: the
        # instruction counts here are invariant across schedules, unlike
        # the hunting/polling loops around them whose iteration counts
        # scale with wait durations (see Core.spinning).
        core = ctx.core
        spin_prev = core.spinning
        core.spinning = False
        self._cnt["tasks_executed"] += 1
        self.progress += 1
        if self._tracing:
            now = self.machine.sim.now
            self.tracer.core_state(ctx.tid, now, "running-task")
            self.tracer.task_begin(
                ctx.tid, now, task.task_id, type(task).__name__
            )
        for i in range(task.ARG_WORDS):
            yield ctx.load(task.arg_addr(i))
        yield ctx.work(TASK_START_OVERHEAD)
        yield task.execute(self, ctx)
        core.spinning = spin_prev
        if self._tracing:
            self.tracer.task_end(ctx.tid, self.machine.sim.now)

    def _decrement_parent_amo(self, ctx, task: Task):
        """The op that drops the parent's reference count (NOP for a root).

        Like the other one-op helpers it returns the op for the caller to
        yield, rather than being a generator the trampoline pushes and
        pops around a single op; the caller ignores the op's result.
        """
        if task.parent is not None:
            return ctx.amo_sub(task.parent.rc_addr, 1)
        return ops.NOP

    # ------------------------------------------------------------------
    # Steal backoff
    # ------------------------------------------------------------------
    def _steal_backoff(self, ctx):
        """The idle op after a failed steal (returned, not yielded)."""
        failures = getattr(ctx, "_steal_failures", 0)
        ctx._steal_failures = failures + 1
        window = min(STEAL_BACKOFF << min(failures, 6), STEAL_BACKOFF_CAP)
        if self._tracing:
            self.tracer.core_state(ctx.tid, self.machine.sim.now, "idle")
        return ctx.idle(window + ctx.rng.randint(0, window))

    # ------------------------------------------------------------------
    # Scheduling: local poll and steal (Figure 3a/b/c)
    # ------------------------------------------------------------------
    def _poll_local(self, ctx):
        """Run the youngest task of this thread's deque, if there is one."""
        dq = self.deques[ctx.tid]
        if self._dts:
            yield ctx.uli_disable()
            task_id = yield dq.dequeue_tail(ctx)
            yield ctx.uli_enable()
        elif self._lock_free:
            # Control accesses are AMOs (coherence-point reads), so HCC
            # needs no whole-cache invalidate/flush pair locally.
            task_id = yield dq.take(ctx)
        else:
            yield dq.lock_acquire(ctx)
            if self._hcc:
                yield ctx.cache_invalidate()
            task_id = yield dq.dequeue_tail(ctx)
            if self._hcc:
                yield ctx.cache_flush()
            yield dq.lock_release(ctx)
        if not task_id:
            return False
        task = self.tasks[task_id]
        self._cnt["local_dequeues"] += 1
        yield self._run_task(ctx, task)
        parent = task.parent
        if self._dts and self.dts_elide_parent_sync and parent is not None:
            # DTS joins a locally executed child with a plain rc update
            # unless the victim handler marked a sibling stolen.
            hsc = yield ctx.load(parent.hsc_addr)
            if not hsc:
                rc = yield ctx.load(parent.rc_addr)
                yield ctx.store(parent.rc_addr, rc - 1)
                return True
        yield self._decrement_parent_amo(ctx, task)
        return True

    def _steal(self, ctx):
        """One steal attempt on a random victim; runs the task it gets."""
        if self.n_threads < 2:
            yield ctx.idle(STEAL_BACKOFF)
            return False
        self._cnt["steal_attempts"] += 1
        # The attempt's start cycle lives on ctx, not in a frame local:
        # checkpoint restore replays frames before the clock is restored,
        # so a local read of sim.now would be stale for a steal that was
        # in flight at the snapshot (repro.engine.checkpoint fixes the
        # ctx attribute up concretely after the replay).
        steal_start = ctx._steal_start = self.machine.sim.now
        if self._tracing:
            self.tracer.core_state(ctx.tid, steal_start, "steal-attempt")
        vid = ctx.choose_victim()
        if self._dts:
            # A ULI round trip: the victim's handler moves its oldest task,
            # if any, into this thread's mailbox, then acks.  A NACK means
            # the victim was busy, halted or had ULIs disabled.
            ack = yield ctx.uli_send_req(vid)
            if not ack:
                self._cnt["steal_nacks"] += 1
                yield self._steal_backoff(ctx)
                return False
            task_id = yield ctx.amo("xchg", self._mailboxes[ctx.tid], 0)
        elif self._lock_free:
            task_id = yield self.deques[vid].steal(ctx)
        else:
            vdq = self.deques[vid]
            yield vdq.lock_acquire(ctx)
            if self._hcc:
                yield ctx.cache_invalidate()
            task_id = yield vdq.steal_head(ctx)
            if self._hcc:
                yield ctx.cache_flush()
            yield vdq.lock_release(ctx)
        if not task_id:
            yield self._steal_backoff(ctx)
            return False
        ctx._steal_failures = 0
        task = self.tasks[task_id]
        self._cnt["steals"] += 1
        if self._tracing:
            self.tracer.steal(
                ctx.tid, vid, task_id, ctx._steal_start,
                self.machine.sim.now, self.variant,
            )
        if self._hw:
            yield self._run_task(ctx, task)
        else:
            # The stolen task's parent ran on another thread: invalidate to
            # see its writes, flush afterwards so the parent can see ours.
            yield ctx.cache_invalidate()
            yield self._run_task(ctx, task)
            if self._thief_flush:
                yield ctx.cache_flush()
        yield self._decrement_parent_amo(ctx, task)
        return True

    # ------------------------------------------------------------------
    # DTS wait (Figure 3c)
    # ------------------------------------------------------------------
    def _wait_dts(self, ctx, parent: Task):
        core = ctx.core
        core.spinning = True
        if self._tracing:
            self.tracer.core_state(ctx.tid, self.machine.sim.now, "waiting")
        rc = yield ctx.load(parent.rc_addr)
        while rc > 0:
            if self._tracing:
                self.tracer.core_state(ctx.tid, self.machine.sim.now, "waiting")
            executed = yield self._poll_local(ctx)
            if not executed:
                yield self._steal(ctx)
            if self.dts_elide_parent_sync:
                hsc = yield ctx.load(parent.hsc_addr)
            else:
                hsc = 1
            if hsc:
                rc = yield ctx.amo_or(parent.rc_addr, 0)
            else:
                rc = yield ctx.load(parent.rc_addr)
        core.spinning = False
        if self.dts_elide_parent_sync:
            hsc = yield ctx.load(parent.hsc_addr)
        else:
            hsc = 1
        if hsc and self._parent_invalidate:
            # Some child ran remotely: invalidate to see its writes.
            yield ctx.cache_invalidate()

    # ------------------------------------------------------------------
    # DTS victim-side ULI handler (Figure 3c lines 47-53)
    # ------------------------------------------------------------------
    def _install_uli_handlers(self) -> None:
        for tid in range(self.n_threads):
            self.machine.cores[tid].uli_handler_factory = self._handler_factory(tid)

    def _handler_factory(self, victim_tid: int):
        ctx = self.contexts[victim_tid]
        dq = self.deques[victim_tid]

        def handler(thief_core_id: int):
            # Handler runs scale with steal-attempt arrivals (timing), so
            # their instructions count as spin (instructions_spin).
            core = ctx.core
            spin_prev = core.spinning
            core.spinning = True
            self._cnt["uli_handler_runs"] += 1
            task_id = yield dq.steal_head(ctx)
            if task_id:
                # Only a successful export is watchdog progress: a wedged
                # victim still answers steal requests with NACKs forever.
                self.progress += 1
                task = self.tasks[task_id]
                if task.parent is not None:
                    yield ctx.store(task.parent.hsc_addr, 1)
                yield ctx.amo("xchg", self._mailboxes[thief_core_id], task_id)
                yield ctx.cache_flush()
                self._cnt["uli_tasks_exported"] += 1
            core.spinning = spin_prev

        return handler

    # ------------------------------------------------------------------
    # Threads and program execution
    # ------------------------------------------------------------------
    def _main_thread(self, ctx, root: Task):
        if self._dts:
            yield ctx.uli_enable()
        yield self.run_inline(ctx, root)
        self.done = True

    def _worker_thread(self, ctx):
        if self._dts:
            yield ctx.uli_enable()
        ctx.core.spinning = True
        while not self.done:
            if self._tracing:
                self.tracer.core_state(ctx.tid, self.machine.sim.now, "waiting")
            executed = yield self._poll_local(ctx)
            if not executed and not self.done:
                yield self._steal(ctx)
        ctx.core.spinning = False

    def run(self, root: Task) -> int:
        """Execute ``root`` to completion; returns elapsed cycles."""
        if self.done:
            raise SimulationError("runtime already ran a program")
        self.start_threads(root)
        return self._drive()

    def start_threads(self, root: Task) -> None:
        """Start one thread generator per core (core 0 runs ``root``).

        Split out of :meth:`run` so checkpoint restore
        (``repro.engine.checkpoint``) can start fresh generators and replay
        the send log against them without entering the event loop.
        """
        machine = self.machine
        for tid in range(self.n_threads):
            ctx = self.contexts[tid]
            if self._tracing:
                self.tracer.core_state(tid, machine.sim.now, "idle")
            if tid == 0:
                machine.cores[tid].start(self._main_thread(ctx, root))
            else:
                machine.cores[tid].start(self._worker_thread(ctx))

    def resume_run(self) -> int:
        """Drive a restored simulation to completion.

        The machine must have been populated by ``Machine.restore``; the
        reported elapsed cycles are measured from cycle 0 so they match an
        uninterrupted run of the same program.  A snapshot may postdate
        program completion (workers still halting), in which case this
        just drains the remaining events.
        """
        return self._drive(start=0)

    def _drive(self, start: Optional[int] = None) -> int:
        """Run the event loop (with watchdog) until the program completes."""
        machine = self.machine
        if start is None:
            start = machine.sim.now
        watchdog = None
        if self.watchdog_grace is not None:
            watchdog = Watchdog(
                machine.sim,
                progress=lambda: self.progress,
                grace=self.watchdog_grace,
                outstanding=lambda: not self.done,
                diagnose=self.diagnostic,
            )
            watchdog.arm()
        try:
            machine.sim.run()
        finally:
            if watchdog is not None:
                watchdog.cancel()
        if not self.done:
            raise SimulationError("simulation drained without completing the program")
        if self._tracing:
            self.tracer.finish(machine.sim.now)
        return machine.sim.now - start

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def diagnostic(self) -> dict:
        """JSON-able stalled-state dump for DeadlockError / failed grid points.

        Everything here is simulated state (no object identities or host
        timestamps) so the dump is deterministic and pickles across the
        grid's worker processes.
        """
        machine = self.machine
        cores = {}
        for core in machine.cores:
            cores[str(core.core_id)] = {
                "halted": core.halted,
                "uli_enabled": core.uli_enabled,
                "in_handler": core._in_handler,
                "uli_waiting": core._uli_waiting,
                "pending_uli_from": core._pending_uli,
                "breakdown": dict(core.cycle_breakdown()),
            }
        deques = {}
        for tid, dq in enumerate(self.deques):
            deques[str(tid)] = {
                "head": machine.host_read_word(dq.head_addr),
                "tail": machine.host_read_word(dq.tail_addr),
            }
        return {
            "variant": self.variant,
            "deque_kind": self.deque_kind,
            "done": self.done,
            "runtime_stats": {k: v for k, v in self.stats.items()},
            "cores": cores,
            "deques": deques,
        }
