"""Core model: executes one hardware thread as a generator coroutine.

Two core flavours, matching the paper's Table II:

* **tiny** — single-issue in-order RV64GC-like core: ``Work(n)`` costs n
  cycles, memory latency is fully exposed.
* **big** — 4-way out-of-order core approximated with two parameters:
  ``issue_width`` divides compute cycles and ``mlp_factor`` scales the
  exposed portion of memory miss latency (modeling overlap from the
  128-entry ROB / 16-entry LSQ).

The core owns the ULI receive logic of Section IV: a one-entry request
buffer, enable/disable state, NACK when disabled/busy/halted, handler entry
latency (a few cycles on tiny cores, tens on big cores — in-flight
instructions must drain), and handler execution as a nested coroutine frame
on top of the interrupted thread.

Hot-path structure
------------------

Executing one architectural operation is the simulator's innermost loop,
so the coroutine machinery is built around a *trampoline*
(:meth:`Core._resume`) that owns each thread's call stack.  Thread code
``yield``s either an op or a sub-generator (a call); it never delegates
(PEP 380).  The trampoline pushes a yielded generator onto the
thread's stack and starts it, and when a frame returns it pops it and
sends the return value to its caller, so every op costs one ``send``
into the innermost frame however deep the task tree is.  (With delegation
CPython re-enters every frame of the chain on each ``send``, ~60 ns per
level on CPython 3.11.)  Each op is dispatched through a per-kind
bound-method table (``_op_*``, each returning ``(result, latency)``), and
then the trampoline takes the simulator's next step itself when it can
(the rule and its proof are in :mod:`repro.engine.simulator`):

* *fuse* — the completion is strictly earlier than every pending event,
  so the clock advances inline and the same thread goes on: no heap
  traffic, no event dispatch;
* *switch* — the queue head is another core's completion, the event the
  run loop would pop next: this core parks its result, pushes its
  preallocated continuation (``_complete_cont``) with ``heapreplace``,
  which pops the head in the same step, and the loop goes on as the other
  core.  On the 64-core machines, where few completions fuse, most
  events run this way;
* otherwise park the result, push the continuation and return to
  ``Simulator.run`` (ULI deliveries, wakes, due daemons and the
  ``max_cycles`` error).

The continuation is ``_resume`` itself, bound to the core, so an event
popped by the run loop costs one call.  ULI handler entry is checked at
exactly the op boundaries where the unfused path would check it (calls,
returns and :data:`~repro.cores.ops.NOP` are not op boundaries), so
fused, switched and unfused runs are cycle- and statistic-identical.

``_resume`` is the only op loop; :func:`advance` states the same
call/return rule for the two drivers off the hot path (checkpoint replay
and the Cilkview analyzer).  The engine profiler (repro.obs.profile)
observes the loop from outside — probed frames around ``frame.send`` and
wrapped ``_dispatch_table`` entries — so profiling adds no code path to
it beyond choosing the frame a call pushes.
"""

from __future__ import annotations

import math
from functools import partial
from heapq import heappush, heapreplace
from types import GeneratorType, MethodType
from typing import Any, Callable, Generator, List, Optional

from repro.cores import ops
from repro.engine.simulator import SimulationError, Simulator
from repro.engine.stats import StatGroup
from repro.trace.tracer import NULL_TRACER

#: Sentinel pushed on the resume stack when a handler interrupts a core
#: that is blocked waiting for its own ULI response (no value to deliver).
_NO_RESULT = object()

#: Default argument of :meth:`Core._resume` when an op-completion event
#: calls it: the value to send is the core's parked ``_pending_result``.
_COMPLETION = object()


def advance(stack: List, value: Any) -> Optional[ops.Op]:
    """Resume the call stack ``stack`` with ``value`` up to its next op.

    The trampoline's rule, for drivers that need no timing: a yielded
    generator is pushed and started, :data:`ops.NOP` resumes its frame
    with ``None``, and a frame that returns is popped and its return value
    sent to its caller.  Returns the first op yielded, or None once the
    bottom frame has returned (``stack`` is then empty).  Values resumed
    into pushed or returned-to frames come from the stack itself, which
    is why checkpoint replay needs only the values sent from outside.
    """
    frame = stack[-1]
    while True:
        try:
            op = frame.send(value)
        except StopIteration as stop:
            stack.pop()
            if not stack:
                return None
            frame = stack[-1]
            value = stop.value
            continue
        value = None
        if type(op) is GeneratorType:
            stack.append(op)
            frame = op
        elif op is not ops.NOP:
            return op


#: Stat categories for the Figure 7 execution-time breakdown.
TIME_CATEGORIES = (
    "compute",
    "load",
    "store",
    "amo",
    "flush",
    "invalidate",
    "uli",
    "idle",
)


class Core:
    """One core tile: coroutine executor + ULI receiver."""

    __slots__ = (
        "core_id",
        "sim",
        "l1",
        "tracer",
        "is_big",
        "issue_width",
        "mlp_factor",
        "uli_network",
        "uli_entry_latency",
        "stats",
        "_stacks",
        "_resume_stack",
        "halted",
        "spinning",
        "uli_enabled",
        "_in_handler",
        "_pending_uli",
        "_uli_waiting",
        "_deferred_uli_resp",
        "_uli_send_time",
        "_handler_entry_time",
        "_wait_handler_cycles",
        "uli_handler_factory",
        "_peers",
        "_pending_result",
        "_complete_cont",
        "_resume_none_cont",
        "_dispatch_table",
        "_cnt",
        "_ckpt_log",
        "_prof",
    )

    #: Op kind -> unbound ``_op_*`` method name; bound per instance into
    #: ``_dispatch_table`` so dispatch is one dict lookup + call.
    _OP_METHODS = {
        "work": "_op_work",
        "idle": "_op_idle",
        "load": "_op_load",
        "store": "_op_store",
        "amo": "_op_amo",
        "invalidate": "_op_invalidate",
        "flush": "_op_flush",
        "uli_enable": "_op_uli_enable",
        "uli_disable": "_op_uli_disable",
        "uli_send": "_op_uli_send",
    }

    def __init__(
        self,
        core_id: int,
        sim: Simulator,
        l1,
        stats: StatGroup,
        is_big: bool = False,
        issue_width: int = 1,
        mlp_factor: float = 1.0,
        uli_network=None,
        uli_entry_latency: int = 5,
        tracer=NULL_TRACER,
    ):
        self.core_id = core_id
        self.sim = sim
        self.l1 = l1
        self.tracer = tracer
        self.is_big = is_big
        self.issue_width = max(1, issue_width)
        self.mlp_factor = mlp_factor
        self.uli_network = uli_network
        self.uli_entry_latency = uli_entry_latency
        self.stats = stats.child(f"core_{core_id}")

        #: One call stack per thread or ULI handler frame, innermost call
        #: last; a handler's stack sits above the thread it interrupted.
        self._stacks: List[List[Generator]] = []
        self._resume_stack: List[Any] = []
        self.halted = True

        #: Scheduler-spin marker, maintained by the runtime: True while the
        #: thread is hunting for work (steal attempts, join polling, worker
        #: idle loops), False inside task bodies and their fixed per-task
        #: bookkeeping.  Spin instruction counts scale with *wait
        #: durations*, so they are timing artifacts, not work.  The
        #: ``instructions_spin`` counter it feeds is part of the stats tree
        #: that pinned results and result digests hash, so it stays.
        self.spinning = False

        # ULI receiver state.
        self.uli_enabled = False
        self._in_handler = False
        self._pending_uli: Optional[int] = None
        self._uli_waiting = False
        self._deferred_uli_resp: Optional[bool] = None
        self._uli_send_time = 0
        self._handler_entry_time = 0
        self._wait_handler_cycles = 0
        #: Set by the runtime: thief_id -> handler generator.
        self.uli_handler_factory: Optional[Callable[[int], Generator]] = None

        #: Wired by :meth:`attach_peers`; an unattached core fails loudly.
        self._peers: Optional[List["Core"]] = None

        # Preallocated continuations: the event queue carries these bound
        # methods instead of a fresh closure per operation.
        self._pending_result: Any = None
        self._complete_cont = self._resume
        self._resume_none_cont = self._resume_none

        # Per-kind dispatch table and the raw counter dict of this core's
        # stat group: op handlers run a few hundred thousand times per
        # simulated millisecond, so they index the (in-place mutated)
        # defaultdict directly instead of going through handle objects.
        self._dispatch_table = {
            kind: getattr(self, name) for kind, name in self._OP_METHODS.items()
        }
        self._cnt = self.stats._counters

        #: Checkpoint send-log (repro.engine.checkpoint): when a Machine
        #: enables checkpointing this is the machine-wide list that records
        #: every value that enters a thread from outside its call stack, so
        #: a snapshot can be restored by replaying the sends into freshly
        #: created coroutines.
        #: None (the default) costs the hot loop one branch per operation.
        self._ckpt_log: Optional[List] = None

        #: Wall-clock profiler (repro.obs.profile.WallProfiler) armed by
        #: EngineProfiler.install, which also wraps ``_dispatch_table``.
        #: Read once per resume and at frame pushes: each new frame,
        #: thread, handler or call, is wrapped in a probed frame.  Simulated
        #: results are identical either way — only host time is observed.
        self._prof = None

    # ------------------------------------------------------------------
    # Thread startup
    # ------------------------------------------------------------------
    def start(self, thread: Generator, delay: int = 0) -> None:
        """Begin executing ``thread`` on this core."""
        if self._stacks:
            raise SimulationError(f"core {self.core_id} already running a thread")
        self._push_frame(thread)
        self.halted = False
        self.sim.schedule(delay, self._resume_none_cont)

    # ------------------------------------------------------------------
    # Coroutine machinery
    # ------------------------------------------------------------------
    def _push_frame(self, frame: Generator) -> None:
        """Start a new call stack for a thread or ULI handler coroutine.

        A profiled core (``_prof`` set) wraps the frame in the profiler's
        probed frame, whose ``send`` is charged to generator code; the
        trampoline does the same for each call it pushes.
        """
        prof = self._prof
        self._stacks.append([frame if prof is None else prof.probe_frame(frame)])

    def _pop_frame(self) -> Any:
        """The top thread or handler frame returned: drop its call stack
        and say how the trampoline goes on.

        Returns the value to resume the uncovered frame with when a
        finished ULI handler hands control back to a runnable thread, else
        ``_NO_RESULT`` — the thread finished (the core halts when no frame
        is left), or it is still blocked on its own ULI response.
        """
        stacks = self._stacks
        stacks.pop()
        if self._in_handler and stacks:
            return self._finish_handler()
        if not stacks:
            self.halted = True
        return _NO_RESULT

    def _bad_yield(self, op: Any) -> SimulationError:
        if isinstance(op, ops.Op):
            return SimulationError(
                f"core {self.core_id}: unknown op kind {op.KIND!r}"
            )
        return SimulationError(
            f"core {self.core_id}: thread yielded {op!r}; expected an op, "
            "a generator (a call) or ops.NOP"
        )

    def _resume_none(self) -> None:
        self._resume(None)

    def _resume(self, value: Any = _COMPLETION) -> None:
        """Drive thread coroutines from one heap event until control goes
        back to the run loop.

        Called without a value this is the core's op-completion event
        (``_complete_cont``): it takes the parked result, or enters a
        pending ULI handler first, since a completion is an op boundary.
        Otherwise ``value`` enters the thread as it is (a wake, a ULI ack).

        Each inner step is one architectural operation: send the previous
        result into the innermost frame, follow calls and returns on the
        thread's call stack to the next yielded op and dispatch it.  Then
        the loop fuses, switches to the core whose completion heads the
        queue, or pushes the continuation and returns (see the module
        docstring; ``repro.engine.simulator`` states the rule and why it
        is exact).  The rule's operands are hoisted to locals: the queue
        lists are mutated in place, and ``_fusible``/``max_cycles`` cannot
        change while a callback runs.
        """
        core = self
        sim = self.sim
        queue = sim._queue
        daemon_queue = sim._daemon_queue
        max_cycles = sim.max_cycles
        fusible = sim._fusible
        generator = GeneratorType
        method = MethodType
        nop = ops.NOP
        fused = switched = 0
        try:
            while True:
                # One pass per core activation: the event that called this
                # method, then each completion it switched to.
                if value is _COMPLETION:
                    value = core._pending_result
                    core._pending_result = None
                    if (
                        core._pending_uli is not None
                        and core.uli_enabled
                        and not core._in_handler
                    ):
                        core._resume_stack.append(value)
                        core._enter_handler()
                        return
                table = core._dispatch_table
                log = core._ckpt_log
                stack = core._stacks[-1]
                frame = stack[-1]
                # The checkpoint log records each value that enters the
                # thread from outside its call stack (op results, ULI acks,
                # the value a thread resumes with after its handler): a
                # complete replay script, since pushes and returns follow
                # from the stack itself.
                if log is not None:
                    log.append((core.core_id, value))
                while True:
                    try:
                        op = frame.send(value)
                    except StopIteration as stop:
                        stack.pop()
                        if stack:
                            # A call returned: resume its caller with the value.
                            frame = stack[-1]
                            value = stop.value
                            continue
                        value = core._pop_frame()
                        if value is _NO_RESULT:
                            return
                        stack = core._stacks[-1]
                        frame = stack[-1]
                        if log is not None:
                            log.append((core.core_id, value))
                        continue
                    if type(op) is generator:
                        # A call: push the callee and start it.
                        prof = core._prof
                        frame = op if prof is None else prof.probe_call(op)
                        stack.append(frame)
                        value = None
                        continue
                    try:
                        fn = table[op.KIND]
                    except (AttributeError, KeyError):
                        if op is nop:
                            value = None
                            continue
                        raise core._bad_yield(op) from None
                    out = fn(op)
                    if out is None:
                        # Asynchronous op (uli_send): resumes via deliver_uli_response.
                        return
                    value, latency = out
                    if core._in_handler:
                        # Victim-side DTS cost (Section VI-C: "<1% of execution time").
                        core._cnt["cycles_uli_handler"] += latency
                    completion = sim.now + latency
                    if fusible:
                        if not queue or queue[0][0] > completion:
                            if completion <= max_cycles and (
                                not daemon_queue or daemon_queue[0][0] > completion
                            ):
                                # Fuse.
                                sim.now = completion
                                fused += 1
                                # Op boundary: the same ULI handler entry
                                # check as a completion event makes.
                                if (
                                    core._pending_uli is not None
                                    and core.uli_enabled
                                    and not core._in_handler
                                ):
                                    core._resume_stack.append(value)
                                    core._enter_handler()
                                    return
                                if log is not None:
                                    log.append((core.core_id, value))
                                continue
                        else:
                            # The head is due no later than this completion
                            # and holds a smaller sequence number: it is the
                            # event the run loop would pop next (and it is
                            # not in the past, so neither is the completion).
                            head_time, _seq, head = queue[0]
                            if (
                                type(head) is method
                                and head.__func__ is _resume_fn
                                and head_time <= max_cycles
                                and (not daemon_queue or daemon_queue[0][0] > head_time)
                            ):
                                # Switch.
                                core._pending_result = value
                                seq = sim._seq
                                sim._seq = seq + 1
                                heapreplace(queue, (completion, seq, core._complete_cont))
                                sim.now = head_time
                                switched += 1
                                core = head.__self__
                                value = _COMPLETION
                                break
                    if latency < 0:
                        raise ValueError(
                            f"cannot schedule in the past ({completion} < {sim.now})"
                        )
                    core._pending_result = value
                    seq = sim._seq
                    sim._seq = seq + 1
                    heappush(queue, (completion, seq, core._complete_cont))
                    return
        finally:
            if fused:
                sim.events_fused += fused
            if switched:
                sim.events_executed += switched

    # ------------------------------------------------------------------
    # Per-kind op execution (bound into _dispatch_table)
    #
    # Each returns (result, latency) — or None when the op completes
    # asynchronously — and records its own instruction/cycle counters in
    # the raw counter dict.  Big cores scale exposed memory latency by
    # ``mlp_factor`` (MLP overlap), written out in each memory op.
    # ------------------------------------------------------------------
    def _op_work(self, op: ops.Work):
        n = op.n
        issue_width = self.issue_width
        latency = n if issue_width == 1 else math.ceil(n / issue_width)
        if latency < 1:
            latency = 1
        cnt = self._cnt
        cnt["instructions"] += n
        if self.spinning:
            cnt["instructions_spin"] += n
        cnt["cycles_compute"] += latency
        return None, latency

    def _op_idle(self, op: ops.Idle):
        latency = max(1, op.n)
        self._cnt["cycles_idle"] += latency
        return None, latency

    def _op_load(self, op: ops.Load):
        now = self.sim.now
        if op.bypass:
            value, latency = self.l1.l2.read_word_bypass(self.core_id, op.addr, now)
        else:
            value, latency = self.l1.load(op.addr, now)
        mlp = self.mlp_factor
        if latency > 1 and mlp < 1.0:
            latency = 1 + max(0, math.ceil((latency - 1) * mlp))
        cnt = self._cnt
        cnt["instructions"] += 1
        if self.spinning:
            cnt["instructions_spin"] += 1
        cnt["ops_load"] += 1
        cnt["cycles_load"] += latency
        return value, latency

    def _op_store(self, op: ops.Store):
        latency = self.l1.store(op.addr, op.value, self.sim.now)
        mlp = self.mlp_factor
        if latency > 1 and mlp < 1.0:
            latency = 1 + max(0, math.ceil((latency - 1) * mlp))
        cnt = self._cnt
        cnt["instructions"] += 1
        if self.spinning:
            cnt["instructions_spin"] += 1
        cnt["ops_store"] += 1
        cnt["cycles_store"] += latency
        return None, latency

    def _op_amo(self, op: ops.Amo):
        old, latency = self.l1.amo(op.op, op.addr, op.operand, self.sim.now)
        mlp = self.mlp_factor
        if latency > 1 and mlp < 1.0:
            latency = 1 + max(0, math.ceil((latency - 1) * mlp))
        cnt = self._cnt
        cnt["instructions"] += 1
        if self.spinning:
            cnt["instructions_spin"] += 1
        cnt["ops_amo"] += 1
        cnt["cycles_amo"] += latency
        return old, latency

    def _op_invalidate(self, op: ops.InvAll):
        latency = max(1, self.l1.invalidate_all(self.sim.now))
        cnt = self._cnt
        cnt["instructions"] += 1
        if self.spinning:
            cnt["instructions_spin"] += 1
        cnt["ops_invalidate"] += 1
        cnt["cycles_invalidate"] += latency
        return None, latency

    def _op_flush(self, op: ops.FlushAll):
        latency = max(1, self.l1.flush_all(self.sim.now))
        cnt = self._cnt
        cnt["instructions"] += 1
        if self.spinning:
            cnt["instructions_spin"] += 1
        cnt["ops_flush"] += 1
        cnt["cycles_flush"] += latency
        return None, latency

    def _op_uli_enable(self, op: ops.UliEnable):
        self.uli_enabled = True
        cnt = self._cnt
        cnt["instructions"] += 1
        if self.spinning:
            cnt["instructions_spin"] += 1
        cnt["cycles_compute"] += 1
        return None, 1

    def _op_uli_disable(self, op: ops.UliDisable):
        self.uli_enabled = False
        cnt = self._cnt
        cnt["instructions"] += 1
        if self.spinning:
            cnt["instructions_spin"] += 1
        cnt["cycles_compute"] += 1
        return None, 1

    def _op_uli_send(self, op: ops.UliSend):
        cnt = self._cnt
        cnt["instructions"] += 1
        if self.spinning:
            cnt["instructions_spin"] += 1
        self._send_uli(op.victim)
        return None

    # ------------------------------------------------------------------
    # ULI sender side
    # ------------------------------------------------------------------
    def _send_uli(self, victim_core_id: int) -> None:
        if self.uli_network is None:
            raise SimulationError("ULI network not configured on this system")
        self._cnt["uli_requests_sent"] += 1
        latency = self.uli_network.send_latency(self.core_id, victim_core_id)
        self._uli_waiting = True
        self._uli_send_time = self.sim.now
        victim = self._peer(victim_core_id)
        # partial (not a closure) so an in-flight request is recognizable
        # and serializable by repro.engine.checkpoint.
        self.sim.schedule(latency, partial(victim.deliver_uli_request, self.core_id))

    def deliver_uli_response(self, ack: bool) -> None:
        """Called (via event) when the victim's ACK/NACK arrives."""
        if self._in_handler:
            # We are servicing someone else's steal; hold our response.
            self._deferred_uli_resp = ack
            return
        self._uli_waiting = False
        cnt = self._cnt
        cnt["uli_acks" if ack else "uli_nacks"] += 1
        # Handler time spent while waiting was already charged per-op;
        # charge only the genuine wait here.
        wait = self.sim.now - self._uli_send_time - self._wait_handler_cycles
        self._wait_handler_cycles = 0
        cnt["cycles_uli"] += max(0, wait)
        self._resume(ack)

    # ------------------------------------------------------------------
    # ULI receiver side
    # ------------------------------------------------------------------
    def deliver_uli_request(self, thief_core_id: int) -> None:
        """A steal request arrived at this core's one-entry buffer."""
        rejectable = (
            not self.uli_enabled
            or self._in_handler
            or self._pending_uli is not None
            or self.halted
            or self.uli_handler_factory is None
        )
        if rejectable:
            self._cnt["uli_rejected"] += 1
            self._respond(thief_core_id, ack=False)
            return
        self._pending_uli = thief_core_id
        if self._uli_waiting:
            # The interrupted thread is blocked on its own ULI response:
            # no op boundary will occur, so take the interrupt immediately.
            self._resume_stack.append(_NO_RESULT)
            self._enter_handler()
        # Otherwise the handler starts at the next op boundary
        # (a completion event, or the fused boundary check in _resume).

    def _enter_handler(self) -> None:
        self._in_handler = True
        self._handler_entry_time = self.sim.now
        if self.tracer.enabled:
            self.tracer.push_state(self.core_id, self.sim.now, "uli-handler")
        thief = self._pending_uli
        cnt = self._cnt
        cnt["uli_handled"] += 1
        cnt["cycles_uli"] += self.uli_entry_latency
        cnt["cycles_uli_handler"] += self.uli_entry_latency
        if self._ckpt_log is not None:
            # Replay marker: a handler frame was pushed for this thief.
            self._ckpt_log.append(("h", self.core_id, thief))
        self._push_frame(self.uli_handler_factory(thief))
        self.sim.schedule(self.uli_entry_latency, self._resume_none_cont)

    def _finish_handler(self) -> Any:
        """Tear down a finished handler frame.

        Returns the value to resume the interrupted thread with, or
        ``_NO_RESULT`` when that thread is still blocked on its own ULI
        response (the caller must not step it).
        """
        thief = self._pending_uli
        self._pending_uli = None
        self._in_handler = False
        if self.tracer.enabled:
            self.tracer.pop_state(self.core_id, self.sim.now)
        self._respond(thief, ack=True)
        saved = self._resume_stack.pop()
        if saved is _NO_RESULT:
            # Back to waiting for our own ULI response; do not bill the
            # handler's cycles as wait time too.
            self._wait_handler_cycles += self.sim.now - self._handler_entry_time
            if self._deferred_uli_resp is not None:
                resp, self._deferred_uli_resp = self._deferred_uli_resp, None
                self.deliver_uli_response(resp)
            return _NO_RESULT
        return saved

    def _respond(self, thief_core_id: int, ack: bool) -> None:
        latency = self.uli_network.send_latency(self.core_id, thief_core_id)
        thief = self._peer(thief_core_id)
        # partial (not a closure) so an in-flight response is recognizable
        # and serializable by repro.engine.checkpoint.
        self.sim.schedule(latency, partial(thief.deliver_uli_response, ack))

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_peers(self, peers: List["Core"]) -> None:
        self._peers = peers

    def _peer(self, core_id: int) -> "Core":
        peers = self._peers
        if peers is None:
            raise SimulationError(
                f"core {self.core_id} is not attached to any peers "
                "(Machine must call attach_peers before ULI traffic)"
            )
        return peers[core_id]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def busy_cycles(self) -> int:
        return sum(
            self.stats.get(f"cycles_{cat}")
            for cat in TIME_CATEGORIES
            if cat != "idle"
        )

    def cycle_breakdown(self) -> dict:
        return {cat: self.stats.get(f"cycles_{cat}") for cat in TIME_CATEGORIES}


#: The function behind every core's ``_complete_cont``: the trampoline
#: switches to a queue head only when it is a bound method of this one.
_resume_fn = Core._resume
