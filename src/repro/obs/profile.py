"""Engine self-profiling: wall-clock attribution for the hot loop.

"The simulator is slow" is not actionable; "38% of wall time is inside
``frame.send`` and 22% inside the L2 directory" is.  This module measures
where *host* wall-clock time goes during a simulation, per architectural
op kind and per component:

=====================  ====================================================
label                  what it covers
=====================  ====================================================
``runtime.coroutine``  ``frame.send`` — app/runtime generator code between
                       yields (the paper's "software" side); one call per
                       resumption of a thread from outside its call stack
``op.<kind>``          the ``_op_*`` dispatch body for each op kind,
                       exclusive of the memory system underneath
``mem.l1``             L1 load/store/AMO/flush/invalidate, exclusive of L2
``mem.l2``             shared-L2 directory + bank operations, exclusive of
                       DRAM
``mem.dram``           DRAM controller accesses
``noc.uli``            ULI network latency computation
``trace.tracer``       tracer emission (only when a real tracer is wired)
``sanitize.walk``      coherence-sanitizer walks
``engine.loop``        everything not measured directly: heap push/pop,
                       event dispatch, the fusion test, Python interpreter
                       overhead between probes (computed as residual)
=====================  ====================================================

Attribution is **exclusive**: :class:`WallProfiler` keeps an enter/exit
stack and charges elapsed time to the label on top, so nested probes
(``op.load`` → ``mem.l1`` → ``mem.l2`` → ``mem.dram``) split one op's wall
time across the layers that actually spent it.

Probes sit outside the code they measure.  :meth:`EngineProfiler.install`
wraps each core's op dispatch table entries and the memory/NoC/tracer/
sanitizer entry points as instance attributes, and arms ``Core._prof`` so
the core wraps every frame it pushes — thread, ULI handler or call — in a
:class:`ProbedFrame`.  ``Core._resume`` itself has no profiling branch
beyond choosing the frame it pushes.

Cost model: profiling is **off by default**.  A bare run pays one
``is not None`` test per frame push, nothing per op.  When on, every op
pays a few ``perf_counter`` calls and two wrapper calls; simulated
results are bit-identical either way, only host time changes
(``tests/test_determinism.py`` asserts this, and that the
``runtime.coroutine`` and ``op.<kind>`` call counts are exact: one
``runtime.coroutine`` per checkpoint-logged send, one ``op.<kind>`` per
executed op).

``bench/run.py --trace`` drives it over the benchmark's workloads and
reports each layer's share of wall time, with the residual as
``engine.share``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from types import GeneratorType
from typing import Dict, List

from repro.cores.ops import NOP

#: The label of the residual: wall time no probe measured directly.
RESIDUAL_LABEL = "engine.loop"


class WallProfiler:
    """Exclusive wall-time attribution via an enter/exit label stack.

    ``enter(label)`` charges the elapsed slice to the current top-of-stack
    label and pushes ``label``; ``exit()`` charges and pops.  Labels nest
    arbitrarily; the sum over ``seconds`` equals the wall time spent
    between the outermost enter and exit (minus probe overhead, which ends
    up in the enclosing label).
    """

    __slots__ = ("seconds", "calls", "_stack")

    def __init__(self):
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: [label, timestamp-of-last-charge] pairs (lists: slot 1 mutates).
        self._stack: List[list] = []

    def enter(self, label: str, count: bool = True) -> None:
        now = time.perf_counter()
        stack = self._stack
        if stack:
            top = stack[-1]
            self.seconds[top[0]] += now - top[1]
        stack.append([label, now])
        if count:
            self.calls[label] += 1

    def exit(self) -> None:
        now = time.perf_counter()
        label, since = self._stack.pop()
        self.seconds[label] += now - since
        if self._stack:
            self._stack[-1][1] = now

    def probe_frame(self, frame) -> "ProbedFrame":
        """Wrap a thread or ULI handler frame (``Core._push_frame``)."""
        return ProbedFrame(self, frame, True)

    def probe_call(self, frame) -> "ProbedFrame":
        """Wrap a frame a thread called (pushed by ``Core._resume``)."""
        return ProbedFrame(self, frame, False)

    def wrap(self, obj, method_names, label: str) -> None:
        """Instance-level wrap of bound methods, charging ``label``."""
        for name in method_names:
            fn = getattr(obj, name)
            setattr(obj, name, _probe(self, label, fn))


def _probe(prof: WallProfiler, label: str, fn):
    def probed(*args, **kwargs):
        prof.enter(label)
        try:
            return fn(*args, **kwargs)
        finally:
            prof.exit()

    return probed


class ProbedFrame:
    """A coroutine frame whose ``send`` charges ``runtime.coroutine`` — the
    app/runtime generator code between yields.  ``StopIteration`` passes
    through, so the core's trampoline drives it exactly like the bare
    generator.

    Every send is timed, but only the sends the checkpoint log records
    count as calls: the first send into a thread or handler frame, and a
    send after the frame yielded a real op (its result).  Starting a
    called frame, handing a frame its callee's return value and resuming
    past ``NOP`` are the call stack's own bookkeeping, so the call count
    stays one per resumption from outside, however deep the stack.
    """

    __slots__ = ("prof", "gen", "logged")

    def __init__(self, prof: WallProfiler, gen, logged: bool):
        self.prof = prof
        self.gen = gen
        #: Whether the next send is one the checkpoint log records.
        self.logged = logged

    def send(self, value):
        prof = self.prof
        prof.enter("runtime.coroutine", self.logged)
        try:
            out = self.gen.send(value)
        finally:
            prof.exit()
        self.logged = type(out) is not GeneratorType and out is not NOP
        return out


#: Methods wrapped per component.  These are the complete call surface the
#: cores use; anything else (snoop paths) is invoked from within these and
#: lands in the right bucket via nesting.
_L1_METHODS = ("load", "store", "amo", "invalidate_all", "flush_all")
_L2_METHODS = (
    "fetch_shared",
    "fetch_exclusive",
    "upgrade",
    "writeback_line",
    "write_through_word",
    "amo_word",
    "read_word_bypass",
    "eviction_notice",
)
_DRAM_METHODS = ("access",)
_ULI_METHODS = ("send_latency",)
_TRACER_METHODS = ("core_state", "push_state", "pop_state", "counter_sample")
_SANITIZER_METHODS = ("check_now",)


class EngineProfiler:
    """Wires a :class:`WallProfiler` into one machine's hot paths.

    ``install`` wraps each core's op dispatch table entries (``op.<kind>``)
    and the memory/NoC/tracer/sanitizer entry points as instance
    attributes, and arms ``core._prof`` so frames pushed from then on are
    probed — install before the run starts.  The classes themselves are
    untouched, so a profiled machine coexists with bare machines in one
    process.
    """

    def __init__(self):
        self.wall = WallProfiler()
        #: Host seconds for the whole run (set by the driver around
        #: ``runtime.run``); the residual is measured against this.
        self.total_wall = 0.0

    def install(self, machine) -> "EngineProfiler":
        prof = self.wall
        for core in machine.cores:
            core._prof = prof
            table = core._dispatch_table
            for kind, fn in table.items():
                table[kind] = _probe(prof, f"op.{kind}", fn)
        for l1 in machine.l1s:
            prof.wrap(l1, _L1_METHODS, "mem.l1")
        prof.wrap(machine.l2, _L2_METHODS, "mem.l2")
        for dram in machine.l2.dram:
            prof.wrap(dram, _DRAM_METHODS, "mem.dram")
        if machine.uli_network is not None:
            prof.wrap(machine.uli_network, _ULI_METHODS, "noc.uli")
        if machine.tracer is not None and getattr(machine.tracer, "enabled", False):
            prof.wrap(machine.tracer, _TRACER_METHODS, "trace.tracer")
        if machine.sanitizer is not None:
            prof.wrap(machine.sanitizer, _SANITIZER_METHODS, "sanitize.walk")
        return self
