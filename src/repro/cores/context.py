"""Thread context: the programming interface of a simulated hardware thread.

Each method returns one architectural op (:mod:`repro.cores.ops`) for the
thread to ``yield``; the core sends the op's result back in.  Thread code
calls its own sub-generators the same way — ``yield`` them, never
delegate to them (PEP 380): the core keeps the call stack, so an op
costs one generator resume however deep the task tree is.  Example::

    def execute(self, ctx):
        n = yield ctx.load(self.addr)
        yield ctx.work(5)
        yield ctx.store(self.addr, n + 1)
        total = yield self.helper(ctx)   # a call: resumes with its return

The context also carries the thread id and a per-thread RNG used by victim
selection, keeping all randomness deterministic per run.
"""

from __future__ import annotations

from typing import Any

from repro.engine.rng import XorShift64
from repro.cores import ops


class ThreadContext:
    """Per-hardware-thread handle passed to runtime and task code."""

    def __init__(self, core, tid: int, n_threads: int, rng: XorShift64):
        self.core = core
        self.tid = tid
        self.n_threads = n_threads
        self.rng = rng

    # ------------------------------------------------------------------
    # Memory operations
    # ------------------------------------------------------------------
    def load(self, addr: int) -> ops.Load:
        return ops.Load(addr)

    def store(self, addr: int, value: Any) -> ops.Store:
        return ops.Store(addr, value)

    def amo(self, op: str, addr: int, operand: Any) -> ops.Amo:
        return ops.Amo(op, addr, operand)

    def cas(self, addr: int, expected: int, desired: int) -> ops.Amo:
        """Compare-and-swap; returns the old value (== expected on success)."""
        return ops.Amo("cas", addr, (expected, desired))

    def amo_add(self, addr: int, delta: int) -> ops.Amo:
        return ops.Amo("add", addr, delta)

    def amo_sub(self, addr: int, delta: int) -> ops.Amo:
        return ops.Amo("sub", addr, delta)

    def amo_or(self, addr: int, bits: int) -> ops.Amo:
        return ops.Amo("or", addr, bits)

    def amo_min(self, addr: int, value: int) -> ops.Amo:
        return ops.Amo("min", addr, value)

    # ------------------------------------------------------------------
    # Compute / waiting
    # ------------------------------------------------------------------
    def work(self, n: int) -> ops.Op:
        return ops.Work(n) if n > 0 else ops.NOP

    def idle(self, n: int) -> ops.Op:
        return ops.Idle(n) if n > 0 else ops.NOP

    # ------------------------------------------------------------------
    # Software coherence instructions
    # ------------------------------------------------------------------
    def cache_invalidate(self) -> ops.InvAll:
        return ops.INV_ALL

    def cache_flush(self) -> ops.FlushAll:
        return ops.FLUSH_ALL

    # ------------------------------------------------------------------
    # User-level interrupts (Direct Task Stealing)
    # ------------------------------------------------------------------
    def uli_send_req(self, victim_tid: int) -> ops.UliSend:
        """Send a steal request; blocks until ACK/NACK. Returns ack bool."""
        return ops.UliSend(victim_tid)

    def uli_enable(self) -> ops.UliEnable:
        return ops.ULI_ENABLE

    def uli_disable(self) -> ops.UliDisable:
        return ops.ULI_DISABLE

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def choose_victim(self) -> int:
        """Uniform random victim other than self (paper: random selection)."""
        return self.rng.choice_excluding(self.n_threads, self.tid)

