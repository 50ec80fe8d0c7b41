"""Architectural operations yielded by simulated threads.

Runtime and application code runs as Python generators that ``yield`` these
operation objects; the owning :class:`repro.cores.core.Core` resolves each
against the memory system / ULI network and resumes the generator with the
result after the operation's latency has elapsed.  A thread may also
``yield`` a sub-generator (a call: the core runs it and resumes the caller
with its return value) or :data:`NOP` (nothing to execute; the core
resumes the thread with ``None`` at once).

This is the simulator's "ISA": plain loads/stores/AMOs, compute work,
the software coherence instructions (``cache_invalidate``/``cache_flush``),
and the ULI primitives from Section IV of the paper.
"""

from __future__ import annotations

from typing import Any


class Op:
    KIND = "op"
    __slots__ = ()

    def __iter__(self):
        # Delegating to an op (PEP 380) is the old calling convention.
        raise TypeError(
            f"{type(self).__name__} is an op and cannot be delegated to: "
            "`yield` it instead"
        )


class Work(Op):
    """``n`` ALU/control instructions (no memory access)."""

    KIND = "work"
    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = n


class Idle(Op):
    """``n`` cycles of idle/spin waiting (not counted as instructions)."""

    KIND = "idle"
    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = n


class Load(Op):
    """Word load; ``bypass`` skips the L1 (sync-class L2 read)."""

    KIND = "load"
    __slots__ = ("addr", "bypass")

    def __init__(self, addr: int, bypass: bool = False):
        self.addr = addr
        self.bypass = bypass


class Store(Op):
    KIND = "store"
    __slots__ = ("addr", "value")

    def __init__(self, addr: int, value: Any):
        self.addr = addr
        self.value = value


class Amo(Op):
    """Atomic read-modify-write; returns the old value."""

    KIND = "amo"
    __slots__ = ("op", "addr", "operand")

    def __init__(self, op: str, addr: int, operand: Any):
        self.op = op
        self.addr = addr
        self.operand = operand


class InvAll(Op):
    """``cache_invalidate``: drop potentially-stale clean data."""

    KIND = "invalidate"
    __slots__ = ()


class FlushAll(Op):
    """``cache_flush``: write back all dirty data."""

    KIND = "flush"
    __slots__ = ()


class UliSend(Op):
    """Send a ULI steal request to ``victim``; resumes with ACK True/False."""

    KIND = "uli_send"
    __slots__ = ("victim",)

    def __init__(self, victim: int):
        self.victim = victim


class UliEnable(Op):
    KIND = "uli_enable"
    __slots__ = ()


class UliDisable(Op):
    KIND = "uli_disable"
    __slots__ = ()


class Nop(Op):
    """Zero-length no-op: ``work(0)``/``idle(0)``.  Never dispatched, no
    cycles, no instructions, not an op boundary."""

    KIND = "nop"
    __slots__ = ()


#: Shared instances of the stateless ops.  These classes carry no fields,
#: so yielding the same object from every call site is safe and saves one
#: allocation per architectural operation on the hot path.
INV_ALL = InvAll()
FLUSH_ALL = FlushAll()
ULI_ENABLE = UliEnable()
ULI_DISABLE = UliDisable()
NOP = Nop()
