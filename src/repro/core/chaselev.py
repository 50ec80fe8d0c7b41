"""Chase-Lev lock-free work-stealing deque (extension).

The paper's baseline runtime uses per-deque spin locks (Figure 3); its
related-work section cites Chase & Lev's lock-free deque [SPAA'05] as the
standard way to cut task-queue synchronization cost on hardware-coherent
machines.  This module implements that deque over simulated memory so the
repository can ablate lock-based vs lock-free queues (``deque_kind``
option of :class:`repro.core.runtime.WorkStealingRuntime`).

Algorithm (single owner, many thieves):

* ``push``  (owner):  store task at ``tail``; increment ``tail``.
* ``take``  (owner):  decrement ``tail``; fence; read ``head``; if the
  deque looks empty, restore ``tail`` and CAS ``head`` for the last item;
  otherwise return the tail item.
* ``steal`` (thief):  read ``head``/``tail``; read the item; CAS ``head``
  to claim it.

On hardware-coherent machines this avoids locks entirely.  On HCC it is
only safe if every control-variable access is an AMO (so it is performed
at a coherence point); plain loads of ``head``/``tail`` can be stale under
reader-initiated protocols.  We therefore issue all control accesses as
AMOs (``amo_or(x, 0)`` reads), which models exactly why the paper's
Section III runtime keeps the simpler lock: lock-free deques trade one
lock round trip for several mandatory AMO round trips on HCC.
"""

from __future__ import annotations

from repro.engine.simulator import SimulationError
from repro.mem.address import WORD_BYTES


class ChaseLevDeque:
    """Lock-free deque in simulated memory (owner take / thief steal)."""

    def __init__(self, machine, owner_tid: int, capacity: int = 4096):
        self.owner_tid = owner_tid
        self.capacity = capacity
        # Fault-injection hook (repro.faults): steal-abort storms.  Only
        # steal() consults it — take() must never abort, because losing
        # the owner's pop of the last task would deadlock the runtime.
        self.fault_injector = getattr(machine, "fault_injector", None)
        base = machine.address_space.alloc_words(2 + capacity, f"cldeque_{owner_tid}")
        self.head_addr = base
        self.tail_addr = base + WORD_BYTES
        self._slots = base + 2 * WORD_BYTES

    def _slot_addr(self, index: int) -> int:
        return self._slots + (index % self.capacity) * WORD_BYTES

    # ------------------------------------------------------------------
    # Owner operations
    # ------------------------------------------------------------------
    def push(self, ctx, task_id: int):
        """Owner-side enqueue at the tail."""
        tail = yield ctx.amo_or(self.tail_addr, 0)
        head = yield ctx.amo_or(self.head_addr, 0)
        if tail - head >= self.capacity:
            raise SimulationError(
                f"chase-lev deque {self.owner_tid} overflow (capacity {self.capacity})"
            )
        yield ctx.store(self._slot_addr(tail), task_id)
        if ctx.core.l1.NEEDS_FLUSH:
            # The slot write must be visible before the tail publication.
            yield ctx.cache_flush()
        yield ctx.amo("xchg", self.tail_addr, tail + 1)

    def take(self, ctx):
        """Owner-side LIFO dequeue from the tail; 0 when empty."""
        tail = yield ctx.amo_sub(self.tail_addr, 1)
        tail -= 1  # amo_sub returned the pre-decrement value
        head = yield ctx.amo_or(self.head_addr, 0)
        if head > tail:
            # Empty: undo the decrement.
            yield ctx.amo("xchg", self.tail_addr, head)
            return 0
        task_id = yield ctx.load(self._slot_addr(tail))
        if head != tail:
            return task_id
        # Last element: race with thieves via CAS on head.
        old = yield ctx.cas(self.head_addr, head, head + 1)
        yield ctx.amo("xchg", self.tail_addr, head + 1)
        if old == head:
            return task_id
        return 0

    # ------------------------------------------------------------------
    # Thief operation
    # ------------------------------------------------------------------
    def steal(self, ctx):
        """Thief-side FIFO steal from the head; 0 when empty or lost race."""
        head = yield ctx.amo_or(self.head_addr, 0)
        tail = yield ctx.amo_or(self.tail_addr, 0)
        if head >= tail:
            return 0
        if self.fault_injector is not None and self.fault_injector.steal_aborts(
            ctx.tid
        ):
            # Adversarial abort before the claiming CAS: indistinguishable
            # from losing the race, so the task stays stealable.
            return 0
        if ctx.core.l1.NEEDS_INVALIDATE:
            # The slot may be stale in our private cache.
            yield ctx.cache_invalidate()
        task_id = yield ctx.load(self._slot_addr(head))
        old = yield ctx.cas(self.head_addr, head, head + 1)
        if old == head:
            return task_id
        return 0
