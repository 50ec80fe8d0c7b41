"""GPU-WT software-centric coherent L1: write-through, no write-allocate.

Reader-initiated invalidation, no ownership, word-granularity write-through
(Table I).  Every store updates the shared L2 directly; a store miss does
not refill the cache, so temporal locality in writes is lost — the paper's
Figure 8 shows this as heavy ``wb_req`` traffic.  AMOs must be performed at
the shared cache since private lines have no ownership.

Stores retire through a small write(-through) buffer: the core stalls only
when the buffer is full, which happens under bursts of stores whose L2
round-trips have not drained.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from repro.mem.address import LINE_MASK, WORD_INDEX_MASK, WORD_SHIFT
from repro.mem.cacheline import CacheLine, VALID
from repro.mem.l1.base import L1Cache


class GpuWtL1(L1Cache):
    PROTOCOL = "gpu-wt"
    INVALIDATION = "reader"
    DIRTY_PROPAGATION = "noowner-wt"
    WRITE_GRANULARITY = "word"
    TRACKED = False
    AMO_AT_L2 = True
    NEEDS_FLUSH = False
    NEEDS_INVALIDATE = True

    WRITE_BUFFER_ENTRIES = 8

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._write_buffer: Deque[int] = deque()  # completion times

    def export_state(self) -> dict:
        state = super().export_state()
        state["write_buffer"] = list(self._write_buffer)
        return state

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self._write_buffer = deque(state["write_buffer"])

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def load(self, addr: int, now: int) -> Tuple[int, int]:
        line = self.tags.lookup(addr & LINE_MASK)
        if line is not None:
            cnt = self._cnt
            cnt["loads"] += 1
            cnt["load_hits"] += 1
            return line.data[(addr >> WORD_SHIFT) & WORD_INDEX_MASK], self.hit_latency
        self._cnt["loads"] += 1
        data, latency, _excl = self.l2.fetch_shared(
            self.core_id, addr, now + self.hit_latency, track_sharer=False
        )
        self._insert(CacheLine(addr & LINE_MASK, VALID, data), now)
        return data[(addr >> WORD_SHIFT) & WORD_INDEX_MASK], self.hit_latency + latency

    def store(self, addr: int, value: int, now: int) -> int:
        line = self.tags.lookup(addr & LINE_MASK)
        self._cnt["stores"] += 1
        if line is not None:
            self._cnt["store_hits"] += 1
            # Update-on-hit keeps the local copy coherent with our own writes.
            line.set_word((addr >> WORD_SHIFT) & WORD_INDEX_MASK, value, dirty=False)
        stall = self._write_buffer_stall(now)
        wt_latency = self.l2.write_through_word(
            self.core_id, addr, value, now + stall + self.hit_latency
        )
        self._write_buffer.append(now + stall + self.hit_latency + wt_latency)
        return self.hit_latency + stall

    def amo(self, op: str, addr: int, operand, now: int) -> Tuple[int, int]:
        """AMOs execute at the shared L2 (no ownership in private caches)."""
        self._cnt["amos"] += 1
        drain = self._drain_stall(now)
        old, latency = self.l2.amo_word(self.core_id, addr, op, operand, now + drain)
        line = self.tags.peek(addr & LINE_MASK)
        if line is not None:
            # The response updates the stale local word.
            from repro.mem.amo import apply_amo

            new, _ = apply_amo(op, old, operand)
            line.set_word((addr >> WORD_SHIFT) & WORD_INDEX_MASK, new, dirty=False)
        return old, drain + latency

    # ------------------------------------------------------------------
    # Software coherence operations
    # ------------------------------------------------------------------
    def invalidate_all(self, now: int) -> int:
        """All lines are clean: flash-invalidate everything."""
        self._cnt["invalidate_ops"] += 1
        dropped = self.tags.clear()
        self._cnt["lines_invalidated"] += dropped
        self._trace_burst("invalidate", now, dropped, self.FLASH_OP_LATENCY)
        return self.FLASH_OP_LATENCY

    # flush_all inherited: no-op (every write is already through).

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _write_buffer_stall(self, now: int) -> int:
        """Retire completed entries; stall if the buffer is full."""
        buffer = self._write_buffer
        while buffer and buffer[0] <= now:
            buffer.popleft()
        if len(buffer) < self.WRITE_BUFFER_ENTRIES:
            return 0
        stall = buffer[0] - now
        buffer.popleft()
        self._cnt["write_buffer_stall_cycles"] += stall
        return stall

    def _drain_stall(self, now: int) -> int:
        """AMOs are ordered behind prior write-throughs (fence semantics)."""
        if not self._write_buffer:
            return 0
        last = self._write_buffer[-1]
        self._write_buffer.clear()
        return max(0, last - now)

    def _evict_victim(self, victim: CacheLine, now: int) -> None:
        # All resident lines are clean; evictions are silent.
        pass
