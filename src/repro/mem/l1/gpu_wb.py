"""GPU-WB software-centric coherent L1: write-back with per-word dirty bits.

Reader-initiated invalidation, no ownership, word-granularity write-back
(Table I).  Stores write-allocate *without fetching* (only the written word
becomes valid+dirty), so write temporal locality is exploited; the cost is
that ``cache_flush`` is a real operation — every dirty word must be written
back to the shared L2 before other threads can see it, and the paper's
Figure 8 shows the resulting wb_req traffic that Direct Task Stealing then
eliminates.  AMOs execute at the shared L2.

``cache_invalidate`` invalidates *clean* data only: dirty words this core
wrote cannot be stale and must survive until the next flush.
"""

from __future__ import annotations

from typing import Tuple

from repro.mem.address import LINE_MASK, WORD_INDEX_MASK, WORD_SHIFT
from repro.mem.amo import apply_amo
from repro.mem.cacheline import CacheLine, FULL_MASK, VALID
from repro.mem.l1.base import L1Cache


class GpuWbL1(L1Cache):
    PROTOCOL = "gpu-wb"
    INVALIDATION = "reader"
    DIRTY_PROPAGATION = "noowner-wb"
    WRITE_GRANULARITY = "word"
    TRACKED = False
    AMO_AT_L2 = True
    NEEDS_FLUSH = True
    NEEDS_INVALIDATE = True
    LOCK_RELEASE_AMO = True

    #: Per-line cost of a flush (serialization through the L1 port and the
    #: NoC injection link; calibrated against the paper's HCC-gwb vs MESI
    #: gap at our scaled inputs).
    FLUSH_PER_LINE_CYCLES = 6

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def load(self, addr: int, now: int) -> Tuple[int, int]:
        base = addr & LINE_MASK
        idx = (addr >> WORD_SHIFT) & WORD_INDEX_MASK
        line = self.tags.lookup(base)
        if line is not None and line.valid_mask & (1 << idx):
            cnt = self._cnt
            cnt["loads"] += 1
            cnt["load_hits"] += 1
            return line.data[idx], self.hit_latency
        self._cnt["loads"] += 1
        data, latency, _excl = self.l2.fetch_shared(
            self.core_id, addr, now + self.hit_latency, track_sharer=False
        )
        if line is not None:
            # Merge the fill under the dirty mask: our writes win.
            for i in range(len(data)):
                if not line.word_dirty(i):
                    line.data[i] = data[i]
            line.valid_mask = FULL_MASK
        else:
            line = CacheLine(base, VALID, data)
            self._insert(line, now)
        return line.data[idx], self.hit_latency + latency

    def store(self, addr: int, value: int, now: int) -> int:
        base = addr & LINE_MASK
        line = self.tags.lookup(base)
        if line is not None:
            cnt = self._cnt
            cnt["stores"] += 1
            cnt["store_hits"] += 1
            line.set_word((addr >> WORD_SHIFT) & WORD_INDEX_MASK, value, dirty=True)
            return self.hit_latency
        # Write-allocate without fetch: only the stored word is valid.
        self._cnt["stores"] += 1
        line = CacheLine(base, VALID)
        line.valid_mask = 0
        line.set_word((addr >> WORD_SHIFT) & WORD_INDEX_MASK, value, dirty=True)
        self._insert(line, now)
        return self.hit_latency

    def amo(self, op: str, addr: int, operand, now: int) -> Tuple[int, int]:
        """AMOs execute at the shared L2 (no ownership in private caches).

        A dirty local copy of the target word must be flushed first so the
        L2 sees this core's latest value (fence-before-atomic).
        """
        self._cnt["amos"] += 1
        base = addr & LINE_MASK
        idx = (addr >> WORD_SHIFT) & WORD_INDEX_MASK
        extra = 0
        line = self.tags.peek(base)
        if line is not None and line.word_dirty(idx):
            extra = self.l2.writeback_line(
                self.core_id, base, line.data, 1 << idx, now, release_ownership=False
            )
            line.dirty_mask &= ~(1 << idx)
        old, latency = self.l2.amo_word(self.core_id, addr, op, operand, now + extra)
        if line is not None:
            new, _ = apply_amo(op, old, operand)
            line.set_word(idx, new, dirty=False)
        return old, extra + latency

    # ------------------------------------------------------------------
    # Software coherence operations
    # ------------------------------------------------------------------
    def invalidate_all(self, now: int) -> int:
        """Invalidate clean words everywhere; dirty words survive."""
        self._cnt["invalidate_ops"] += 1
        dropped = 0
        for line in self.tags.lines():
            if line.dirty_mask == 0:
                self.tags.remove(line.addr)
                dropped += 1
            elif line.valid_mask != line.dirty_mask:
                line.valid_mask = line.dirty_mask
                dropped += 1
        self._cnt["lines_invalidated"] += dropped
        self._trace_burst("invalidate", now, dropped, self.FLASH_OP_LATENCY)
        return self.FLASH_OP_LATENCY

    def flush_all(self, now: int) -> int:
        """Write every dirty word back to the shared L2 (pipelined)."""
        self._cnt["flush_ops"] += 1
        flushed = 0
        worst_injection = 0
        for line in self.tags.lines():
            if line.dirty_mask == 0:
                continue
            injection = self.l2.writeback_line(
                self.core_id, line.addr, line.data, line.dirty_mask,
                now, release_ownership=False,
            )
            worst_injection = max(worst_injection, injection)
            line.dirty_mask = 0
            flushed += 1
        self._cnt["lines_flushed"] += flushed
        latency = (
            self.FLASH_OP_LATENCY + worst_injection
            + self.FLUSH_PER_LINE_CYCLES * flushed
        )
        self._trace_burst("flush", now, flushed, latency)
        return latency

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def _evict_victim(self, victim: CacheLine, now: int) -> None:
        if victim.dirty_mask:
            self.l2.writeback_line(
                self.core_id, victim.addr, victim.data, victim.dirty_mask,
                now, release_ownership=False,
            )
