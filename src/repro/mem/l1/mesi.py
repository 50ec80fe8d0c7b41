"""MESI hardware-based coherent L1.

Writer-initiated invalidation, ownership write-back dirty propagation, line
granularity (Table I).  ``cache_invalidate`` and ``cache_flush`` are no-ops:
hardware keeps the cache transparent to software.  AMOs are performed in the
L1 after acquiring M state, like any store.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.mem.address import LINE_MASK, WORD_INDEX_MASK, WORD_SHIFT
from repro.mem.amo import apply_amo
from repro.mem.cacheline import (
    CacheLine,
    EXCLUSIVE,
    MODIFIED,
    SHARED,
)
from repro.mem.l1.base import L1Cache


class MesiL1(L1Cache):
    PROTOCOL = "mesi"
    INVALIDATION = "writer"
    DIRTY_PROPAGATION = "owner-wb"
    WRITE_GRANULARITY = "line"
    TRACKED = True
    AMO_AT_L2 = False
    NEEDS_FLUSH = False
    NEEDS_INVALIDATE = False

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
        data, latency, exclusive = self.l2.fetch_shared(
            self.core_id, addr, now + self.hit_latency, track_sharer=True
        )
        new = CacheLine(addr & LINE_MASK, EXCLUSIVE if exclusive else SHARED, data)
        self._insert(new, now)
        return data[(addr >> WORD_SHIFT) & WORD_INDEX_MASK], self.hit_latency + latency

    def store(self, addr: int, value: int, now: int) -> int:
        base = addr & LINE_MASK
        line = self.tags.lookup(base)
        if line is not None and line.state in (MODIFIED, EXCLUSIVE):
            cnt = self._cnt
            cnt["stores"] += 1
            cnt["store_hits"] += 1
            line.state = MODIFIED
            line.set_word((addr >> WORD_SHIFT) & WORD_INDEX_MASK, value, dirty=True)
            return self.hit_latency
        if line is not None and line.state == SHARED:
            self._cnt["stores"] += 1
            latency = self.l2.upgrade(self.core_id, addr, now + self.hit_latency)
            line.state = MODIFIED
            line.set_word((addr >> WORD_SHIFT) & WORD_INDEX_MASK, value, dirty=True)
            return self._buffered_store_latency(now, latency)
        self._cnt["stores"] += 1
        data, latency = self.l2.fetch_exclusive(self.core_id, addr, now + self.hit_latency)
        new = CacheLine(base, MODIFIED, data)
        new.set_word((addr >> WORD_SHIFT) & WORD_INDEX_MASK, value, dirty=True)
        self._insert(new, now)
        return self._buffered_store_latency(now, latency)

    def amo(self, op: str, addr: int, operand, now: int) -> Tuple[int, int]:
        """RMW in the private cache after acquiring ownership.

        AMOs are fences: they drain the store buffer first.
        """
        self._cnt["amos"] += 1
        drain = self._drain_store_buffer(now)
        now += drain
        base = addr & LINE_MASK
        line = self.tags.lookup(base)
        if line is not None and line.state in (MODIFIED, EXCLUSIVE):
            latency = self.hit_latency
        elif line is not None and line.state == SHARED:
            latency = self.hit_latency + self.l2.upgrade(self.core_id, addr, now)
        else:
            data, fetch_latency = self.l2.fetch_exclusive(self.core_id, addr, now)
            line = CacheLine(base, MODIFIED, data)
            self._insert(line, now)
            latency = self.hit_latency + fetch_latency
        line.state = MODIFIED
        idx = (addr >> WORD_SHIFT) & WORD_INDEX_MASK
        new, old = apply_amo(op, line.data[idx], operand)
        line.set_word(idx, new, dirty=True)
        return old, drain + latency

    # ------------------------------------------------------------------
    # Snoops / eviction
    # ------------------------------------------------------------------
    def snoop_recall(self, base: int) -> Tuple[Optional[List[int]], int, bool]:
        line = self.tags.peek(base & LINE_MASK)
        if line is None:
            return None, 0, False
        dirty = line.dirty_mask if line.state == MODIFIED else 0
        words = list(line.data) if dirty else None
        # Downgrade to S; the directory re-adds us to the sharer list.
        line.state = SHARED
        line.dirty_mask = 0
        self._cnt["recalls"] += 1
        return words, dirty, True

    def _evict_victim(self, victim: CacheLine, now: int) -> None:
        # MODIFIED implies a nonzero dirty mask (every M transition sets a
        # dirty word; repro.verify proves M-with-empty-mask unreachable).
        if victim.state == MODIFIED and victim.dirty_mask:
            self.l2.writeback_line(
                self.core_id, victim.addr, victim.data, victim.dirty_mask,
                now, release_ownership=True,
            )
        else:
            self.l2.eviction_notice(self.core_id, victim.addr)
