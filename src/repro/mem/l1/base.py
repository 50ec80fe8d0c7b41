"""Common machinery for private L1 data caches.

Each protocol subclass declares its taxonomy (Table I of the paper) as class
attributes and implements the five architectural operations the cores issue:
``load``, ``store``, ``amo``, ``invalidate_all`` (the ``cache_invalidate``
instruction) and ``flush_all`` (the ``cache_flush`` instruction), plus the
two L2-facing snoop hooks used by the directory.

Every operation returns its latency in cycles; loads/AMOs also return the
value.  Write-backs triggered by evictions are posted (traffic is recorded,
the requester is not stalled), matching write-buffer behaviour.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Tuple

from repro.engine.stats import StatGroup
from repro.mem.address import LINE_MASK
from repro.mem.cacheline import CacheLine, TagArray
from repro.trace.tracer import NULL_TRACER


class L1Cache:
    """Abstract private L1 data cache."""

    #: Event tracer (repro.trace); replaced per-machine when tracing is on.
    tracer = NULL_TRACER

    #: Fault-injection hook (repro.faults); the machine sets it on its
    #: instances when a plan with forced evictions is active.
    fault_injector = None

    #: Table I taxonomy, overridden per protocol.
    PROTOCOL = "base"
    INVALIDATION = "none"  # "writer" | "reader"
    DIRTY_PROPAGATION = "none"  # "owner-wb" | "noowner-wt" | "noowner-wb"
    WRITE_GRANULARITY = "line"  # "line" | "word"
    #: Tracked caches appear in the L2 sharer list (writer-initiated inval).
    TRACKED = False
    #: Whether AMOs must be performed at the shared L2.
    AMO_AT_L2 = False
    #: Whether cache_flush / cache_invalidate are real operations.
    NEEDS_FLUSH = False
    NEEDS_INVALIDATE = False
    #: Whether a lock release must be an AMO to become globally visible
    #: (true only for no-owner write-back protocols, i.e. GPU-WB).
    LOCK_RELEASE_AMO = False

    #: Fixed cost of a flash invalidate/flush scan trigger.
    FLASH_OP_LATENCY = 4

    #: Store/miss buffer entries: stores retire into a small buffer and the
    #: core stalls only when it is full (all modeled cores have one).
    WRITE_BUFFER_ENTRIES = 8

    def __init__(
        self,
        core_id: int,
        l2,
        stats: StatGroup,
        size_bytes: int,
        assoc: int = 2,
        hit_latency: int = 1,
    ):
        self.core_id = core_id
        self.l2 = l2
        self.hit_latency = hit_latency
        self.tags = TagArray(size_bytes, assoc)
        self.stats = stats.child(f"l1d_{core_id}")
        self.stats.set("size_bytes", size_bytes)
        # Hot-path counters: the raw (in-place mutated) counter dict of the
        # stat group, indexed with literal keys by the protocol hit paths —
        # one dict add per access instead of string formatting + attribute
        # chains (see repro.engine.stats.Counter for the handle variant).
        self._cnt = self.stats._counters
        self._store_buffer: "deque[int]" = deque()
        l2.register_l1(core_id, self)

    # ------------------------------------------------------------------
    # Architectural operations (implemented by subclasses)
    # ------------------------------------------------------------------
    def load(self, addr: int, now: int) -> Tuple[int, int]:
        raise NotImplementedError

    def store(self, addr: int, value: int, now: int) -> int:
        raise NotImplementedError

    def amo(self, op: str, addr: int, operand, now: int) -> Tuple[int, int]:
        raise NotImplementedError

    def invalidate_all(self, now: int) -> int:
        """``cache_invalidate``: drop potentially-stale clean data."""
        return 0  # no-op by default (MESI)

    def flush_all(self, now: int) -> int:
        """``cache_flush``: make dirty data globally visible."""
        return 0  # no-op by default (MESI, DeNovo, GPU-WT)

    # ------------------------------------------------------------------
    # L2-facing snoops
    # ------------------------------------------------------------------
    def snoop_invalidate(self, base: int) -> None:
        """Writer-initiated invalidation from the directory."""
        if self.tags.remove(base & LINE_MASK) is not None:
            self._cnt["snoop_invalidations"] += 1

    def snoop_recall(self, base: int) -> Tuple[Optional[List[int]], int, bool]:
        """Directory recall of an owned line.

        Returns (words, dirty_mask, kept) — ``kept`` says whether a clean
        copy stays resident (downgrade) or the line was dropped.
        """
        return None, 0, False

    def snoop_peek_word(self, base: int, idx: int) -> Optional[int]:
        """Non-demoting directory snoop of a single word.

        Returns the word's current value when this cache holds it dirty
        (fresher than the L2), else None.  No state transition: used by
        ``SharedL2.read_word_bypass`` so mailbox polling cannot strip
        ownership.
        """
        line = self.tags.peek(base & LINE_MASK)
        if line is not None and line.word_dirty(idx):
            return line.data[idx]
        return None

    # ------------------------------------------------------------------
    # Line insertion / eviction
    # ------------------------------------------------------------------
    def _insert(self, line: CacheLine, now: int) -> None:
        """Insert a filled line, evicting through the protocol victim path."""
        victim = self.tags.insert(line)
        if victim is not None:
            self._cnt["evictions"] += 1
            self._evict_victim(victim, now)
        fi = self.fault_injector
        if fi is not None and fi.l1_evict_fires(self.core_id):
            self.force_capacity_eviction(now, exclude=line.addr)

    def _evict_victim(self, victim: CacheLine, now: int) -> None:
        """Protocol-specific victim handling (writeback/notice/silent drop)."""
        raise NotImplementedError

    def force_capacity_eviction(self, now: int, exclude: Optional[int] = None) -> bool:
        """Evict one resident line through the normal victim path.

        Used by fault injection to model external cache pressure.  The
        line named by ``exclude`` (typically one just inserted, which the
        caller is still mutating) is never chosen.  Returns whether a
        victim existed.
        """
        candidates = [ln for ln in self.tags.lines() if ln.addr != exclude]
        if not candidates:
            return False
        if self.fault_injector is not None:
            victim = self.fault_injector.l1_pick_victim(self.core_id, candidates)
        else:
            victim = candidates[0]
        self.tags.remove(victim.addr)
        self._cnt["evictions"] += 1
        self._cnt["forced_evictions"] += 1
        self._evict_victim(victim, now)
        return True

    # ------------------------------------------------------------------
    # Store buffer
    # ------------------------------------------------------------------
    def _buffered_store_latency(self, now: int, miss_latency: int) -> int:
        """Charge a store miss through the store buffer.

        The miss's coherence actions were already applied (state updates are
        synchronous); the core is charged only the buffer-full stall, as in
        real in-order cores with a store/miss buffer.
        """
        buffer = self._store_buffer
        while buffer and buffer[0] <= now:
            buffer.popleft()
        stall = 0
        if len(buffer) >= self.WRITE_BUFFER_ENTRIES:
            stall = max(0, buffer.popleft() - now)
            self._cnt["store_buffer_stall_cycles"] += stall
        buffer.append(now + stall + miss_latency)
        return self.hit_latency + stall

    def _drain_store_buffer(self, now: int) -> int:
        """Fence: stall until all buffered stores have completed."""
        buffer = self._store_buffer
        if not buffer:
            return 0
        last = buffer[-1]
        buffer.clear()
        return max(0, last - now)

    # ------------------------------------------------------------------
    # Checkpoint support (repro.engine.checkpoint)
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Every per-run mutable field except stats (captured with the
        machine's StatGroup tree).  Protocols with extra buffers override
        both methods and extend the dict."""
        return {
            "tags": self.tags.export_state(),
            "store_buffer": list(self._store_buffer),
        }

    def load_state(self, state: dict) -> None:
        self.tags.load_state(state["tags"])
        self._store_buffer = deque(state["store_buffer"])

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _trace_burst(self, kind: str, now: int, lines: int, latency: int) -> None:
        """Record an invalidate/flush burst event (no-op when untraced)."""
        if self.tracer.enabled:
            self.tracer.mem_burst(self.core_id, now, kind, lines, latency)

    def hit_rate(self) -> float:
        """L1-D hit rate over loads + stores (Figure 6 of the paper)."""
        accesses = self.stats.get("loads") + self.stats.get("stores")
        if accesses == 0:
            return 1.0
        hits = self.stats.get("load_hits") + self.stats.get("store_hits")
        return hits / accesses

    def resident(self, addr: int) -> Optional[CacheLine]:
        return self.tags.peek(addr & LINE_MASK)
