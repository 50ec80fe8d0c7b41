"""Shared banked L2 cache with an embedded heterogeneous directory.

This is the HCC integration point, modeled after Spandex [Alsop et al.,
ISCA'18] as the paper describes: the L2 accepts request types from all four
L1 protocols (MESI GetS/GetM/PutM, DeNovo registrations and ownership
write-backs, GPU write-throughs, word flushes, and AMOs performed at the
shared cache) and keeps per-line directory state:

* ``sharers`` — the set of MESI L1s holding the line (precise sharer list,
  writer-initiated invalidation on any write by anyone else);
* ``owner``   — the single L1 (MESI M/E or DeNovo Registered) holding the
  up-to-date dirty/exclusive copy, recalled on demand.

GPU-WT/GPU-WB L1s are never tracked: they self-invalidate (reader-initiated)
and propagate dirty data with write-throughs/flushes, which is exactly what
makes them cheap.

The L2 is inclusive of tracked (MESI/DeNovo-owned) lines: evicting such an
L2 line first recalls/invalidates the L1 copies.

Latency accounting: each operation computes its end-to-end latency
analytically — requester->bank mesh hops, bank queue delay (busy-until
model), L2 tag/data access, optional DRAM fetch through the bank's memory
controller, optional owner recall / sharer invalidation round trips, and the
response hops back.  The core<->bank geometry is fixed, so hop counts, head
latencies and coherence round trips are tabulated per (core, bank) when the
L2 is built; fault-injected NoC jitter is drawn per message on top of them.
Traffic is recorded per the paper's Figure 8 message categories.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.engine.stats import StatGroup
from repro.mem.address import LINE_MASK, LINE_SHIFT, WORD_INDEX_MASK, WORD_SHIFT
from repro.mem.amo import apply_amo
from repro.mem.backing import MainMemory
from repro.mem.cacheline import SET_BITS, CacheLine, TagArray, VALID
from repro.mem.dram import DramController
from repro.mem.traffic import (
    AMO_BYTES,
    CTRL_BYTES,
    LINE_DATA_BYTES,
    WORD_DATA_BYTES,
    TrafficMeter,
)
from repro.noc.mesh import Mesh


class _Bank:
    """One L2 bank: a busy-until FIFO server plus its tag array.

    A request arriving at cycle ``a`` starts at ``max(a, busy_until)`` and
    holds the bank for ``service_time`` cycles; the L2 writes this out at
    each request site.
    """

    __slots__ = ("bank_id", "tags", "busy_until")

    def __init__(self, bank_id: int, size_bytes: int, assoc: int):
        self.bank_id = bank_id
        self.tags = TagArray(size_bytes, assoc)
        self.busy_until = 0


class SharedL2:
    """Shared, banked, directory-embedded L2 supporting HCC."""

    def __init__(
        self,
        mesh: Mesh,
        memory: MainMemory,
        traffic: TrafficMeter,
        stats: StatGroup,
        n_banks: int,
        bank_size_bytes: int,
        assoc: int = 8,
        tag_latency: int = 6,
        service_time: int = 2,
        dram_controllers: Optional[List[DramController]] = None,
    ):
        self.mesh = mesh
        self.memory = memory
        self.traffic = traffic
        self.stats = stats.child("l2")
        self._cnt = self.stats._counters
        self.n_banks = n_banks
        self.tag_latency = tag_latency
        self.service_time = service_time
        self.banks = [_Bank(b, bank_size_bytes, assoc) for b in range(n_banks)]
        if dram_controllers is None:
            dram_controllers = [DramController(b, stats) for b in range(n_banks)]
        if len(dram_controllers) != n_banks:
            raise ValueError("need one DRAM controller per L2 bank")
        self.dram = dram_controllers
        self._l1s: Dict[int, "object"] = {}
        # Route tables, indexed [core_id][bank_id] over every mesh tile: XY
        # hop count, head-flit latency, and the coherence round trip (probe
        # out, ack back, one cycle at the L1).  ``_body[n]`` is the body-flit
        # serialization of an n-byte message (at most a command + full line).
        bank_pos = [mesh.bank_position(b, n_banks) for b in range(n_banks)]
        self._hops = [
            [mesh.hops(mesh.core_position(core), pos) for pos in bank_pos]
            for core in range(mesh.rows * mesh.cols)
        ]
        self._head = [[mesh.head_latency(h) for h in row] for row in self._hops]
        self._round_trip = [[2 * head + 1 for head in row] for row in self._head]
        self._body = [mesh.body_flits(n) for n in range(LINE_DATA_BYTES + 1)]

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def register_l1(self, core_id: int, l1) -> None:
        self._l1s[core_id] = l1

    # ------------------------------------------------------------------
    # Checkpoint support (repro.engine.checkpoint)
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Per-bank tag arrays (directory state travels inside the packed
        lines as ``sharers``/``owner``) and busy-until queue clocks."""
        return {
            "banks": [
                {"tags": bank.tags.export_state(), "busy_until": bank.busy_until}
                for bank in self.banks
            ],
        }

    def load_state(self, state: dict) -> None:
        for bank, bank_state in zip(self.banks, state["banks"]):
            bank.tags.load_state(bank_state["tags"])
            bank.busy_until = bank_state["busy_until"]

    def bank_of(self, address: int) -> int:
        return (address >> LINE_SHIFT) % self.n_banks

    # ------------------------------------------------------------------
    # Internal machinery
    #
    # Per-message costs are written out where they are paid: a route is
    # ``_head[core][bank] + _body[n_bytes]`` plus one ``noc_extra()`` jitter
    # draw when a fault plan is active (as ``Mesh.latency``), a bank queue
    # is its busy-until clock, and traffic goes straight into the meter's
    # per-category dicts (as ``TrafficMeter.record``).  Every message
    # makes its one draw in message order (request, then response), which
    # fault-injected runs depend on to be reproducible.
    # ------------------------------------------------------------------
    def _ensure_line(self, bank: _Bank, base: int, now: int) -> Tuple[CacheLine, int]:
        """Make ``base`` resident in ``bank``; return (entry, extra_latency)."""
        entry = bank.tags.lookup(base)
        if entry is not None:
            return entry, 0
        # L2 miss: fetch from DRAM through this bank's controller.
        self._cnt["misses"] += 1
        dram = self.dram[bank.bank_id % len(self.dram)]
        latency = dram.access(now, LINE_DATA_BYTES)
        self.traffic.record("dram_req", CTRL_BYTES, 1)
        self.traffic.record("dram_resp", LINE_DATA_BYTES, 1)
        entry = CacheLine(base, VALID, self.memory.read_line(base))
        victim = bank.tags.insert(entry)
        if victim is not None:
            latency += self._evict_l2_line(bank, victim, now + latency)
        return entry, latency

    def _evict_l2_line(self, bank: _Bank, victim: CacheLine, now: int) -> int:
        """Evict an L2 line: recall/invalidate L1 copies, write back dirty data."""
        latency = 0
        self._cnt["evictions"] += 1
        if victim.owner is not None:
            latency += self._recall_owner(bank, victim, now)
        if victim.sharers:
            latency += self._invalidate_sharers(bank, victim, now, except_core=None)
        if victim.dirty_mask:
            self.memory.write_words(victim.addr, victim.data, victim.dirty_mask)
            dram = self.dram[bank.bank_id % len(self.dram)]
            latency += dram.access(now + latency, LINE_DATA_BYTES)
            self.traffic.record("dram_req", LINE_DATA_BYTES, 1)
        # Clean victims are dropped: their words match DRAM by construction
        # (every L2 data mutation sets dirty_mask; repro.verify proves the
        # invariant), so writing them back would be untracked DRAM traffic.
        return latency

    def _recall_owner(self, bank: _Bank, entry: CacheLine, now: int) -> int:
        """Pull the up-to-date copy from the owning L1 and merge it."""
        owner = entry.owner
        if owner is None:
            return 0
        l1 = self._l1s[owner]
        words, mask, kept = l1.snoop_recall(entry.addr)
        if mask:
            data = entry.data
            for i in SET_BITS[mask]:
                data[i] = words[i]
            entry.dirty_mask |= mask
        entry.owner = None
        if kept and l1.TRACKED:
            # MESI owner downgraded to S: it stays on the sharer list.
            entry.sharers.add(owner)
        bank_id = bank.bank_id
        hops = self._hops[owner][bank_id]
        resp_bytes = LINE_DATA_BYTES if mask else CTRL_BYTES
        traffic = self.traffic
        traffic.bytes["coh_req"] += CTRL_BYTES
        traffic.byte_hops["coh_req"] += CTRL_BYTES * hops
        traffic.messages["coh_req"] += 1
        traffic.bytes["coh_resp"] += resp_bytes
        traffic.byte_hops["coh_resp"] += resp_bytes * hops
        traffic.messages["coh_resp"] += 1
        self._cnt["owner_recalls"] += 1
        return self._round_trip[owner][bank_id]

    def _invalidate_sharers(
        self, bank: _Bank, entry: CacheLine, now: int, except_core: Optional[int]
    ) -> int:
        """Writer-initiated invalidation of all MESI sharers (parallel).

        Callers skip the call when ``entry.sharers`` is empty.
        """
        worst = 0
        count = 0
        total_hops = 0
        bank_id = bank.bank_id
        for sharer in sorted(entry.sharers):
            if sharer == except_core:
                continue
            self._l1s[sharer].snoop_invalidate(entry.addr)
            total_hops += self._hops[sharer][bank_id]
            round_trip = self._round_trip[sharer][bank_id]
            if round_trip > worst:
                worst = round_trip
            count += 1
        if count:
            # One invalidation out and one ack back per sharer.
            traffic = self.traffic
            n_bytes = CTRL_BYTES * count
            byte_hops = CTRL_BYTES * total_hops
            traffic.bytes["coh_req"] += n_bytes
            traffic.bytes["coh_resp"] += n_bytes
            traffic.byte_hops["coh_req"] += byte_hops
            traffic.byte_hops["coh_resp"] += byte_hops
            traffic.messages["coh_req"] += count
            traffic.messages["coh_resp"] += count
            self._cnt["sharer_invalidations"] += count
        entry.sharers = {except_core} if except_core in entry.sharers else set()
        return worst

    def _request_overhead(
        self, core_id: int, bank: _Bank, now: int, req_bytes: int, req_cat: str
    ) -> int:
        """Requester->bank hops + queue + tag access; records request traffic."""
        bank_id = bank.bank_id
        req_latency = self._head[core_id][bank_id] + self._body[req_bytes]
        injector = self.mesh.fault_injector
        if injector is not None:
            req_latency += injector.noc_extra()
        traffic = self.traffic
        traffic.bytes[req_cat] += req_bytes
        traffic.byte_hops[req_cat] += req_bytes * self._hops[core_id][bank_id]
        traffic.messages[req_cat] += 1
        arrival = now + req_latency
        start = bank.busy_until
        if start < arrival:
            start = arrival
        bank.busy_until = start + self.service_time
        self._cnt["accesses"] += 1
        return start - now + self.tag_latency

    def _response_latency(self, core_id: int, bank: _Bank, resp_bytes: int, resp_cat: str) -> int:
        bank_id = bank.bank_id
        traffic = self.traffic
        traffic.bytes[resp_cat] += resp_bytes
        traffic.byte_hops[resp_cat] += resp_bytes * self._hops[core_id][bank_id]
        traffic.messages[resp_cat] += 1
        latency = self._head[core_id][bank_id] + self._body[resp_bytes]
        injector = self.mesh.fault_injector
        if injector is not None:
            latency += injector.noc_extra()
        return latency

    # ------------------------------------------------------------------
    # Requests from L1 caches
    # ------------------------------------------------------------------
    def fetch_shared(
        self, core_id: int, address: int, now: int, track_sharer: bool
    ) -> Tuple[List[int], int, bool]:
        """Read a line (MESI GetS when ``track_sharer``; DeNovo/GPU load fill).

        Returns (line data copy, latency, exclusive) where ``exclusive`` is
        True when no other cache holds the line (MESI E-state grant).
        """
        base = address & LINE_MASK
        bank = self.banks[(base >> LINE_SHIFT) % self.n_banks]
        latency = self._request_overhead(core_id, bank, now, CTRL_BYTES, "cpu_req")
        entry, miss_latency = self._ensure_line(bank, base, now + latency)
        latency += miss_latency
        if entry.owner is not None and entry.owner != core_id:
            latency += self._recall_owner(bank, entry, now + latency)
        exclusive = False
        if track_sharer:
            others = entry.sharers - {core_id}
            if not others and entry.owner is None:
                # Grant E: the requester becomes the (clean) owner.
                entry.owner = core_id
                entry.sharers = set()
                exclusive = True
            else:
                if entry.owner == core_id:
                    entry.owner = None
                entry.sharers.add(core_id)
        latency += self._response_latency(core_id, bank, LINE_DATA_BYTES, "data_resp")
        return list(entry.data), latency, exclusive

    def fetch_exclusive(self, core_id: int, address: int, now: int) -> Tuple[List[int], int]:
        """Obtain an exclusive/owned copy (MESI GetM, DeNovo registration)."""
        base = address & LINE_MASK
        bank = self.banks[(base >> LINE_SHIFT) % self.n_banks]
        latency = self._request_overhead(core_id, bank, now, CTRL_BYTES, "cpu_req")
        entry, miss_latency = self._ensure_line(bank, base, now + latency)
        latency += miss_latency
        if entry.owner is not None and entry.owner != core_id:
            latency += self._recall_owner(bank, entry, now + latency)
        if entry.sharers:
            latency += self._invalidate_sharers(bank, entry, now + latency, except_core=None)
        entry.owner = core_id
        entry.sharers = set()
        latency += self._response_latency(core_id, bank, LINE_DATA_BYTES, "data_resp")
        return list(entry.data), latency

    def upgrade(self, core_id: int, address: int, now: int) -> int:
        """MESI S->M upgrade: invalidate the other sharers, grant ownership."""
        base = address & LINE_MASK
        bank = self.banks[(base >> LINE_SHIFT) % self.n_banks]
        latency = self._request_overhead(core_id, bank, now, CTRL_BYTES, "cpu_req")
        entry, miss_latency = self._ensure_line(bank, base, now + latency)
        latency += miss_latency
        if entry.owner is not None and entry.owner != core_id:
            latency += self._recall_owner(bank, entry, now + latency)
        if entry.sharers:
            latency += self._invalidate_sharers(
                bank, entry, now + latency, except_core=core_id
            )
        entry.sharers.discard(core_id)
        entry.owner = core_id
        latency += self._response_latency(core_id, bank, CTRL_BYTES, "data_resp")
        return latency

    def writeback_line(
        self,
        core_id: int,
        address: int,
        words: List[int],
        mask: int,
        now: int,
        release_ownership: bool,
    ) -> int:
        """Accept dirty data from an L1 (eviction PutM, DeNovo flush, GPU-WB flush).

        Write-backs are posted (buffered) — the returned latency is the
        injection cost only, not a full round trip; the requester decides
        what to charge.
        """
        base = address & LINE_MASK
        bank_id = (base >> LINE_SHIFT) % self.n_banks
        bank = self.banks[bank_id]
        dirty_words = SET_BITS[mask]
        n_bytes = CTRL_BYTES + len(dirty_words) * 8
        traffic = self.traffic
        traffic.bytes["wb_req"] += n_bytes
        traffic.byte_hops["wb_req"] += n_bytes * self._hops[core_id][bank_id]
        traffic.messages["wb_req"] += 1
        # Posted: the write occupies the bank, nobody waits for the queue.
        start = bank.busy_until
        if start < now:
            start = now
        bank.busy_until = start + self.service_time
        entry, _ = self._ensure_line(bank, base, now)
        # A write-back from one cache invalidates hardware-coherent copies
        # elsewhere (Spandex: foreign dirty data breaks SWMR for MESI L1s).
        if entry.owner is not None and entry.owner != core_id:
            self._recall_owner(bank, entry, now)
        if entry.sharers:
            self._invalidate_sharers(bank, entry, now, except_core=core_id)
        data = entry.data
        for i in dirty_words:
            data[i] = words[i]
        entry.dirty_mask |= mask
        if release_ownership and entry.owner == core_id:
            entry.owner = None
        self._cnt["writebacks"] += 1
        latency = self._head[core_id][bank_id] + self._body[n_bytes]
        injector = self.mesh.fault_injector
        if injector is not None:
            latency += injector.noc_extra()
        return latency

    def eviction_notice(self, core_id: int, address: int) -> None:
        """Silent clean eviction from a tracked L1 (keeps directory precise)."""
        base = address & LINE_MASK
        bank_id = (base >> LINE_SHIFT) % self.n_banks
        entry = self.banks[bank_id].tags.peek(base)
        if entry is None:
            return
        entry.sharers.discard(core_id)
        if entry.owner == core_id:
            entry.owner = None
        traffic = self.traffic
        traffic.bytes["coh_resp"] += CTRL_BYTES
        traffic.byte_hops["coh_resp"] += CTRL_BYTES * self._hops[core_id][bank_id]
        traffic.messages["coh_resp"] += 1

    def write_through_word(self, core_id: int, address: int, value: int, now: int) -> int:
        """GPU-WT store: update the shared cache directly (no L1 allocation)."""
        base = address & LINE_MASK
        bank_id = (base >> LINE_SHIFT) % self.n_banks
        bank = self.banks[bank_id]
        traffic = self.traffic
        traffic.bytes["wb_req"] += WORD_DATA_BYTES
        traffic.byte_hops["wb_req"] += WORD_DATA_BYTES * self._hops[core_id][bank_id]
        traffic.messages["wb_req"] += 1
        latency = self._head[core_id][bank_id] + self._body[WORD_DATA_BYTES]
        injector = self.mesh.fault_injector
        if injector is not None:
            latency += injector.noc_extra()
        arrival = now + latency
        start = bank.busy_until
        if start < arrival:
            start = arrival
        bank.busy_until = start + self.service_time
        latency = start - now + self.tag_latency
        entry, miss_latency = self._ensure_line(bank, base, now + latency)
        latency += miss_latency
        if entry.owner is not None and entry.owner != core_id:
            latency += self._recall_owner(bank, entry, now + latency)
        if entry.sharers:
            latency += self._invalidate_sharers(bank, entry, now + latency, except_core=None)
        idx = (address >> WORD_SHIFT) & WORD_INDEX_MASK
        entry.data[idx] = value
        entry.dirty_mask |= 1 << idx
        self._cnt["write_throughs"] += 1
        return latency

    def amo_word(self, core_id: int, address: int, op: str, operand, now: int) -> Tuple[int, int]:
        """AMO performed at the shared cache (GPU-WT / GPU-WB protocols)."""
        base = address & LINE_MASK
        bank = self.banks[(base >> LINE_SHIFT) % self.n_banks]
        latency = self._request_overhead(core_id, bank, now, AMO_BYTES, "sync_req")
        entry, miss_latency = self._ensure_line(bank, base, now + latency)
        latency += miss_latency
        if entry.owner is not None and entry.owner != core_id:
            latency += self._recall_owner(bank, entry, now + latency)
        if entry.sharers:
            latency += self._invalidate_sharers(bank, entry, now + latency, except_core=None)
        idx = (address >> WORD_SHIFT) & WORD_INDEX_MASK
        new, old = apply_amo(op, entry.data[idx], operand)
        entry.data[idx] = new
        entry.dirty_mask |= 1 << idx
        latency += self._response_latency(core_id, bank, AMO_BYTES, "sync_resp")
        self._cnt["amos"] += 1
        return old, latency

    def read_word_bypass(self, core_id: int, address: int, now: int) -> Tuple[int, int]:
        """Uncached word read at the L2 (ULI mailbox reads, monitor loads).

        A bypass read is a *read*: it must observe the owner's latest value
        but must not strip MESI/DeNovo ownership (mailbox polling would
        otherwise demote the owner on every read and churn the directory).
        The owner is snooped for the one word without any state change —
        even when the owner is the requesting core itself (its own dirty
        copy is the architectural value; the L2's may be stale).
        """
        base = address & LINE_MASK
        bank = self.banks[(base >> LINE_SHIFT) % self.n_banks]
        latency = self._request_overhead(core_id, bank, now, CTRL_BYTES, "sync_req")
        entry, miss_latency = self._ensure_line(bank, base, now + latency)
        latency += miss_latency
        idx = (address >> WORD_SHIFT) & WORD_INDEX_MASK
        value = entry.data[idx]
        if entry.owner is not None:
            peeked, peek_latency = self._peek_owner_word(bank, entry, idx)
            latency += peek_latency
            if peeked is not None:
                value = peeked
        latency += self._response_latency(core_id, bank, WORD_DATA_BYTES, "sync_resp")
        return value, latency

    def _peek_owner_word(self, bank: _Bank, entry: CacheLine, idx: int) -> Tuple[Optional[int], int]:
        """Snoop one word from the owning L1 without demoting it.

        Returns (value or None, round-trip latency); None means the owner's
        copy of that word is clean, so the L2's own data is current.
        """
        owner = entry.owner
        l1 = self._l1s[owner]
        value = l1.snoop_peek_word(entry.addr, idx)
        bank_id = bank.bank_id
        hops = self._hops[owner][bank_id]
        resp_bytes = WORD_DATA_BYTES if value is not None else CTRL_BYTES
        traffic = self.traffic
        traffic.bytes["coh_req"] += CTRL_BYTES
        traffic.byte_hops["coh_req"] += CTRL_BYTES * hops
        traffic.messages["coh_req"] += 1
        traffic.bytes["coh_resp"] += resp_bytes
        traffic.byte_hops["coh_resp"] += resp_bytes * hops
        traffic.messages["coh_resp"] += 1
        self._cnt["owner_peeks"] += 1
        return value, self._round_trip[owner][bank_id]

    # ------------------------------------------------------------------
    # Introspection (tests / debugging)
    # ------------------------------------------------------------------
    def peek_word(self, address: int) -> int:
        """Current L2/DRAM value of a word, ignoring L1 copies (tests only)."""
        base = address & LINE_MASK
        entry = self.banks[self.bank_of(base)].tags.peek(base)
        if entry is not None:
            return entry.data[(address >> WORD_SHIFT) & WORD_INDEX_MASK]
        return self.memory.read_word(address)

    def directory_entry(self, address: int) -> Optional[CacheLine]:
        base = address & LINE_MASK
        return self.banks[self.bank_of(base)].tags.peek(base)
