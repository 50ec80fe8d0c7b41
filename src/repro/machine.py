"""Machine builder: wires a complete simulated system from a SystemConfig.

A :class:`Machine` owns the simulator clock, the data mesh and ULI mesh,
main memory and its allocator, the banked directory L2, one L1 + core per
tile, and the global statistics tree.  Runtimes (``repro.core``) and
applications run on top of it.

The machine also provides *host access* to simulated memory: experiment
setup writes inputs directly into backing DRAM before the program starts
(the way a host would load a binary's data segment), and result checking
reads the coherent view after the program halts.
"""

from __future__ import annotations

from typing import List

from repro.config.system import SystemConfig
from repro.cores.context import ThreadContext
from repro.cores.core import Core
from repro.engine.rng import XorShift64
from repro.engine.simulator import Simulator
from repro.engine.stats import StatGroup
from repro.mem.address import WORD_BYTES, WORDS_PER_LINE, AddressSpace
from repro.mem.backing import MainMemory
from repro.mem.dram import DramController
from repro.mem.l1 import PROTOCOLS
from repro.mem.l2 import SharedL2
from repro.mem.traffic import TrafficMeter
from repro.noc.mesh import Mesh, MeshConfig
from repro.noc.uli import UliNetwork
from repro.trace.tracer import NULL_TRACER


class Machine:
    """A fully wired simulated big.TINY (or pure-big) system."""

    def __init__(self, config: SystemConfig, tracer=None, faults=None, sanitize=False):
        config.validate()
        self.config = config
        self.sim = Simulator(max_cycles=config.max_cycles)
        self.stats = StatGroup("machine")
        self.rng = XorShift64(config.seed)
        #: Event tracer (repro.trace): NULL_TRACER unless a run is traced.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Fault injector (repro.faults): None unless a FaultPlan is active.
        #: Uses a private RNG so machine.rng streams (and thus unfaulted
        #: timing) are untouched; wired into components below.
        from repro.faults import FaultPlan, make_injector

        self.fault_plan = FaultPlan.coerce(faults)
        self.fault_injector = make_injector(
            self.fault_plan,
            config,
            config.n_cores,
            self.stats,
            self.sim,
            self.tracer,
        )

        self.memory = MainMemory()
        self.address_space = AddressSpace()
        self.traffic = TrafficMeter()
        self.mesh = Mesh(MeshConfig(rows=config.mesh_rows, cols=config.mesh_cols))
        self.uli_network = UliNetwork(
            self.mesh, self.stats, sim=self.sim, tracer=self.tracer
        )
        if self.fault_injector is not None:
            self.mesh.fault_injector = self.fault_injector
            self.uli_network.fault_injector = self.fault_injector

        per_mc_bandwidth = config.dram_total_bytes_per_cycle / config.n_l2_banks
        dram = [
            DramController(
                b,
                self.stats,
                access_latency=config.dram_latency,
                bytes_per_cycle=per_mc_bandwidth,
            )
            for b in range(config.n_l2_banks)
        ]
        for controller in dram:
            controller.tracer = self.tracer
            if self.fault_injector is not None:
                controller.fault_injector = self.fault_injector
        self.l2 = SharedL2(
            mesh=self.mesh,
            memory=self.memory,
            traffic=self.traffic,
            stats=self.stats,
            n_banks=config.n_l2_banks,
            bank_size_bytes=config.l2_bank_bytes,
            assoc=config.l2_assoc,
            dram_controllers=dram,
        )

        self.cores: List[Core] = []
        self.l1s = []
        for core_id in range(config.n_cores):
            protocol = config.protocol_for(core_id)
            params = config.l1_params_for(core_id)
            l1 = PROTOCOLS[protocol](
                core_id, self.l2, self.stats, params.size_bytes, params.assoc
            )
            l1.tracer = self.tracer
            if self.fault_injector is not None:
                l1.fault_injector = self.fault_injector
            is_big = config.is_big_core(core_id)
            core = Core(
                core_id=core_id,
                sim=self.sim,
                l1=l1,
                stats=self.stats,
                is_big=is_big,
                issue_width=config.big_issue_width if is_big else 1,
                mlp_factor=config.big_mlp_factor if is_big else 1.0,
                uli_network=self.uli_network,
                uli_entry_latency=(
                    config.uli_entry_latency_big if is_big else config.uli_entry_latency_tiny
                ),
                tracer=self.tracer,
            )
            self.l1s.append(l1)
            self.cores.append(core)
        for core in self.cores:
            core.attach_peers(self.cores)

        #: Invariant checker (repro.sanitize): None unless requested.
        self.sanitizer = None
        if sanitize:
            from repro.sanitize import Sanitizer

            self.sanitizer = Sanitizer(self)
            self.sanitizer.install()

        #: Backref set by WorkStealingRuntime.__init__; checkpoints need the
        #: runtime's thread contexts and progress counters.
        self.runtime = None
        #: Machine-wide send log for checkpoint/restore, shared by every
        #: core (see repro.engine.checkpoint).  None = checkpointing off,
        #: which keeps the core hot loop at a single ``is not None`` test.
        self._ckpt_log = None
        #: Sampling controller backref (repro.sampling): None for exact
        #: runs.  Observability (heartbeats) reads phase/progress from it.
        self.sampling = None

    # ------------------------------------------------------------------
    # Checkpoint/restore (repro.engine.checkpoint)
    # ------------------------------------------------------------------
    def enable_checkpointing(self) -> None:
        """Start recording the send log; must precede the first event."""
        if self.sim.now != 0 or self.sim.events_executed or self.sim.events_fused:
            raise RuntimeError(
                "enable_checkpointing() must be called before the run starts"
            )
        if self._ckpt_log is None:
            self._ckpt_log = []
            for core in self.cores:
                core._ckpt_log = self._ckpt_log

    def snapshot(self) -> dict:
        """Capture the complete deterministic run state (between events)."""
        from repro.engine.checkpoint import capture_run_state

        return capture_run_state(self)

    def restore(self, snap: dict, root, main_tid: int = 0) -> None:
        """Restore a run snapshot into this freshly built machine."""
        from repro.engine.checkpoint import restore_run_state

        restore_run_state(self, snap, root, main_tid)

    # ------------------------------------------------------------------
    # Functional fast-forward support (repro.sampling)
    # ------------------------------------------------------------------
    def prepare_fastforward(self) -> None:
        """Make flat memory the single coherent view, keeping the L2 warm.

        Called by the sampling controller when a detailed window ends:
        after this, ``self.memory`` holds the architectural value of every
        word and fast-forward slices can read/write it directly.  Not an
        architectural operation — no latencies, stats, or traffic are
        charged.

        The L1s are dropped entirely (they are small and re-warm within a
        few thousand instructions), but the L2 keeps its resident lines as
        clean, unowned, sharer-free copies — exactly the state
        ``_ensure_line`` creates on a DRAM fill.  Emptying the L2 as well
        would force every measurement window to re-fetch the entire warm
        working set from DRAM, a per-window cold-start bias that for
        cache-resident, high-IPC workloads dwarfs the true window cost.
        Lines fast-forward *writes* are purged on exit
        (:meth:`invalidate_ff_lines`), so surviving lines always match
        memory.

        Order matters: L2 dirty words go to memory first, then L1 dirty
        words overwrite them — under SWMR a dirty L1 copy is strictly
        fresher than any stale L2 copy of the same word.  An L1 dirty
        word is also patched into any resident L2 copy of its line, which
        would otherwise go stale the moment its owner's data is only
        written to memory.
        """
        l2 = self.l2
        for bank in l2.banks:
            for line in bank.tags.lines():
                if line.dirty_mask:
                    self.memory.write_words(line.addr, line.data, line.dirty_mask)
                    line.dirty_mask = 0
                line.sharers.clear()
                line.owner = None
        for l1 in self.l1s:
            for line in l1.tags.lines():
                mask = line.dirty_mask
                if mask:
                    self.memory.write_words(line.addr, line.data, mask)
                    l2line = l2.banks[l2.bank_of(line.addr)].tags.peek(line.addr)
                    if l2line is not None:
                        for i in range(WORDS_PER_LINE):
                            if mask & (1 << i):
                                l2line.data[i] = line.data[i]
            l1.tags.clear()
            l1._store_buffer.clear()

    def invalidate_ff_lines(self, line_addrs) -> None:
        """Purge L2 copies of lines fast-forward wrote (exit-time fixup).

        The L1s are empty throughout a fast-forward period (dropped on
        entry, and fast-forward never fills them), so only the warm L2
        can hold a stale copy of a line whose words fast-forward mutated
        in flat memory.  Removing the line makes the next detailed access
        re-fetch it from memory through the ordinary miss path.
        """
        l2 = self.l2
        for base in line_addrs:
            l2.banks[l2.bank_of(base)].tags.remove(base)

    # ------------------------------------------------------------------
    # Thread contexts
    # ------------------------------------------------------------------
    def make_contexts(self) -> List[ThreadContext]:
        """One hardware thread per core; tid == core id."""
        n = self.config.n_cores
        return [
            ThreadContext(self.cores[tid], tid, n, self.rng.fork()) for tid in range(n)
        ]

    # ------------------------------------------------------------------
    # Host access to simulated memory (setup / checking only)
    # ------------------------------------------------------------------
    def host_write_word(self, addr: int, value: int) -> None:
        """Write a word directly into DRAM (pre-run input loading)."""
        self.memory.write_word(addr, value)

    def host_write_array(self, base: int, values) -> None:
        for i, value in enumerate(values):
            self.memory.write_word(base + i * WORD_BYTES, value)

    def host_read_word(self, addr: int) -> int:
        """Coherent post-run read: checks L1 owners, then L2, then DRAM."""
        for l1 in self.l1s:
            line = l1.resident(addr)
            if line is not None and line.word_dirty(self._word_idx(addr)):
                return line.data[self._word_idx(addr)]
        return self.l2.peek_word(addr)

    def host_read_array(self, base: int, n_words: int) -> List[int]:
        return [self.host_read_word(base + i * WORD_BYTES) for i in range(n_words)]

    def memory_digest(self, regions) -> str:
        """sha256 over the coherent view of ``regions`` (fuzz end-state check).

        Timing-only fault plans must leave this digest — taken over the
        application's own allocations — byte-identical to a fault-free run.
        Float words (cilk5-lu's matrix, ligra-bc's deltas) hash as their
        IEEE-754 bytes.
        """
        import hashlib
        import struct

        h = hashlib.sha256()
        for region in regions:
            h.update(region.name.encode())
            for word in self.host_read_array(region.base, region.size // WORD_BYTES):
                if isinstance(word, float):
                    h.update(struct.pack("<d", word))
                else:
                    h.update((word & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"))
        return h.hexdigest()

    @staticmethod
    def _word_idx(addr: int) -> int:
        from repro.mem.address import word_index

        return word_index(addr)

    # ------------------------------------------------------------------
    # Aggregates for the harness
    # ------------------------------------------------------------------
    def tiny_core_ids(self) -> List[int]:
        return [c for c in range(self.config.n_cores) if not self.config.is_big_core(c)]

    def big_core_ids(self) -> List[int]:
        return [c for c in range(self.config.n_cores) if self.config.is_big_core(c)]

    def core_labels(self) -> dict:
        """Display labels for trace tracks: {core_id: "core N (big|tiny)"}."""
        return {
            c: f"core {c} ({'big' if self.config.is_big_core(c) else 'tiny'})"
            for c in range(self.config.n_cores)
        }

    def aggregate_l1_stats(self, core_ids=None) -> dict:
        """Sum L1 counters over a set of cores (default: all)."""
        if core_ids is None:
            core_ids = range(self.config.n_cores)
        keys = (
            "loads",
            "load_hits",
            "stores",
            "store_hits",
            "amos",
            "lines_invalidated",
            "lines_flushed",
            "invalidate_ops",
            "flush_ops",
            "evictions",
        )
        out = {k: 0 for k in keys}
        for cid in core_ids:
            l1_stats = self.l1s[cid].stats
            for k in keys:
                out[k] += l1_stats.get(k)
        return out

    def l1_hit_rate(self, core_ids=None) -> float:
        agg = self.aggregate_l1_stats(core_ids)
        accesses = agg["loads"] + agg["stores"]
        if accesses == 0:
            return 1.0
        return (agg["load_hits"] + agg["store_hits"]) / accesses

    def aggregate_core_breakdown(self, core_ids=None) -> dict:
        """Summed cycle breakdown (Figure 7 categories)."""
        from repro.cores.core import TIME_CATEGORIES

        if core_ids is None:
            core_ids = range(self.config.n_cores)
        out = {cat: 0 for cat in TIME_CATEGORIES}
        for cid in core_ids:
            breakdown = self.cores[cid].cycle_breakdown()
            for cat, cycles in breakdown.items():
                out[cat] += cycles
        return out

    def total_instructions(self) -> int:
        return sum(core.stats.get("instructions") for core in self.cores)
