"""Shared L2 / heterogeneous directory unit tests."""

import pytest

from repro.config import make_config
from repro.engine import StatGroup
from repro.mem.address import WORD_BYTES, line_addr
from repro.mem.backing import MainMemory
from repro.mem.cacheline import MODIFIED
from repro.mem.l2 import SharedL2
from repro.mem.traffic import CATEGORIES, CTRL_BYTES, LINE_DATA_BYTES, TrafficMeter
from repro.noc import Mesh, MeshConfig
from repro.verify.model import MicroMachine

from helpers import tiny_machine


def fresh(kind="bt-mesi"):
    machine = tiny_machine(kind)
    addr = machine.address_space.alloc_words(8, "x")
    machine.host_write_word(addr, 5)
    return machine, addr


class TestDirectory:
    def test_sharer_list_tracks_mesi_readers(self):
        machine, addr = fresh()
        machine.l1s[1].load(addr, 0)
        machine.l1s[2].load(addr, 1)
        entry = machine.l2.directory_entry(addr)
        assert entry.sharers == {1, 2}

    def test_exclusive_grant_records_owner(self):
        machine, addr = fresh()
        machine.l1s[1].load(addr, 0)
        entry = machine.l2.directory_entry(addr)
        assert entry.owner == 1 and not entry.sharers

    def test_getm_clears_sharers_and_sets_owner(self):
        machine, addr = fresh()
        machine.l1s[1].load(addr, 0)
        machine.l1s[2].load(addr, 1)
        machine.l1s[0].store(addr, 9, 2)
        entry = machine.l2.directory_entry(addr)
        assert entry.owner == 0
        assert entry.sharers == set()

    def test_untracked_gpu_readers_not_in_sharer_list(self):
        machine, addr = fresh("bt-hcc-gwb")
        machine.l1s[1].load(addr, 0)  # tiny gwb core
        entry = machine.l2.directory_entry(addr)
        assert 1 not in entry.sharers and entry.owner != 1

    def test_foreign_writeback_invalidates_mesi_copies(self):
        machine, addr = fresh("bt-hcc-gwb")
        big, tiny = machine.l1s[0], machine.l1s[1]
        big.load(addr, 0)  # big MESI core caches the line
        tiny.store(addr, 70, 1)
        tiny.flush_all(2)
        value, _ = big.load(addr, 3)
        assert value == 70  # MESI copy was invalidated, fresh fill

    def test_write_through_invalidates_mesi_copies(self):
        machine, addr = fresh("bt-hcc-gwt")
        big, tiny = machine.l1s[0], machine.l1s[1]
        big.store(addr, 50, 0)  # big core owns it dirty
        tiny.store(addr, 60, 1)  # write-through must merge + invalidate
        value, _ = big.load(addr, 2)
        assert value == 60

    def test_amo_at_l2_sees_mesi_owner_data(self):
        machine, addr = fresh("bt-hcc-gwb")
        big, tiny = machine.l1s[0], machine.l1s[1]
        big.store(addr, 30, 0)  # dirty in big core's MESI L1
        old, _ = tiny.amo("add", addr, 1, 1)
        assert old == 30  # owner recalled before the AMO


class TestL2Mechanics:
    def test_bank_mapping_is_line_interleaved(self):
        machine, _ = fresh()
        l2 = machine.l2
        assert l2.bank_of(0x1000) != l2.bank_of(0x1040) or l2.n_banks == 1
        assert l2.bank_of(0x1000) == l2.bank_of(0x1000 + 64 * l2.n_banks)

    def test_l2_miss_goes_to_dram(self):
        machine, addr = fresh()
        before = sum(mc.stats.get("accesses") for mc in machine.l2.dram)
        machine.l1s[1].load(addr, 0)
        after = sum(mc.stats.get("accesses") for mc in machine.l2.dram)
        assert after == before + 1

    def test_l2_hit_avoids_dram(self):
        machine, addr = fresh()
        machine.l1s[1].load(addr, 0)
        before = sum(mc.stats.get("accesses") for mc in machine.l2.dram)
        machine.l1s[2].load(addr, 1)
        assert sum(mc.stats.get("accesses") for mc in machine.l2.dram) == before

    def test_read_word_bypass_returns_latest(self):
        machine, addr = fresh()
        machine.l1s[1].store(addr, 123, 0)  # dirty in a MESI L1
        value, latency = machine.l2.read_word_bypass(2, addr, 1)
        assert value == 123
        assert latency > 0

    def test_l2_eviction_preserves_data_in_dram(self):
        machine, addr = fresh(kind="bt-mesi")
        # Shrink L2 to force evictions: 2 banks x 2KB, 2-way -> tiny L2.
        small = tiny_machine("bt-mesi", l2_bank_bytes=2048, l2_assoc=2)
        a = small.address_space.alloc_words(8, "a")
        small.l1s[1].store(a, 42, 0)
        small.l1s[1].flush_all(1)  # no-op on MESI but harmless
        # Touch many distinct lines so that line a is evicted from L2.
        filler = small.address_space.alloc(64 * 512, "filler")
        now = 2
        for i in range(256):
            small.l1s[2].load(filler + i * 64, now)
            now += 5
        assert small.host_read_word(a) == 42

    def test_traffic_categories_populated(self):
        machine, addr = fresh()
        machine.l1s[1].load(addr, 0)
        machine.l1s[2].store(addr, 1, 1)
        snap = machine.traffic.snapshot()
        assert set(snap) == set(CATEGORIES)
        assert snap["cpu_req"] > 0
        assert snap["data_resp"] > 0
        assert snap["dram_req"] > 0

    def test_bypass_preserves_mesi_ownership(self):
        # Regression: the old bypass recalled the owner, silently demoting
        # M/R copies on every mailbox poll.  A bypass read must observe
        # the owner's value without touching directory or L1 state.
        machine, addr = fresh()
        machine.l1s[1].store(addr, 123, 0)
        value, latency = machine.l2.read_word_bypass(2, addr, 1)
        assert value == 123
        assert latency > 0
        entry = machine.l2.directory_entry(addr)
        assert entry.owner == 1
        line = machine.l1s[1].resident(addr)
        assert line is not None and line.state == MODIFIED
        assert line.dirty_mask  # still dirty: nothing was flushed

    def test_bypass_sees_own_dirty_copy(self):
        # The reading core itself may be the owner; its private dirty copy
        # is the architectural value, not the L2's stale words.
        machine, addr = fresh()
        machine.l1s[1].store(addr, 77, 0)
        value, _ = machine.l2.read_word_bypass(1, addr, 1)
        assert value == 77
        assert machine.l2.directory_entry(addr).owner == 1

    def test_bypass_peeks_instead_of_recalling(self):
        machine, addr = fresh()
        machine.l1s[1].store(addr, 5, 0)
        before = machine.l2.stats.get("owner_recalls")
        machine.l2.read_word_bypass(2, addr, 1)
        assert machine.l2.stats.get("owner_peeks") == 1
        assert machine.l2.stats.get("owner_recalls") == before

    def test_recall_and_invalidate_round_trips_symmetric(self):
        # Regression: _invalidate_sharers dropped the +1 hop-independent
        # cycle _recall_owner charges, so a recall from core N cost one
        # cycle more than an invalidation of a sharer at the same spot.
        recall_m, addr_r = fresh()
        recall_m.l1s[1].store(addr_r, 9, 0)  # core 1 owns dirty
        base_r = line_addr(addr_r)
        bank_r = recall_m.l2.banks[recall_m.l2.bank_of(base_r)]
        lat_recall = recall_m.l2._recall_owner(
            bank_r, recall_m.l2.directory_entry(addr_r), 0)

        inval_m, addr_i = fresh()
        inval_m.l1s[1].load(addr_i, 0)
        inval_m.l1s[2].load(addr_i, 1)   # sharers {1, 2}
        inval_m.l2.eviction_notice(2, addr_i)  # leave exactly core 1
        base_i = line_addr(addr_i)
        bank_i = inval_m.l2.banks[inval_m.l2.bank_of(base_i)]
        entry_i = inval_m.l2.directory_entry(addr_i)
        assert entry_i.sharers == {1}
        lat_inval = inval_m.l2._invalidate_sharers(
            bank_i, entry_i, 0, except_core=None)
        assert bank_r.bank_id == bank_i.bank_id  # same distances
        assert lat_recall == lat_inval

    def test_dirty_l2_evict_pays_dram_latency(self):
        # Regression: the dirty-victim DRAM access latency was computed
        # but dropped from the returned eviction latency.
        machine, addr = fresh("bt-hcc-gwb")
        machine.l1s[1].store(addr, 7, 0)
        machine.l1s[1].flush_all(1)  # write-back: L2 line now dirty
        base = line_addr(addr)
        bank = machine.l2.banks[machine.l2.bank_of(base)]
        victim = bank.tags.remove(base)
        assert victim.dirty_mask
        latency = machine.l2._evict_l2_line(bank, victim, 10)
        # At least the DRAM access latency (60 cycles) must be charged.
        assert latency >= 60
        assert machine.memory.read_word(addr) == 7

    def test_clean_l2_evict_is_dropped_silently(self):
        # Regression: clean victims were written back to memory with a
        # full-line mask and no DRAM traffic accounting.  A clean line
        # matches DRAM by construction, so the evict must be free.
        machine, addr = fresh()
        machine.l1s[1].load(addr, 0)
        machine.l2.eviction_notice(1, addr)  # clear directory tracking
        base = line_addr(addr)
        bank = machine.l2.banks[machine.l2.bank_of(base)]
        victim = bank.tags.remove(base)
        assert not victim.dirty_mask
        # Divergence sentinel: if the evict wrote the line back, the
        # sentinel would be clobbered with the cached copy.
        machine.memory.write_word(addr, 999)
        req_before = machine.traffic.messages["dram_req"]
        acc_before = sum(mc.stats.get("accesses") for mc in machine.l2.dram)
        latency = machine.l2._evict_l2_line(bank, victim, 0)
        assert latency == 0
        assert machine.traffic.messages["dram_req"] == req_before
        assert sum(mc.stats.get("accesses")
                   for mc in machine.l2.dram) == acc_before
        assert machine.memory.read_word(addr) == 999

    def test_mesi_evict_writes_back_only_dirty_words(self):
        # Regression: `dirty_mask or FULL_MASK` pushed all 8 words (and
        # full-line wb_req bytes) for a single dirty word.
        machine, addr = fresh()
        machine.l1s[1].store(addr, 42, 0)  # exactly one dirty word
        machine.host_write_word(addr + WORD_BYTES, 5)
        before = machine.traffic.bytes["wb_req"]
        machine.l1s[1].force_capacity_eviction(1)
        delta = machine.traffic.bytes["wb_req"] - before
        assert delta == CTRL_BYTES + 8  # control + ONE word, not the line
        assert machine.l2.peek_word(addr) == 42

    def test_bank_queue_adds_delay_under_contention(self):
        machine, _ = fresh()
        base = machine.address_space.alloc_words(8, "hot")
        machine.host_write_word(base, 1)
        # Two misses to the same bank at the same cycle: the second queues.
        _, lat1 = machine.l1s[1].load(base, 0)
        other = machine.address_space.alloc_words(8, "hot2")
        # Map to the same bank: stride by n_banks lines.
        same_bank = base + 64 * machine.l2.n_banks
        _, lat2 = machine.l1s[2].load(same_bank, 0)
        assert lat2 >= lat1 - 5  # both paid the miss; second may queue more


def _l2_for(geometry):
    """A bare L2 on one of the preset machines' meshes, on a 2x5 mesh with
    3 banks (5 % 3 != 0: bank columns 0, 1, 3), or the verify model's."""
    if geometry == "verify-1x3":
        return MicroMachine(("mesi",) * 3).l2
    if geometry == "2x5-3banks":
        rows, cols, n_banks = 2, 5, 3
    else:
        config = make_config("bt-mesi", geometry)
        rows, cols, n_banks = config.mesh_rows, config.mesh_cols, config.n_l2_banks
    return SharedL2(
        Mesh(MeshConfig(rows=rows, cols=cols)), MainMemory(), TrafficMeter(),
        StatGroup(), n_banks=n_banks, bank_size_bytes=4096,
    )


@pytest.mark.parametrize(
    "geometry", ["tiny", "quick", "paper", "large", "2x5-3banks", "verify-1x3"]
)
def test_route_tables_match_mesh(geometry):
    """The L2's per-(core, bank) tables agree with ``Mesh`` on every route
    and message size: hops, one-way latency and the coherence round trip."""
    l2 = _l2_for(geometry)
    mesh = l2.mesh
    n_cores = mesh.rows * mesh.cols
    assert len(l2._hops) == n_cores
    for core in range(n_cores):
        core_pos = mesh.core_position(core)
        for bank in range(l2.n_banks):
            bank_pos = mesh.bank_position(bank, l2.n_banks)
            assert l2._hops[core][bank] == mesh.hops(core_pos, bank_pos)
            assert l2._round_trip[core][bank] == (
                2 * mesh.latency(bank_pos, core_pos, CTRL_BYTES) + 1
            )
            for n_bytes in range(CTRL_BYTES, LINE_DATA_BYTES + 1, 8):
                expected = mesh.latency(core_pos, bank_pos, n_bytes)
                assert l2._head[core][bank] + l2._body[n_bytes] == expected
                assert mesh.latency(bank_pos, core_pos, n_bytes) == expected
