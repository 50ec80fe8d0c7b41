"""Unit and property tests for the mesh NoC, ULI network, and DRAM model."""

import pytest
from hypothesis import given, strategies as st

from repro.engine import StatGroup
from repro.mem.dram import DramController
from repro.noc import Mesh, MeshConfig, UliNetwork
from repro.noc.uli import ULI_MESSAGE_BYTES


def mesh(rows=4, cols=4):
    return Mesh(MeshConfig(rows=rows, cols=cols))


class TestMesh:
    def test_core_positions_row_major(self):
        m = mesh()
        assert m.core_position(0) == (0, 0)
        assert m.core_position(5) == (1, 1)
        assert m.core_position(15) == (3, 3)

    def test_core_position_bounds(self):
        with pytest.raises(ValueError):
            mesh().core_position(16)

    def test_bank_positions_below_core_rows(self):
        m = mesh()
        for b in range(4):
            row, col = m.bank_position(b, 4)
            assert row == 4
            assert 0 <= col < 4

    def test_banks_spread_across_columns(self):
        m = mesh()
        cols = {m.bank_position(b, 4)[1] for b in range(4)}
        assert cols == {0, 1, 2, 3}

    def test_paper_8x8_bank_mapping_unchanged(self):
        """Regression: the paper's one-bank-per-column mapping (Figure 1)
        must stay exactly (rows, bank_id)."""
        m = mesh(rows=8, cols=8)
        for b in range(8):
            assert m.bank_position(b, 8) == (8, b)

    @pytest.mark.parametrize("cols,n_banks", [
        (8, 3), (8, 5), (8, 6), (7, 3), (12, 5), (5, 4), (3, 2),
    ])
    def test_uneven_bank_counts_get_distinct_spread_columns(self, cols, n_banks):
        """Regression: ``cols % n_banks != 0`` used to cluster banks on the
        leftmost columns (stride floor); the mapping must keep columns
        distinct, monotone, and spread with cyclic gaps differing by <= 1."""
        m = mesh(rows=2, cols=cols)
        positions = [m.bank_position(b, n_banks)[1] for b in range(n_banks)]
        assert len(set(positions)) == n_banks
        assert positions == sorted(positions)
        gaps = [
            (positions[(i + 1) % n_banks] - positions[i]) % cols
            for i in range(n_banks)
        ]
        assert max(gaps) - min(gaps) <= 1

    def test_more_banks_than_columns_is_refused(self):
        """Regression: ``n_banks > cols`` used to silently collapse several
        banks onto one column, skewing NoC distance for every consumer."""
        with pytest.raises(ValueError, match="distinct columns"):
            mesh(rows=2, cols=4).bank_position(0, 6)

    def test_bank_id_out_of_range_is_refused(self):
        with pytest.raises(ValueError):
            mesh().bank_position(4, 4)

    @given(st.integers(0, 15), st.integers(0, 15))
    def test_hops_symmetric_and_triangle(self, a, b):
        m = mesh()
        pa, pb = m.core_position(a), m.core_position(b)
        assert m.hops(pa, pb) == m.hops(pb, pa)
        assert m.hops(pa, pa) == 0
        origin = m.core_position(0)
        assert m.hops(pa, pb) <= m.hops(pa, origin) + m.hops(origin, pb)

    def test_latency_grows_with_distance(self):
        m = mesh(8, 8)
        near = m.latency((0, 0), (0, 1), 8)
        far = m.latency((0, 0), (7, 7), 8)
        assert far > near

    def test_latency_grows_with_message_size(self):
        m = mesh()
        small = m.latency((0, 0), (2, 2), 8)
        large = m.latency((0, 0), (2, 2), 72)
        assert large > small
        # 72B at 16B flits = 5 flits -> 4 extra body cycles.
        assert large - small == 4

    def test_zero_hop_message_costs_only_serialization(self):
        m = mesh()
        assert m.latency((1, 1), (1, 1), 8) == 0
        assert m.latency((1, 1), (1, 1), 72) == 4

    def test_n_links_positive(self):
        assert mesh().n_links > 0


class TestUliNetwork:
    def test_send_latency_and_stats(self):
        stats = StatGroup("m")
        net = UliNetwork(mesh(), stats)
        lat = net.send_latency(0, 15)
        assert lat == 6 * 2  # 6 hops x (router+channel)
        assert stats.child("uli_network").get("messages") == 1

    def test_utilization_bounded(self):
        net = UliNetwork(mesh(), StatGroup("m"))
        for _ in range(10):
            net.send_latency(0, 15)
        util = net.utilization(1000)
        assert 0.0 <= util < 1.0

    def test_utilization_zero_without_traffic(self):
        net = UliNetwork(mesh(), StatGroup("m"))
        assert net.utilization(100) == 0.0

    def test_route_tables_match_mesh_on_paper_machine(self):
        from repro.config import make_config
        from repro.machine import Machine

        machine = Machine(make_config("bt-hcc-dts-gwb", "paper"))
        m, net = machine.mesh, machine.uli_network
        n_cores = machine.config.n_cores
        assert n_cores == 64
        for a in range(n_cores):
            pa = m.core_position(a)
            for b in range(n_cores):
                pb = m.core_position(b)
                assert net._hops[a][b] == m.hops(pa, pb)
                assert net._latency[a][b] == m.latency(pa, pb, ULI_MESSAGE_BYTES)
                assert net.send_latency(a, b) == net._latency[a][b]
        assert machine.stats.child("uli_network").get("messages") == n_cores**2


class TestDramController:
    def test_fixed_latency_plus_service(self):
        mc = DramController(0, StatGroup("m"), access_latency=60, bytes_per_cycle=2.0)
        assert mc.access(now=0, n_bytes=64) == 32 + 60

    def test_back_to_back_requests_queue(self):
        mc = DramController(0, StatGroup("m"), access_latency=60, bytes_per_cycle=2.0)
        first = mc.access(0, 64)
        second = mc.access(0, 64)
        assert second == first + 32  # queued behind the first

    def test_bandwidth_limits_throughput(self):
        mc = DramController(0, StatGroup("m"), access_latency=0, bytes_per_cycle=1.0)
        total = 0
        for _ in range(10):
            total = mc.access(0, 64)
        assert total == 640  # 10 lines at 1 B/cycle

    def test_idle_gap_resets_queue(self):
        mc = DramController(0, StatGroup("m"), access_latency=10, bytes_per_cycle=2.0)
        mc.access(0, 64)
        assert mc.access(10_000, 64) == 32 + 10
