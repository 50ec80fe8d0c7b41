"""Tests for the Cilkview analyzer, the area model, and the energy model."""

import math

import pytest

from repro.analysis import (
    CilkviewAnalyzer,
    area_equivalence_report,
    big_to_tiny_ratio,
    estimate_energy,
    l1_area,
    system_l1_area,
)
from repro.config import make_config
from repro.core import Task, WorkStealingRuntime

from helpers import tiny_machine


class _BalancedTask(Task):
    """depth-d binary tree; each strand does exactly `strand` work."""

    def __init__(self, depth, strand=10):
        super().__init__()
        self.depth = depth
        self.strand = strand

    def execute(self, rt, ctx):
        yield ctx.work(self.strand)
        if self.depth > 0:
            yield rt.fork_join(
                ctx,
                self,
                [
                    _BalancedTask(self.depth - 1, self.strand),
                    _BalancedTask(self.depth - 1, self.strand),
                ],
            )


class TestCilkview:
    def test_balanced_tree_work_and_span(self):
        analyzer = CilkviewAnalyzer()
        report = analyzer.analyze(_BalancedTask(depth=4, strand=10))
        n_tasks = 2**5 - 1
        assert report.n_tasks == n_tasks
        # Work = strand + start overhead per task.
        assert report.work == n_tasks * (10 + 4)
        # Span = one root-to-leaf path.
        assert report.span == 5 * (10 + 4)
        assert abs(report.parallelism - report.work / report.span) < 1e-12

    def test_serial_chain_has_parallelism_one(self):
        class Chain(Task):
            def execute(self, rt, ctx):
                yield ctx.work(100)

        report = CilkviewAnalyzer().analyze(Chain())
        assert abs(report.parallelism - 1.0) < 1e-12

    def test_memory_ops_count_as_instructions(self):
        class MemTask(Task):
            def execute(self, rt, ctx):
                addr = rt.machine.address_space.alloc_words(1, "x")
                yield ctx.store(addr, 5)
                value = yield ctx.load(addr)
                assert value == 5
                old = yield ctx.amo_add(addr, 1)
                assert old == 5

        report = CilkviewAnalyzer().analyze(MemTask())
        assert report.work == 4 + 3  # start overhead + three memory ops

    def test_ipt(self):
        report = CilkviewAnalyzer().analyze(_BalancedTask(depth=2, strand=6))
        assert report.instructions_per_task == pytest.approx(10.0)


class TestAreaModel:
    def test_calibrated_ratio(self):
        assert big_to_tiny_ratio() == pytest.approx(14.9, rel=1e-6)

    def test_area_monotonic(self):
        assert l1_area(8 * 1024) > l1_area(4 * 1024)

    def test_area_sublinear(self):
        assert l1_area(64 * 1024) < 16 * l1_area(4 * 1024)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            l1_area(0)

    def test_o3x8_roughly_area_equivalent_to_paper_bigtiny(self):
        report = area_equivalence_report(
            make_config("o3x8", "paper"), make_config("bt-mesi", "paper")
        )
        # Paper Section V-A: similar L1 area. Allow 15% slack.
        assert 0.85 < report["ratio"] < 1.25

    def test_system_area_sums_cores(self):
        config = make_config("bt-mesi", "tiny")
        total = system_l1_area(config)
        assert total == pytest.approx(
            2 * l1_area(64 * 1024) + 3 * 2 * l1_area(4 * 1024)
        )


class TestEnergyModel:
    def test_energy_positive_and_decomposed(self):
        from repro.mem.address import WORD_BYTES

        class Fib(Task):
            def __init__(self, n, out):
                super().__init__()
                self.n, self.out = n, out

            def execute(self, rt, ctx):
                if self.n < 2:
                    yield ctx.store(self.out, self.n)
                    return
                scratch = rt.machine.address_space.alloc_words(2, "s")
                yield rt.fork_join(
                    ctx, self, [Fib(self.n - 1, scratch), Fib(self.n - 2, scratch + WORD_BYTES)]
                )
                x = yield ctx.load(scratch)
                y = yield ctx.load(scratch + WORD_BYTES)
                yield ctx.store(self.out, x + y)

        machine = tiny_machine("bt-hcc-dts-gwb")
        rt = WorkStealingRuntime(machine)
        out = machine.address_space.alloc_words(1, "out")
        rt.run(Fib(8, out))
        report = estimate_energy(machine)
        assert report.total_pj > 0
        assert report.total_pj == pytest.approx(sum(report.breakdown_pj.values()))
        for component in ("cores", "l1", "l2", "dram", "noc", "uli"):
            assert component in report.breakdown_pj
        assert report.breakdown_pj["uli"] > 0  # DTS config sent ULIs

    def test_energy_ratio(self):
        machine = tiny_machine()
        machine.cores[0].stats.add("cycles_compute", 100)
        a = estimate_energy(machine)
        b = estimate_energy(machine, coefficients={"big_core_cycle": 50.0})
        assert b.total_pj == pytest.approx(2.0 * a.total_pj)
