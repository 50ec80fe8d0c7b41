"""Work-stealing runtime tests across all three Figure 3 variants."""

import pytest

from repro.core import Task, WorkStealingRuntime
from repro.engine.simulator import SimulationError
from repro.mem.address import WORD_BYTES

from helpers import ALL_BIGTINY, tiny_machine


def pyfib(n):
    return n if n < 2 else pyfib(n - 1) + pyfib(n - 2)


class FibTask(Task):
    """The paper's Figure 2 running example."""

    ARG_WORDS = 2

    def __init__(self, n, out_addr):
        super().__init__()
        self.n = n
        self.out_addr = out_addr

    def execute(self, rt, ctx):
        if self.n < 2:
            yield ctx.store(self.out_addr, self.n)
            return
        scratch = rt.machine.address_space.alloc_words(2, "fib_scratch")
        children = [FibTask(self.n - 1, scratch), FibTask(self.n - 2, scratch + WORD_BYTES)]
        yield rt.fork_join(ctx, self, children)
        x = yield ctx.load(scratch)
        y = yield ctx.load(scratch + WORD_BYTES)
        yield ctx.store(self.out_addr, x + y)


def run_fib(kind, n=9, **rt_kwargs):
    machine = tiny_machine(kind)
    rt = WorkStealingRuntime(machine, **rt_kwargs)
    out = machine.address_space.alloc_words(1, "out")
    cycles = rt.run(FibTask(n, out))
    return machine, rt, machine.host_read_word(out), cycles


class TestVariantSelection:
    def test_variant_derived_from_config(self):
        assert WorkStealingRuntime(tiny_machine("bt-mesi")).variant == "hw"
        assert WorkStealingRuntime(tiny_machine("bt-hcc-gwb")).variant == "hcc"
        assert WorkStealingRuntime(tiny_machine("bt-hcc-dts-gwb")).variant == "dts"

    def test_variant_override(self):
        rt = WorkStealingRuntime(tiny_machine("bt-mesi"), variant="hcc")
        assert rt.variant == "hcc"

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            WorkStealingRuntime(tiny_machine(), variant="nope")


@pytest.mark.parametrize("kind", ALL_BIGTINY)
class TestFibOnEveryConfig:
    def test_correct_result(self, kind):
        _, _, result, _ = run_fib(kind)
        assert result == pyfib(9)

    def test_tasks_accounted(self, kind):
        _, rt, _, _ = run_fib(kind)
        # fib(9) spawns 2 children per task with n >= 2.
        assert rt.stats.get("tasks_executed") == rt.stats.get("spawns") + 1
        assert rt.stats.get("spawns") > 10


class TestStealing:
    def test_steals_happen_on_multicore(self):
        _, rt, _, _ = run_fib("bt-mesi", n=10)
        assert rt.stats.get("steals") > 0

    def test_dts_steals_via_uli(self):
        machine, rt, _, _ = run_fib("bt-hcc-dts-gwb", n=10)
        assert rt.stats.get("steals") > 0
        assert rt.stats.get("uli_handler_runs") >= rt.stats.get("uli_tasks_exported")
        assert machine.stats.child("uli_network").get("messages") > 0

    def test_hsc_set_when_child_stolen(self):
        machine, rt, _, _ = run_fib("bt-hcc-dts-gwb", n=10)
        assert rt.stats.get("uli_tasks_exported") > 0
        # At least one task carries has_stolen_child == 1 in memory.
        hsc_values = [
            machine.host_read_word(task.hsc_addr) for task in rt.tasks.values()
        ]
        assert any(hsc_values)

    def test_single_core_never_steals(self):
        from repro.config import make_config
        from repro.machine import Machine

        machine = Machine(make_config("o3x1", "tiny"))
        rt = WorkStealingRuntime(machine)
        out = machine.address_space.alloc_words(1, "out")
        rt.run(FibTask(8, out))
        assert machine.host_read_word(out) == pyfib(8)
        assert rt.stats.get("steals") == 0


class TestSerialElision:
    def test_elision_gives_correct_result(self):
        _, rt, result, _ = run_fib("bt-mesi", serial_elision=True)
        assert result == pyfib(9)
        assert rt.stats.get("spawns") == 0
        assert rt.stats.get("steals") == 0

    def test_elision_cheaper_than_single_worker_runtime(self):
        from repro.config import make_config
        from repro.machine import Machine

        def cycles(elide):
            machine = Machine(make_config("serial-io", "tiny"))
            rt = WorkStealingRuntime(machine, serial_elision=elide)
            out = machine.address_space.alloc_words(1, "out")
            return rt.run(FibTask(9, out))

        assert cycles(True) < cycles(False)


class TestDtsAblations:
    def test_disable_queue_sync_elision_still_correct(self):
        _, rt, result, _ = run_fib(
            "bt-hcc-dts-gwb", dts_elide_queue_sync=False
        )
        assert result == pyfib(9)

    def test_disable_parent_sync_elision_still_correct(self):
        _, rt, result, _ = run_fib(
            "bt-hcc-dts-gwb", dts_elide_parent_sync=False
        )
        assert result == pyfib(9)

    def test_elisions_reduce_flushes(self):
        def flushes(**kwargs):
            machine, rt, result, _ = run_fib("bt-hcc-dts-gwb", n=10, **kwargs)
            assert result == pyfib(10)
            return machine.aggregate_l1_stats(machine.tiny_core_ids())["lines_flushed"]

        assert flushes() <= flushes(dts_elide_queue_sync=False)


class TestRuntimeLifecycle:
    def test_runtime_cannot_run_twice(self):
        machine = tiny_machine()
        rt = WorkStealingRuntime(machine)
        out = machine.address_space.alloc_words(1, "out")
        rt.run(FibTask(5, out))
        with pytest.raises(SimulationError):
            rt.run(FibTask(5, out))

    def test_deterministic_given_seed(self):
        a = run_fib("bt-hcc-dts-gwb", n=9)
        b = run_fib("bt-hcc-dts-gwb", n=9)
        assert a[3] == b[3]  # identical cycle counts

    def test_different_seed_changes_schedule(self):
        machine1 = tiny_machine("bt-mesi", seed=1)
        machine2 = tiny_machine("bt-mesi", seed=2)
        results = []
        for machine in (machine1, machine2):
            rt = WorkStealingRuntime(machine)
            out = machine.address_space.alloc_words(1, "out")
            rt.run(FibTask(9, out))
            results.append(machine.host_read_word(out))
        assert results == [pyfib(9)] * 2
