"""Tests for the Chase-Lev lock-free deque extension and deque overflow."""

import pytest

from repro.core import Task, WorkStealingRuntime
from repro.core.chaselev import ChaseLevDeque
from repro.core.taskqueue import TaskDeque
from repro.engine.simulator import SimulationError
from repro.mem.address import WORD_BYTES

from helpers import run_thread, tiny_machine


def pyfib(n):
    return n if n < 2 else pyfib(n - 1) + pyfib(n - 2)


class FibTask(Task):
    def __init__(self, n, out_addr):
        super().__init__()
        self.n = n
        self.out_addr = out_addr

    def execute(self, rt, ctx):
        if self.n < 2:
            yield ctx.store(self.out_addr, self.n)
            return
        scratch = rt.machine.address_space.alloc_words(2, "s")
        yield rt.fork_join(
            ctx, self,
            [FibTask(self.n - 1, scratch), FibTask(self.n - 2, scratch + WORD_BYTES)],
        )
        x = yield ctx.load(scratch)
        y = yield ctx.load(scratch + WORD_BYTES)
        yield ctx.store(self.out_addr, x + y)


def drive(machine, core_id, gen):
    result = {}

    def wrapper():
        result["value"] = yield gen
        if False:
            yield

    run_thread(machine, core_id, wrapper())
    return result.get("value")


class TestChaseLevDeque:
    def test_push_take_lifo(self):
        machine = tiny_machine()
        dq = ChaseLevDeque(machine, 1, capacity=16)
        ctxs = machine.make_contexts()

        def body(ctx):
            for task_id in (1, 2, 3):
                yield dq.push(ctx, task_id)
            out = []
            for _ in range(4):
                out.append((yield dq.take(ctx)))
            return out

        assert drive(machine, 1, body(ctxs[1])) == [3, 2, 1, 0]

    def test_steal_fifo(self):
        machine = tiny_machine()
        dq = ChaseLevDeque(machine, 1, capacity=16)
        ctxs = machine.make_contexts()

        def body(ctx):
            for task_id in (1, 2, 3):
                yield dq.push(ctx, task_id)
            out = []
            for _ in range(4):
                out.append((yield dq.steal(ctx)))
            return out

        assert drive(machine, 1, body(ctxs[1])) == [1, 2, 3, 0]

    def test_overflow_raises(self):
        machine = tiny_machine()
        dq = ChaseLevDeque(machine, 1, capacity=2)
        ctxs = machine.make_contexts()

        def body(ctx):
            for task_id in (1, 2, 3):
                yield dq.push(ctx, task_id)

        with pytest.raises(SimulationError):
            drive(machine, 1, body(ctxs[1]))

    @pytest.mark.parametrize("kind", ("bt-mesi", "bt-hcc-gwb"))
    def test_concurrent_owner_and_thieves_claim_each_item_once(self, kind):
        machine = tiny_machine(kind)
        dq = ChaseLevDeque(machine, 1, capacity=256)
        claimed_addr = machine.address_space.alloc_words(64, "claimed")
        ctxs = machine.make_contexts()

        def owner(ctx):
            for task_id in range(1, 33):
                yield dq.push(ctx, task_id)
                yield ctx.work(3)
            while True:
                got = yield dq.take(ctx)
                if not got:
                    break
                yield ctx.amo_add(claimed_addr + (got - 1) * 8, 1)
                yield ctx.work(5)

        def thief(ctx):
            misses = 0
            while misses < 30:
                got = yield dq.steal(ctx)
                if got:
                    misses = 0
                    yield ctx.amo_add(claimed_addr + (got - 1) * 8, 1)
                    yield ctx.work(5)
                else:
                    misses += 1
                    yield ctx.idle(7)

        machine.cores[1].start(owner(ctxs[1]))
        machine.cores[2].start(thief(ctxs[2]))
        machine.cores[3].start(thief(ctxs[3]))
        machine.sim.run()
        counts = machine.host_read_array(claimed_addr, 32)
        assert counts == [1] * 32  # every task claimed exactly once

    @pytest.mark.parametrize("kind", ("bt-mesi", "bt-hcc-dnv", "bt-hcc-gwt", "bt-hcc-gwb"))
    def test_runtime_with_chase_lev_correct(self, kind):
        machine = tiny_machine(kind)
        rt = WorkStealingRuntime(machine, deque_kind="chase-lev")
        out = machine.address_space.alloc_words(1, "out")
        rt.run(FibTask(9, out))
        assert machine.host_read_word(out) == pyfib(9)

    @pytest.mark.parametrize("kind", ("bt-mesi", "bt-hcc-gwb"))
    def test_last_element_owner_thief_cas_race(self, kind):
        """Owner take() and thief steal() race for the single remaining
        item; the head CAS must hand it to exactly one of them."""
        machine = tiny_machine(kind)
        dq = ChaseLevDeque(machine, 1, capacity=16)
        ctxs = machine.make_contexts()
        got = {}

        def owner(ctx):
            yield dq.push(ctx, 7)
            yield ctx.work(2)  # window for the thief to move in
            got["owner"] = yield dq.take(ctx)

        def thief(ctx):
            for _ in range(64):
                task_id = yield dq.steal(ctx)
                if task_id:
                    got["thief"] = task_id
                    return
                yield ctx.idle(3)
            got["thief"] = 0

        machine.cores[1].start(owner(ctxs[1]))
        machine.cores[2].start(thief(ctxs[2]))
        machine.sim.run()
        winners = [v for v in (got["owner"], got["thief"]) if v]
        assert winners == [7]  # claimed exactly once, by whoever won

        # The deque must still be consistent: empty for both sides.
        machine2 = machine  # same machine, fresh generators
        assert drive(machine2, 1, dq.take(ctxs[1])) == 0
        assert drive(machine2, 2, dq.steal(ctxs[2])) == 0

    def test_slot_wraparound_beyond_capacity(self):
        """head/tail grow without bound; slot indices wrap mod capacity."""
        machine = tiny_machine()
        dq = ChaseLevDeque(machine, 1, capacity=4)
        ctxs = machine.make_contexts()

        def body(ctx):
            out = []
            for task_id in (1, 2, 3, 4):
                yield dq.push(ctx, task_id)
            out.append((yield dq.steal(ctx)))  # 1 (head slot 0 freed)
            out.append((yield dq.steal(ctx)))  # 2 (head slot 1 freed)
            yield dq.push(ctx, 5)  # tail=4 -> physical slot 0
            yield dq.push(ctx, 6)  # tail=5 -> physical slot 1
            for _ in range(5):
                out.append((yield dq.take(ctx)))
            return out

        assert drive(machine, 1, body(ctxs[1])) == [1, 2, 6, 5, 4, 3, 0]

    def test_chase_lev_overflow_message_names_owner_and_capacity(self):
        machine = tiny_machine()
        dq = ChaseLevDeque(machine, 3, capacity=2)
        ctxs = machine.make_contexts()

        def body(ctx):
            for task_id in (1, 2, 3):
                yield dq.push(ctx, task_id)

        with pytest.raises(
            SimulationError, match=r"chase-lev deque 3 overflow \(capacity 2\)"
        ):
            drive(machine, 3, body(ctxs[3]))

    def test_chase_lev_rejected_with_dts(self):
        with pytest.raises(ValueError):
            WorkStealingRuntime(tiny_machine("bt-hcc-dts-gwb"), deque_kind="chase-lev")

    def test_unknown_deque_kind_rejected(self):
        with pytest.raises(ValueError):
            WorkStealingRuntime(tiny_machine(), deque_kind="ring")


class TestTaskDequeOverflow:
    def test_enqueue_past_capacity_raises_with_owner_and_capacity(self):
        machine = tiny_machine()
        dq = TaskDeque(machine, 2, capacity=2)
        ctxs = machine.make_contexts()

        def body(ctx):
            for task_id in (1, 2, 3):
                yield dq.enqueue(ctx, task_id)

        with pytest.raises(
            SimulationError, match=r"task deque 2 overflow \(capacity 2\)"
        ):
            drive(machine, 2, body(ctxs[2]))

