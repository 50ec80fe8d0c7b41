"""The core owns each thread's call stack (``Core._resume``'s trampoline).

Thread code ``yield``s an op or a sub-generator; the core pushes a yielded
generator and sends a finished frame's return value to its caller.  These
tests pin what that must preserve and what it must guarantee:

* every op is dispatched straight from the innermost frame, so a ``send``
  re-enters one generator however deep the task tree is;
* the checkpoint send log is unchanged: it records only values that enter
  a thread from outside its call stack, so snapshots taken before and
  after the call stack moved into the core replay identically;
* a bad yield fails loudly, naming the core.
"""

import hashlib

import pytest

from repro.apps import PAPER_APPS, make_app
from repro.config import make_config
from repro.core import WorkStealingRuntime
from repro.cores import ops
from repro.engine.checkpoint import CheckpointDaemon
from repro.engine.simulator import SimulationError
from repro.harness.params import app_params
from repro.machine import Machine

from helpers import run_thread, tiny_machine


@pytest.mark.parametrize("kind", ("serial-io", "bt-hcc-dts-gwb"))
@pytest.mark.parametrize("app_name", PAPER_APPS)
def test_every_op_is_dispatched_from_the_innermost_frame(app_name, kind):
    app = make_app(app_name, **app_params(app_name, "tiny"))
    machine = Machine(make_config(kind, "tiny"))
    app.setup(machine)
    delegating = []
    depths = []

    def checked(core, fn):
        def dispatch(op):
            stack = core._stacks[-1]
            if stack[-1].gi_yieldfrom is not None:
                delegating.append(op.KIND)
            depths.append(len(stack))
            return fn(op)

        return dispatch

    for core in machine.cores:
        table = core._dispatch_table
        for kind_name, fn in table.items():
            table[kind_name] = checked(core, fn)
    rt = WorkStealingRuntime(machine, serial_elision=kind == "serial-io")
    rt.run(app.make_root(serial=False))
    app.check()
    assert depths, "no op was dispatched"
    assert delegating == []
    # The task tree really nests: ops ran under calls several frames deep.
    assert max(depths) >= 4


#: (app, config) -> (entries, sha256 of repr(log)) of the middle snapshot
#: (cycle 4000) of a tiny run snapshotted every 2000 cycles.  Computed when
#: threads still delegated through chains of generators: the log records
#: the same sends whoever keeps the call stack.
SEND_LOG_PINS = {
    ("cilk5-cs", "bt-hcc-dts-gwb"): (
        4749,
        "072375fce10f078971ae8bf2ec54116a6174fc8d1b5faec83d575ab610fd8116",
    ),
    ("ligra-bfs", "bt-mesi"): (
        1467,
        "f7b83dc3da3cb7fa6e75954f4c116e6bc812d912f3dd5294772b7081ee4c55d3",
    ),
}


@pytest.mark.parametrize("app_name,kind", sorted(SEND_LOG_PINS))
def test_send_log_is_pinned(app_name, kind):
    app = make_app(app_name, **app_params(app_name, "tiny"))
    machine = Machine(make_config(kind, "tiny"))
    machine.enable_checkpointing()
    app.setup(machine)
    rt = WorkStealingRuntime(machine)
    snaps = []
    CheckpointDaemon(machine, 2000, lambda m: snaps.append(m.snapshot())).arm()
    rt.run(app.make_root(serial=False))
    snap = snaps[len(snaps) // 2]
    assert snap["cycle"] == 4000
    log = snap["log"]
    digest = hashlib.sha256(repr(log).encode()).hexdigest()
    assert (len(log), digest) == SEND_LOG_PINS[(app_name, kind)]


class TestYields:
    def test_calls_return_values_to_their_caller(self):
        machine = tiny_machine()
        addr = machine.address_space.alloc_words(1, "x")
        machine.host_write_word(addr, 5)
        seen = []

        def inner(word):
            value = yield ops.Load(word)
            return value * 2

        def middle():
            doubled = yield inner(addr)
            return doubled + 1

        def thread():
            seen.append((yield middle()))

        run_thread(machine, 1, thread())
        assert seen == [11]
        assert machine.cores[1].halted

    def test_nop_costs_nothing_and_is_not_logged(self):
        machine = tiny_machine()
        machine.enable_checkpointing()
        ctx = machine.make_contexts()[1]

        def thread():
            yield ctx.work(0)
            yield ctx.idle(0)
            yield ctx.work(3)

        cycles = run_thread(machine, 1, thread())
        assert cycles == 3
        assert machine.cores[1].stats.get("instructions") == 3
        # The start and the Work op's result: the no-ops send nothing in.
        assert machine._ckpt_log == [(1, None), (1, None)]

    @pytest.mark.parametrize("bad", (42, None, "load"))
    def test_a_bad_yield_names_the_core(self, bad):
        machine = tiny_machine()

        def thread():
            yield bad

        with pytest.raises(SimulationError, match="core 2: thread yielded"):
            run_thread(machine, 2, thread())

    def test_an_unknown_op_kind_names_the_core(self):
        class Bogus(ops.Op):
            KIND = "bogus"

        machine = tiny_machine()

        def thread():
            yield Bogus()

        with pytest.raises(SimulationError, match="core 1: unknown op kind 'bogus'"):
            run_thread(machine, 1, thread())

    def test_delegating_to_an_op_says_to_yield_it(self):
        machine = tiny_machine()
        ctx = machine.make_contexts()[1]

        def thread():
            yield from ctx.load(0)

        with pytest.raises(TypeError, match="`yield` it instead"):
            run_thread(machine, 1, thread())
