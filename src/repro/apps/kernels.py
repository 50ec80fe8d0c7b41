"""Simulator-throughput microkernels (not part of the paper's Table III).

Two synthetic apps that stress the discrete-event kernel itself rather
than any modeled algorithm.  ``tests/test_fusion.py`` and
``tests/test_obs.py`` use them as dispatch-bound test inputs:

* ``kernel-spin``  — back-to-back unit ``Work`` ops: the maximum event
  rate the engine can sustain, isolating dispatch + event-fusion cost.
* ``kernel-stream`` — repeated load/store sweeps over a word array:
  the L1 hit path (tag lookup, counters) at full rate.

Both use one flat fork/join wave of leaf tasks rather than recursive
splitting: the kernels measure the engine, so they carry no per-level
spawn and join work.  (Depth itself would cost nothing per op: the core
keeps each thread's call stack, so a ``send`` enters one frame however
deep the task tree is.)
"""

from __future__ import annotations

from repro.apps.common import AppInstance, SimArray, register_app
from repro.core.task import Task
from repro.cores import ops
from repro.mem.address import WORD_BYTES


class _SpinRoot(Task):
    ARG_WORDS = 2

    def __init__(self, app: "KernelSpin", grain: int):
        super().__init__()
        self.app = app
        self.grain = grain

    def execute(self, rt, ctx):
        remaining = self.app.iters
        leaves = []
        while remaining > 0:
            count = min(self.grain, remaining)
            leaves.append(_SpinLeaf(self.app, count))
            remaining -= count
        yield rt.fork_join(ctx, self, leaves)


class _SpinLeaf(Task):
    ARG_WORDS = 2

    def __init__(self, app: "KernelSpin", count: int):
        super().__init__()
        self.app = app
        self.count = count

    def execute(self, rt, ctx):
        unit = ops.Work(1)
        for _ in range(self.count):
            yield unit
        yield self.app.done.amo(ctx, "add", 0, self.count)


@register_app("kernel-spin")
class KernelSpin(AppInstance):
    name = "kernel-spin"
    pm = "ss"

    def __init__(self, iters: int = 100_000, grain: int = 4096):
        super().__init__()
        if iters <= 0 or grain <= 0:
            raise ValueError("kernel-spin needs positive iters and grain")
        self.iters = iters
        self.grain = grain
        self.done: SimArray = None

    def setup(self, machine) -> None:
        self.machine = machine
        self.done = SimArray(machine, 1, "spin_done")
        self.done.host_fill(0)

    def make_root(self, serial: bool = False) -> Task:
        return _SpinRoot(self, self.iters if serial else self.grain)

    def check(self) -> None:
        (done,) = self.done.host_read()
        assert done == self.iters, f"kernel-spin: {done} != {self.iters}"


class _StreamRoot(Task):
    ARG_WORDS = 2

    def __init__(self, app: "KernelStream", grain: int):
        super().__init__()
        self.app = app
        self.grain = grain

    def execute(self, rt, ctx):
        leaves = [
            _StreamLeaf(self.app, start, min(self.grain, self.app.n - start))
            for start in range(0, self.app.n, self.grain)
        ]
        yield rt.fork_join(ctx, self, leaves)


class _StreamLeaf(Task):
    """Increment every word in [start, start+count), ``passes`` times."""

    ARG_WORDS = 2

    def __init__(self, app: "KernelStream", start: int, count: int):
        super().__init__()
        self.app = app
        self.start = start
        self.count = count

    def execute(self, rt, ctx):
        base = self.app.data.base + self.start * WORD_BYTES
        count = self.count
        Load, Store = ops.Load, ops.Store
        for _ in range(self.app.passes):
            addr = base
            for _ in range(count):
                value = yield Load(addr)
                yield Store(addr, value + 1)
                addr += WORD_BYTES


class _DeadlockRoot(Task):
    """AMO-spin on a flag no task will ever set: a guaranteed livelock."""

    ARG_WORDS = 2

    def __init__(self, app: "KernelDeadlock"):
        super().__init__()
        self.app = app

    def execute(self, rt, ctx):
        while True:
            value = yield self.app.flag.amo(ctx, "add", 0, 0)
            if value:  # never: nothing writes the flag
                return


@register_app("kernel-deadlock")
class KernelDeadlock(AppInstance):
    """Deliberately wedged kernel for watchdog and crash-tolerant-sweep tests.

    The root task spins on a flag nobody sets, so the simulation makes no
    runtime progress forever: without a watchdog it grinds to the
    ``max_cycles`` guard; with one it raises a diagnostic
    :class:`~repro.engine.DeadlockError` within ~1.25x the grace window.
    Not part of the paper's Table III.
    """

    name = "kernel-deadlock"
    pm = "ss"

    def __init__(self):
        super().__init__()
        self.flag: SimArray = None

    def setup(self, machine) -> None:
        self.machine = machine
        self.flag = SimArray(machine, 1, "deadlock_flag")
        self.flag.host_fill(0)

    def make_root(self, serial: bool = False) -> Task:
        return _DeadlockRoot(self)

    def check(self) -> None:
        raise AssertionError("kernel-deadlock never completes")


@register_app("kernel-stream")
class KernelStream(AppInstance):
    name = "kernel-stream"
    pm = "ss"

    def __init__(self, n: int = 2048, passes: int = 16, grain: int = 512):
        super().__init__()
        if n <= 0 or passes <= 0 or grain <= 0:
            raise ValueError("kernel-stream needs positive n, passes, grain")
        self.n = n
        self.passes = passes
        self.grain = grain
        self.data: SimArray = None

    def setup(self, machine) -> None:
        self.machine = machine
        self.data = SimArray(machine, self.n, "stream_data")
        self.data.host_fill(0)

    def make_root(self, serial: bool = False) -> Task:
        return _StreamRoot(self, self.n if serial else self.grain)

    def check(self) -> None:
        values = self.data.host_read()
        bad = [i for i, v in enumerate(values) if v != self.passes]
        assert not bad, f"kernel-stream: {len(bad)} stale words (first: {bad[0]})"
