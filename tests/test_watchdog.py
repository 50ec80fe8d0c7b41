"""Deadlock watchdog: structured DeadlockError instead of opaque max_cycles."""

import json
import pickle

import pytest

from repro.core import Task, WorkStealingRuntime
from repro.engine import Simulator
from repro.engine.watchdog import DeadlockError, Watchdog
from repro.mem.address import WORD_BYTES

from helpers import VARIANT_KINDS, tiny_machine


# ----------------------------------------------------------------------
# Watchdog unit tests (bare simulator)
# ----------------------------------------------------------------------

def _keepalive(sim, period=10, ticks=200):
    """An event chain that keeps the simulator busy without 'progress'."""
    remaining = [ticks]

    def step():
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule(period, step)

    sim.schedule(period, step)


class TestWatchdogUnit:
    def test_fires_when_progress_stalls(self):
        sim = Simulator()
        _keepalive(sim)
        wd = Watchdog(sim, progress=lambda: 0, grace=100,
                      outstanding=lambda: True)
        wd.arm()
        with pytest.raises(DeadlockError) as exc_info:
            sim.run()
        # Fires within ~1.25x grace of the stall start.
        assert 100 <= sim.now <= 130
        diag = exc_info.value.diagnostic
        assert diag["grace"] == 100
        assert diag["progress_counter"] == 0
        assert "pending_events" in diag and "stalled_since" in diag

    def test_silent_while_progress_moves(self):
        sim = Simulator()
        counter = [0]

        def step():
            counter[0] += 1
            if counter[0] < 30:
                sim.schedule(10, step)

        sim.schedule(10, step)
        wd = Watchdog(sim, progress=lambda: counter[0], grace=50,
                      outstanding=lambda: True)
        wd.arm()
        sim.run()  # must not raise: progress moves every 10 < grace 50
        assert counter[0] == 30

    def test_drain_phase_never_raises(self):
        """Work done but simulator still draining: watch, don't bark."""
        sim = Simulator()
        _keepalive(sim)
        wd = Watchdog(sim, progress=lambda: 0, grace=100,
                      outstanding=lambda: False)
        wd.arm()
        sim.run()

    def test_cancel_disarms_queued_tick(self):
        sim = Simulator()
        _keepalive(sim, ticks=50)
        wd = Watchdog(sim, progress=lambda: 0, grace=60,
                      outstanding=lambda: True)
        wd.arm()
        wd.cancel()
        sim.run()  # cancelled before the first tick: nothing fires

    def test_daemon_ticks_never_keep_sim_alive(self):
        """Once real events drain, the re-arming tick dies with the run."""
        sim = Simulator()
        sim.schedule(5, lambda: None)
        wd = Watchdog(sim, progress=lambda: 0, grace=1000, interval=2,
                      outstanding=lambda: True)
        wd.arm()
        assert sim.run() == 5

    def test_bad_grace_rejected(self):
        with pytest.raises(ValueError):
            Watchdog(Simulator(), progress=lambda: 0, grace=0)

    def test_deadlock_error_pickles_with_diagnostic(self):
        err = DeadlockError("stalled", {"cycle": 7, "cores": {"0": {}}})
        back = pickle.loads(pickle.dumps(err))
        assert isinstance(back, DeadlockError)
        assert back.diagnostic == {"cycle": 7, "cores": {"0": {}}}
        assert "stalled" in str(back)


# ----------------------------------------------------------------------
# Runtime integration: a wedged program on every variant
# ----------------------------------------------------------------------

class WedgedTask(Task):
    """Spins on a flag nobody will ever set."""

    ARG_WORDS = 2

    def __init__(self, flag_addr):
        super().__init__()
        self.flag_addr = flag_addr

    def execute(self, rt, ctx):
        while True:
            value = yield ctx.amo_or(self.flag_addr, 0)
            if value:
                return


class FibTask(Task):
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
        children = [
            FibTask(self.n - 1, scratch),
            FibTask(self.n - 2, scratch + WORD_BYTES),
        ]
        yield rt.fork_join(ctx, self, children)
        x = yield ctx.load(scratch)
        y = yield ctx.load(scratch + WORD_BYTES)
        yield ctx.store(self.out_addr, x + y)


class TestRuntimeWatchdog:
    @pytest.mark.parametrize("kind", VARIANT_KINDS)
    def test_wedged_program_raises_structured_error(self, kind):
        machine = tiny_machine(kind)
        rt = WorkStealingRuntime(machine, watchdog=5_000)
        flag = machine.address_space.alloc_words(1, "flag")
        with pytest.raises(DeadlockError) as exc_info:
            rt.run(WedgedTask(flag))
        diag = exc_info.value.diagnostic
        assert diag["variant"] == rt.variant
        assert diag["done"] is False
        assert set(diag["cores"]) == {str(c) for c in range(machine.config.n_cores)}
        assert set(diag["deques"]) == set(diag["cores"])
        json.dumps(diag)  # the whole dump must be JSON-able

    def test_dts_steal_nacks_are_not_progress(self):
        """Idle thieves hammering a wedged victim must not reset the clock."""
        machine = tiny_machine("bt-hcc-dts-gwb")
        rt = WorkStealingRuntime(machine, watchdog=5_000)
        flag = machine.address_space.alloc_words(1, "flag")
        with pytest.raises(DeadlockError):
            rt.run(WedgedTask(flag))
        # The thieves really were probing the whole time.
        assert rt.stats.get("uli_handler_runs") > 0
        assert machine.sim.now < 50_000  # fired promptly, not at max_cycles

    @pytest.mark.parametrize("kind", VARIANT_KINDS)
    def test_healthy_run_unperturbed(self, kind):
        def run(watchdog):
            machine = tiny_machine(kind)
            rt = WorkStealingRuntime(machine, watchdog=watchdog)
            out = machine.address_space.alloc_words(1, "out")
            cycles = rt.run(FibTask(9, out))
            return machine.host_read_word(out), cycles

        assert run(None) == run(2_000)  # same answer, same cycle count
