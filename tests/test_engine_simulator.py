"""Unit tests for the discrete-event simulation kernel."""

import heapq
import sys

import pytest

from repro.cores import ops
from repro.cores.core import Core
from repro.engine import SimulationError, Simulator
from repro.engine import simulator as simulator_module
from repro.engine.stats import StatGroup


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(30, lambda: order.append("c"))
    sim.schedule(10, lambda: order.append("a"))
    sim.schedule(20, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 30


def test_same_cycle_events_run_fifo():
    sim = Simulator()
    order = []
    for tag in range(5):
        sim.schedule(7, lambda t=tag: order.append(t))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_events_scheduled_from_callbacks():
    sim = Simulator()
    seen = []

    def first():
        seen.append(sim.now)
        sim.schedule(5, second)

    def second():
        seen.append(sim.now)

    sim.schedule(3, first)
    sim.run()
    assert seen == [3, 8]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(5, lambda: None)


def test_zero_delay_event_runs_at_current_cycle():
    sim = Simulator()
    times = []
    sim.schedule(4, lambda: sim.schedule(0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [4]


def test_max_cycles_guard_raises():
    sim = Simulator(max_cycles=100)

    def rearm():
        sim.schedule(60, rearm)

    sim.schedule(60, rearm)
    with pytest.raises(SimulationError):
        sim.run()


def test_run_returns_final_cycle():
    sim = Simulator()
    sim.schedule(42, lambda: None)
    assert sim.run() == 42


# ----------------------------------------------------------------------
# Fusion and switching, driven by real cores
#
# The rule lives in Core._resume (see repro.engine.simulator).  Each case
# runs the same cores with fusion on and off and asserts the same
# callbacks ran in the same order at the same cycles; the mechanism
# checks (events popped by run(), frames on the stack) show which path
# the fused run took.
# ----------------------------------------------------------------------

class _WireStub:
    """ULI wires with a fixed 3-cycle latency (no mesh)."""

    def send_latency(self, src, dst):
        return 3


def _counting_pops(monkeypatch):
    """Count the events ``Simulator.run`` pops off the regular heap."""
    counter = {"pops": 0}
    real = heapq.heappop

    class CountingHeapq:
        heappush = staticmethod(heapq.heappush)
        heapify = staticmethod(heapq.heapify)

        @staticmethod
        def heappop(queue):
            counter["pops"] += 1
            return real(queue)

    monkeypatch.setattr(simulator_module, "heapq", CountingHeapq)
    return counter


def _thread(sim, log, cid, works):
    """A thread that logs (cycle, core) each time it runs, between Work ops."""
    for n in works:
        log.append((sim.now, cid))
        yield ops.Work(n)
    log.append((sim.now, cid))


def _cores(sim, n, **kwargs):
    stats = StatGroup()
    cores = [Core(cid, sim, None, stats, **kwargs) for cid in range(n)]
    for core in cores:
        core.attach_peers(cores)
    return cores


def _run_threads(plans, *, fusion, max_cycles=100_000, setup=None):
    """Start one core per ``(start delay, works)`` plan and run.

    Returns (simulator, log, what ``setup`` returned).
    """
    sim = Simulator(max_cycles=max_cycles, fusion=fusion)
    log = []
    cores = _cores(sim, len(plans))
    for core, (delay, works) in zip(cores, plans):
        core.start(_thread(sim, log, core.core_id, works), delay)
    extra = setup(sim, log) if setup is not None else None
    sim.run()
    return sim, log, extra


def _total(sim):
    return sim.events_executed + sim.events_fused


def test_fuse_succeeds_when_strictly_earlier_than_head():
    """A lone core's completions fuse while they beat the queue head."""
    def setup(sim, log):
        sim.schedule(100, lambda: log.append((sim.now, "head")))

    fused, fused_log, _ = _run_threads([(1, [5] * 10)], fusion=True, setup=setup)
    plain, plain_log, _ = _run_threads([(1, [5] * 10)], fusion=False, setup=setup)
    assert fused_log == plain_log
    assert fused_log[-2:] == [(51, 0), (100, "head")]
    # Only the start wake and the head went through the heap.
    assert fused.events_executed == 2
    assert fused.events_fused == 10
    assert _total(fused) == _total(plain) == plain.events_executed


def test_fuse_refused_on_time_tie_with_queue_head(monkeypatch):
    """Two cores finish ops at the same cycles: the queued completion (the
    smaller sequence number) runs first, inline, as run() would pop it."""
    pops = _counting_pops(monkeypatch)
    plans = [(0, [10, 10, 10]), (0, [10, 10, 10])]
    fused, fused_log, _ = _run_threads(plans, fusion=True)
    fused_pops = pops["pops"]
    plain, plain_log, _ = _run_threads(plans, fusion=False)
    assert fused_log == plain_log
    # At every tie core 0 (queued first) runs before core 1.
    assert fused_log == [
        (0, 0), (0, 1), (10, 0), (10, 1), (20, 0), (20, 1), (30, 0), (30, 1)
    ]
    assert fused.events_fused == 0
    assert fused.events_executed == plain.events_executed == 8
    # Switching ran completions inline: run() popped fewer events.
    assert fused_pops < fused.events_executed


def test_fusion_disabled_sends_every_event_through_run(monkeypatch):
    pops = _counting_pops(monkeypatch)
    plans = [(0, [3, 7, 2]), (1, [4, 4, 4]), (2, [9])]
    sim, _, _ = _run_threads(plans, fusion=False)
    assert sim.events_fused == 0
    assert pops["pops"] == sim.events_executed == 10


def test_trampoline_outside_run_pushes_its_continuation():
    """A core resumed by hand, with no run() active, neither fuses nor
    switches: it parks its result and pushes the completion."""
    sim = Simulator(fusion=True)
    log = []
    (core,) = _cores(sim, 1)
    core._push_frame(_thread(sim, log, 0, [5, 5]))
    core.halted = False
    core._resume(None)
    assert log == [(0, 0)]
    assert sim.now == 0
    assert sim.pending_events == 1
    assert sim.events_fused == sim.events_executed == 0
    sim.run()
    assert log == [(0, 0), (5, 0), (10, 0)]


def test_no_fusion_env_var_disables_fusion(monkeypatch):
    monkeypatch.setenv("REPRO_NO_FUSION", "1")
    assert Simulator().fusion_enabled is False
    monkeypatch.delenv("REPRO_NO_FUSION")
    assert Simulator().fusion_enabled is True


def test_fuse_refused_when_daemon_event_due():
    """A daemon due before the head sends control back to run(), and the
    daemon sees the same pending events as in an unswitched run."""
    def setup(sim, log):
        seen = []

        def daemon():
            # Heap order of the pending events; sequence numbers differ
            # between modes (fused continuations take none), order does not.
            pending = [(t, cb.__self__.core_id) for t, _s, cb in sorted(sim._queue)]
            seen.append((sim.now, pending))

        sim.schedule(25, daemon, daemon=True)
        sim.schedule(26, daemon, daemon=True)
        return seen

    plans = [(0, [10] * 5), (3, [10] * 5), (6, [10] * 5)]
    fused, fused_log, fused_seen = _run_threads(plans, fusion=True, setup=setup)
    plain, plain_log, plain_seen = _run_threads(plans, fusion=False, setup=setup)
    assert fused_log == plain_log
    assert fused_seen == plain_seen
    assert [cycle for cycle, _ in fused_seen] == [25, 26]
    # At cycle 25 the three cores' completions at 26, 30 and 33 are queued.
    assert fused_seen[0][1] == [(26, 2), (30, 0), (33, 1)]
    assert _total(fused) == _total(plain)


def test_daemon_interleaving_identical_with_and_without_fusion():
    """Daemon observers fire at the same points whether events fuse,
    switch or go through run()."""
    def setup(sim, log):
        for due in (9, 18, 31, 40):
            sim.schedule(due, lambda: log.append((sim.now, "daemon")),
                         daemon=True)

    plans = [(2, [4] * 8), (5, [7] * 4), (30, [1, 1, 1])]
    fused, fused_log, _ = _run_threads(plans, fusion=True, setup=setup)
    plain, plain_log, _ = _run_threads(plans, fusion=False, setup=setup)
    assert fused_log == plain_log
    daemons = [cycle for cycle, who in fused_log if who == "daemon"]
    # The run ends at cycle 34: the daemon due at 40 never fires.
    assert daemons == [9, 18, 31]
    assert fused.events_fused > 0 and plain.events_fused == 0
    assert _total(fused) == _total(plain)


def test_fuse_refused_beyond_max_cycles():
    """The head is past max_cycles: the trampoline leaves it to run(),
    which raises the same error as an unswitched run."""
    outcomes = []
    for fusion in (True, False):
        sim = Simulator(max_cycles=100, fusion=fusion)
        log = []
        cores = _cores(sim, 2)
        # Core 0's completion at 120 is queued when core 1's op, due at
        # 130, cannot fuse (past max_cycles) and the head is past it too.
        cores[0].start(_thread(sim, log, 0, [120]), 0)
        cores[1].start(_thread(sim, log, 1, [40, 40, 50]), 0)
        with pytest.raises(SimulationError) as err:
            sim.run()
        outcomes.append((str(err.value), log, sim.now, sim.pending_events))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == (
        "simulation exceeded max_cycles=100; likely deadlock or runaway spin loop"
    )


def test_uli_partial_and_wake_heads_return_to_run():
    """A ULI request (a partial) and a handler wake at the head are run
    by run(), never inline; handler entry and the ack land on the same
    cycles as in an unswitched run."""
    def scenario(fusion):
        sim = Simulator(fusion=fusion)
        log = []
        cores = _cores(sim, 3, uli_network=_WireStub(), uli_entry_latency=2)
        callers = []

        def caller_names():
            # Frames: this helper, the generator, Core._resume, then
            # what called the trampoline.
            frame = sys._getframe(3)
            names = []
            while frame is not None and len(names) < 2:
                names.append(frame.f_code.co_name)
                frame = frame.f_back
            return tuple(names)

        def thief():
            log.append((sim.now, "thief"))
            yield ops.Work(2)
            ack = yield ops.UliSend(1)
            callers.append(("ack", caller_names()))
            log.append((sim.now, "ack", ack))
            yield ops.Work(3)
            log.append((sim.now, "thief-done"))

        def victim():
            yield ops.ULI_ENABLE
            for _ in range(6):
                log.append((sim.now, "victim"))
                yield ops.Work(2)

        def handler(thief_id):
            callers.append(("handler", caller_names()))
            log.append((sim.now, "handler", thief_id))
            yield ops.Work(3)

        cores[1].uli_handler_factory = handler
        cores[0].start(thief(), 0)
        cores[1].start(victim(), 0)
        cores[2].start(_thread(sim, log, 2, [1] * 12), 0)
        sim.run()
        return log, callers, sim.now, _total(sim), sim.events_fused

    fused = scenario(True)
    plain = scenario(False)
    assert fused[:4] == plain[:4]
    log, callers = fused[0], fused[1]
    assert any(entry[1] == "handler" for entry in log)
    # The handler starts from its wake and the thief from the ULI
    # response, both dispatched by run() itself.
    assert callers == [
        ("handler", ("_resume_none", "run")),
        ("ack", ("deliver_uli_response", "run")),
    ]


def test_fusion_stats_accounting():
    plans = [(1, [1] * 5), (50, [2, 2])]
    fused, _, _ = _run_threads(plans, fusion=True)
    plain, _, _ = _run_threads(plans, fusion=False)
    stats = fused.fusion_stats()
    # Two start wakes; core 0's five completions fuse, as do core 1's two.
    assert stats["events_executed"] == 2
    assert stats["events_fused"] == 7
    assert stats["events_total"] == 9 == plain.fusion_stats()["events_total"]
    assert stats["fused_ratio"] == pytest.approx(7 / 9)


# ----------------------------------------------------------------------
# Daemon events interacting with the run loop (watchdog-style usage)
# ----------------------------------------------------------------------

def test_daemon_exception_propagates_without_running_regular_event():
    """A raising daemon (the watchdog) must preempt the co-due event."""
    sim = Simulator()
    seen = []

    def boom():
        raise SimulationError("watchdog fired")

    sim.schedule(5, boom, daemon=True)
    sim.schedule(5, lambda: seen.append("regular"))
    with pytest.raises(SimulationError, match="watchdog fired"):
        sim.run()
    assert seen == []
    # The regular event went back on the queue unexecuted.
    assert sim.pending_events == 1


def test_rearming_daemon_ticks_alongside_event_chain():
    """A self-re-arming daemon (watchdog idiom) observes every interval."""
    def setup(sim, log):
        def tick():
            log.append((sim.now, "tick"))
            sim.schedule(10, tick, daemon=True)

        sim.schedule(10, tick, daemon=True)

    plans = [(1, [4] * 8), (3, [6] * 5)]
    fused, fused_log, _ = _run_threads(plans, fusion=True, setup=setup)
    plain, plain_log, _ = _run_threads(plans, fusion=False, setup=setup)
    assert fused_log == plain_log
    assert fused.events_fused > 0 and plain.events_fused == 0
    # Daemon ticks interleave with the threads but never outlive them:
    # the last logged entry is a thread's, not a daemon tick.
    assert fused_log[-1][1] != "tick"
    assert (10, "tick") in fused_log and (30, "tick") in fused_log
