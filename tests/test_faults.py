"""Fault-injection subsystem (repro.faults): plans, sites, determinism."""

import pytest

from repro.config import make_config
from repro.core import WorkStealingRuntime
from repro.faults import FaultPlan
from repro.machine import Machine
from repro.mem.address import WORD_BYTES

from helpers import ALL_BIGTINY, tiny_machine


# ----------------------------------------------------------------------
# FaultPlan parsing / presets
# ----------------------------------------------------------------------

class TestFaultPlan:
    def test_inactive_by_default(self):
        assert not FaultPlan().active
        assert FaultPlan().timing_only

    def test_presets(self):
        timing = FaultPlan.preset("timing")
        assert timing.active and timing.timing_only
        full = FaultPlan.preset("full")
        assert full.active and not full.timing_only
        assert full.l1_evict_prob > 0 and full.steal_abort_prob > 0
        assert FaultPlan.preset("evict").l1_evict_prob > 0
        assert FaultPlan.preset("steal").steal_abort_prob > 0
        assert not FaultPlan.preset("none").active

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.preset("nope")

    def test_parse_spec_with_overrides(self):
        plan = FaultPlan.parse("timing,seed=7,noc_jitter_cycles=3")
        assert plan.seed == 7
        assert plan.noc_jitter_cycles == 3
        assert plan.noc_jitter_prob == FaultPlan.preset("timing").noc_jitter_prob

    def test_parse_none_forms(self):
        assert FaultPlan.parse(None) is None
        assert FaultPlan.parse("") is None
        assert FaultPlan.parse("off") is None

    def test_parse_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("timing,bogus=1")

    def test_coerce_round_trips_dict(self):
        plan = FaultPlan.preset("full", seed=9)
        again = FaultPlan.coerce(plan.as_dict())
        assert again == plan
        assert FaultPlan.coerce(plan) is plan

    def test_replace_reseeds(self):
        plan = FaultPlan.preset("timing")
        assert plan.replace(seed=5).seed == 5
        assert plan.replace(seed=5).noc_jitter_prob == plan.noc_jitter_prob


# ----------------------------------------------------------------------
# Wiring and the off switch
# ----------------------------------------------------------------------

class TestWiring:
    def test_no_plan_means_no_injector_anywhere(self):
        machine = tiny_machine()
        assert machine.fault_injector is None
        assert machine.mesh.fault_injector is None
        assert machine.uli_network.fault_injector is None
        assert all(l1.fault_injector is None for l1 in machine.l1s)

    def test_inactive_plan_means_no_injector(self):
        machine = tiny_machine(faults=FaultPlan())
        assert machine.fault_injector is None

    def test_active_plan_wires_every_site(self):
        machine = tiny_machine(faults="timing")
        fi = machine.fault_injector
        assert fi is not None
        assert machine.mesh.fault_injector is fi
        assert machine.uli_network.fault_injector is fi
        assert all(l1.fault_injector is fi for l1 in machine.l1s)
        assert all(c.fault_injector is fi for c in machine.l2.dram)

    def test_machine_rng_stream_untouched(self):
        """The injector must fork a private RNG, not machine.rng."""
        clean = tiny_machine().rng.next_u64()
        faulted = tiny_machine(faults="full").rng.next_u64()
        assert clean == faulted


# ----------------------------------------------------------------------
# Determinism and end-to-end behaviour
# ----------------------------------------------------------------------

def _fib_run(kind, faults=None, **rt_kwargs):
    """fib(8) on a tiny machine; returns (cycles, answer, machine)."""
    from repro.core import Task

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

    machine = tiny_machine(kind, faults=faults)
    rt = WorkStealingRuntime(machine, **rt_kwargs)
    out = machine.address_space.alloc_words(1, "out")
    cycles = rt.run(FibTask(8, out))
    return cycles, machine.host_read_word(out), machine


class TestInjection:
    def test_same_seed_same_outcome(self):
        a = _fib_run("bt-mesi", faults="timing,seed=3")
        b = _fib_run("bt-mesi", faults="timing,seed=3")
        assert a[0] == b[0] and a[1] == b[1]

    def test_timing_faults_perturb_cycles_not_answer(self):
        clean_cycles, clean_answer, _ = _fib_run("bt-mesi")
        cycles, answer, machine = _fib_run("bt-mesi", faults="timing,seed=2")
        assert answer == clean_answer == 21
        assert machine.fault_injector.total_fired() > 0
        assert cycles != clean_cycles  # jitter moved the schedule

    @pytest.mark.parametrize("kind", ALL_BIGTINY)
    def test_forced_evictions_preserve_correctness(self, kind):
        plan = "evict,seed=4,l1_evict_prob=0.2"
        cycles, answer, machine = _fib_run(kind, faults=plan)
        assert answer == 21
        forced = sum(l1.stats.get("forced_evictions") for l1 in machine.l1s)
        assert forced > 0

    def test_steal_aborts_fire_on_chase_lev(self):
        cycles, answer, machine = _fib_run(
            "bt-mesi", faults="steal,seed=1", deque_kind="chase-lev"
        )
        assert answer == 21
        assert machine.stats.child("faults").get("steal_abort") > 0

    def test_dram_throttle_is_deterministic_window(self):
        plan = FaultPlan.parse("timing,seed=1,dram_throttle_period=100,"
                               "dram_throttle_window=50")
        machine = tiny_machine(faults=plan)
        fi = machine.fault_injector
        assert fi.dram_service(10, 8) == 8 * plan.dram_throttle_factor
        assert fi.dram_service(60, 8) == 8
        assert machine.stats.child("faults").get("dram_throttle") == 1

    def test_fired_faults_land_on_the_trace_fault_track(self):
        from repro.trace import Tracer

        tracer = Tracer()
        machine = Machine(
            make_config("bt-mesi", "tiny"), tracer=tracer, faults="timing,seed=6"
        )
        fi = machine.fault_injector
        # 200 draws at prob 0.2 fire with near-certainty.
        for _ in range(200):
            fi.noc_extra()
        assert tracer.faults
        site, cycle, detail = tracer.faults[0]
        assert site == "noc" and detail > 0
