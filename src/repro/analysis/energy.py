"""Activity-based energy model.

The paper reports that the best HCC+DTS configuration reaches "similar
energy efficiency" to full hardware coherence; its energy argument is
driven by activity counts (cache accesses, network traffic, DRAM accesses)
rather than circuit-level simulation.  This model does the same: each event
class carries a fixed energy (rough 28nm-class numbers in picojoules), and
a system's energy is the weighted sum of its counters.

The absolute joules are not meaningful; ratios between configurations are
the reproduced quantity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.machine import Machine

#: Event energies in picojoules (order-of-magnitude literature values).
DEFAULT_ENERGY_PJ = {
    "tiny_core_cycle": 2.0,
    "big_core_cycle": 25.0,
    "idle_cycle_factor": 0.15,  # clock-gated fraction of active energy
    "l1_access": 5.0,
    "l2_access": 25.0,
    "dram_access": 2000.0,
    "noc_byte_hop": 0.8,
    "uli_message": 4.0,
}


@dataclass
class EnergyReport:
    total_pj: float
    breakdown_pj: Dict[str, float] = field(default_factory=dict)


def energy_counts(machine: Machine) -> Dict[str, float]:
    """Raw activity counts the energy model is a linear function of.

    Priced by :func:`energy_from_counts`: the coefficients apply to
    counts, not to machines.
    """
    tiny_busy = big_busy = tiny_idle = big_idle = 0
    for core in machine.cores:
        busy = core.busy_cycles()
        idle = core.stats.get("cycles_idle")
        if core.is_big:
            big_busy += busy
            big_idle += idle
        else:
            tiny_busy += busy
            tiny_idle += idle
    l1_accesses = 0
    for l1 in machine.l1s:
        l1_accesses += (
            l1.stats.get("loads") + l1.stats.get("stores") + l1.stats.get("amos")
        )
    return {
        "tiny_busy_cycles": tiny_busy,
        "big_busy_cycles": big_busy,
        "tiny_idle_cycles": tiny_idle,
        "big_idle_cycles": big_idle,
        "l1_accesses": l1_accesses,
        "l2_accesses": (
            machine.l2.stats.get("accesses") + machine.l2.stats.get("writebacks")
        ),
        "dram_accesses": sum(mc.stats.get("accesses") for mc in machine.l2.dram),
        "noc_byte_hops": machine.traffic.total_byte_hops(),
        "uli_messages": machine.stats.child("uli_network").get("messages"),
    }


def energy_from_counts(
    counts: Dict[str, float], coefficients: Dict[str, float] = None
) -> EnergyReport:
    """Price a set of activity counts (see :func:`energy_counts`)."""
    c = dict(DEFAULT_ENERGY_PJ)
    if coefficients:
        c.update(coefficients)
    breakdown: Dict[str, float] = {}

    # Core energy: active cycles at full rate, idle cycles clock-gated.
    breakdown["cores"] = (
        counts["tiny_busy_cycles"] * c["tiny_core_cycle"]
        + counts["big_busy_cycles"] * c["big_core_cycle"]
        + counts["tiny_idle_cycles"] * c["tiny_core_cycle"] * c["idle_cycle_factor"]
        + counts["big_idle_cycles"] * c["big_core_cycle"] * c["idle_cycle_factor"]
    )
    # L1 energy: every load/store/AMO touches the array once.
    breakdown["l1"] = counts["l1_accesses"] * c["l1_access"]
    breakdown["l2"] = counts["l2_accesses"] * c["l2_access"]
    breakdown["dram"] = counts["dram_accesses"] * c["dram_access"]
    # NoC energy: proportional to byte-hops.
    breakdown["noc"] = counts["noc_byte_hops"] * c["noc_byte_hop"]
    breakdown["uli"] = counts["uli_messages"] * c["uli_message"]

    return EnergyReport(total_pj=sum(breakdown.values()), breakdown_pj=breakdown)


def estimate_energy(machine: Machine, coefficients: Dict[str, float] = None) -> EnergyReport:
    """Estimate the energy of a completed simulation on ``machine``."""
    return energy_from_counts(energy_counts(machine), coefficients)
