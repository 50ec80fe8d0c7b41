"""Ablation of a runtime design choice beyond the paper's main matrix:
lock-based deques (the paper's Figure 3 choice) vs Chase-Lev lock-free
deques, on hardware coherence and on HCC.

The lock-free deque issues every control access as an AMO (at the shared
L2 for the GPU protocols), so AMO counts rise.  That does not make it
slower on this model: on cilk5-cs and ligra-bfs at quick scale, machine
seeds 0-3, it ran in 0.68-1.00x the lock's cycles, faster in 16 of 16
runs, with 1.10-2.17x its AMOs (EXPERIMENTS.md, "Runtime design
choices").  The test re-runs exactly those 16 pairs and asserts that
claim.  The cycles alone do not explain the paper's choice of the lock.
"""

from repro.apps import make_app
from repro.config import make_config
from repro.core import WorkStealingRuntime
from repro.harness import app_params
from repro.machine import Machine

from conftest import print_block

APP = "cilk5-cs"
KINDS = ("bt-mesi", "bt-hcc-gwb")

#: The runs behind the EXPERIMENTS.md claim: apps x machines x machine
#: seeds, at quick scale.
CLAIM_APPS = ("cilk5-cs", "ligra-bfs")
CLAIM_SEEDS = range(4)


def run_one(app_name, kind, scale, config_overrides=None, **rt_kwargs):
    app = make_app(app_name, **app_params(app_name, scale))
    machine = Machine(make_config(kind, scale, **(config_overrides or {})))
    app.setup(machine)
    rt = WorkStealingRuntime(machine, **rt_kwargs)
    cycles = rt.run(app.make_root())
    app.check()
    return cycles, rt.stats.get("steals"), machine.aggregate_l1_stats()["amos"]


def test_deque_kind_ablation(benchmark, scale):
    def collect():
        table = {}
        for kind in KINDS:
            for deque_kind in ("lock", "chase-lev"):
                table[(kind, deque_kind)] = run_one(
                    APP, kind, scale, deque_kind=deque_kind
                )
        claim = {}
        for app_name in CLAIM_APPS:
            for kind in KINDS:
                for seed in CLAIM_SEEDS:
                    claim[(app_name, kind, seed)] = [
                        run_one(app_name, kind, "quick", dict(seed=seed),
                                deque_kind=deque_kind)
                        for deque_kind in ("lock", "chase-lev")
                    ]
        return table, claim

    table, claim = benchmark.pedantic(collect, rounds=1, iterations=1)
    lines = [f"Deque ablation on {APP} (cycles / steals / AMOs):"]
    for (kind, deque_kind), (cycles, steals, amos) in table.items():
        lines.append(f"  {kind:12s} {deque_kind:10s} {cycles:>9d} {steals:>6d} {amos:>8d}")
    print_block("\n".join(lines))

    # The lock-free deque trades the lock for mandatory AMO control
    # accesses: AMO counts rise.  Both deques complete in the same order
    # of magnitude (this table runs at the benchmark scale).
    assert table[("bt-mesi", "chase-lev")][2] > table[("bt-mesi", "lock")][2] * 0.8
    for kind in KINDS:
        ratio = table[(kind, "chase-lev")][0] / table[(kind, "lock")][0]
        assert 0.2 < ratio < 5.0

    # EXPERIMENTS.md: 0.68-1.00x the lock's cycles, faster in 16 of 16
    # runs, AMOs 1.10-2.17x (ratios as printed there, to two places).
    for run, (lock, chase_lev) in claim.items():
        cycles_ratio = chase_lev[0] / lock[0]
        amos_ratio = chase_lev[2] / lock[2]
        assert chase_lev[0] < lock[0], (run, lock, chase_lev)
        assert 0.68 <= round(cycles_ratio, 2) <= 1.00, (run, cycles_ratio)
        assert 1.10 <= round(amos_ratio, 2) <= 2.17, (run, amos_ratio)
