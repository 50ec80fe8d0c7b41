"""Ablation of a runtime design choice beyond the paper's main matrix:
lock-based deques (the paper's Figure 3 choice) vs Chase-Lev lock-free
deques, on hardware coherence and on HCC.

The lock-free deque issues every control access as an AMO (at the shared
L2 for the GPU protocols), so AMO counts rise.  That does not make it
slower on this model: on cilk5-cs and ligra-bfs at quick scale, machine
seeds 0-3, it ran in 0.68-1.00x the lock's cycles with 1.10-2.17x its
AMOs (EXPERIMENTS.md, "Runtime design choices").  The cycles alone do not
explain the paper's choice of the lock.
"""

from repro.apps import make_app
from repro.config import make_config
from repro.core import WorkStealingRuntime
from repro.harness import app_params
from repro.machine import Machine

from conftest import print_block

APP = "cilk5-cs"


def run_one(kind, scale, **rt_kwargs):
    app = make_app(APP, **app_params(APP, scale))
    machine = Machine(make_config(kind, scale))
    app.setup(machine)
    rt = WorkStealingRuntime(machine, **rt_kwargs)
    cycles = rt.run(app.make_root())
    app.check()
    return cycles, rt.stats.get("steals"), machine.aggregate_l1_stats()["amos"]


def test_deque_kind_ablation(benchmark, scale):
    def collect():
        table = {}
        for kind in ("bt-mesi", "bt-hcc-gwb"):
            table[(kind, "lock")] = run_one(kind, scale, deque_kind="lock")
            table[(kind, "chase-lev")] = run_one(kind, scale, deque_kind="chase-lev")
        return table

    table = benchmark.pedantic(collect, rounds=1, iterations=1)
    lines = [f"Deque ablation on {APP} (cycles / steals / AMOs):"]
    for (kind, deque_kind), (cycles, steals, amos) in table.items():
        lines.append(f"  {kind:12s} {deque_kind:10s} {cycles:>9d} {steals:>6d} {amos:>8d}")
    print_block("\n".join(lines))

    # The lock-free deque trades the lock for mandatory AMO control
    # accesses: AMO counts rise on both machines.
    assert table[("bt-mesi", "chase-lev")][2] > table[("bt-mesi", "lock")][2] * 0.8
    # Every configuration still computed the right answer (checked inside
    # run_one); both deques complete in the same order of magnitude.
    for kind in ("bt-mesi", "bt-hcc-gwb"):
        ratio = table[(kind, "chase-lev")][0] / table[(kind, "lock")][0]
        assert 0.2 < ratio < 5.0

