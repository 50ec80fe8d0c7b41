"""Per-application input parameters at each experiment scale.

The paper's inputs (Table III) are far too large for a pure-Python
simulator, so we apply the paper's own weak-scaling methodology: inputs
shrink with the simulated machine, keeping logical parallelism moderate
relative to core count.  ``grain`` (task granularity, GS in Table III) is
chosen per app the way Section V-D prescribes — large enough to amortize
runtime overhead, small enough to keep parallelism (for ligra-tc the grain
counts *edges* per task, for the other Ligra kernels vertices per task).
"""

from __future__ import annotations

from typing import Dict

#: app -> scale -> constructor kwargs.
APP_PARAMS: Dict[str, Dict[str, dict]] = {
    "cilk5-cs": {
        "tiny": dict(n=128, grain=32),
        "quick": dict(n=2048, grain=64),
        "paper": dict(n=4096, grain=64),
        "large": dict(n=6000, grain=64),
    },
    "cilk5-lu": {
        "tiny": dict(n=8, grain=4),
        "quick": dict(n=24, grain=4),
        "paper": dict(n=32, grain=4),
        "large": dict(n=32, grain=4),
    },
    "cilk5-mm": {
        "tiny": dict(n=8, grain=4),
        "quick": dict(n=16, grain=4),
        "paper": dict(n=32, grain=4),
        "large": dict(n=32, grain=4),
    },
    "cilk5-mt": {
        "tiny": dict(n=16, grain=8),
        "quick": dict(n=64, grain=8),
        "paper": dict(n=128, grain=8),
        "large": dict(n=128, grain=8),
    },
    "cilk5-nq": {
        "tiny": dict(n=5, cutoff=2),
        "quick": dict(n=7, cutoff=3),
        "paper": dict(n=8, cutoff=3),
        "large": dict(n=8, cutoff=3),
    },
    "ligra-bc": {
        "tiny": dict(scale=5, grain=8),
        "quick": dict(scale=9, grain=8),
        "paper": dict(scale=10, grain=8),
        "large": dict(scale=11, grain=8),
    },
    "ligra-bf": {
        "tiny": dict(scale=5, grain=8),
        "quick": dict(scale=9, grain=8),
        "paper": dict(scale=10, grain=8),
        "large": dict(scale=10, grain=8),
    },
    "ligra-bfs": {
        "tiny": dict(scale=5, grain=8),
        "quick": dict(scale=9, grain=8),
        "paper": dict(scale=11, grain=8),
        "large": dict(scale=12, grain=8),
    },
    "ligra-bfsbv": {
        "tiny": dict(scale=5, grain=8),
        "quick": dict(scale=9, grain=32),
        "paper": dict(scale=11, grain=64),
        "large": dict(scale=11, grain=64),
    },
    "ligra-cc": {
        "tiny": dict(scale=5, grain=8),
        "quick": dict(scale=9, grain=8),
        "paper": dict(scale=10, grain=8),
        "large": dict(scale=11, grain=8),
    },
    "ligra-mis": {
        "tiny": dict(scale=5, grain=8),
        "quick": dict(scale=9, grain=8),
        "paper": dict(scale=10, grain=8),
        "large": dict(scale=10, grain=8),
    },
    "ligra-radii": {
        "tiny": dict(scale=4, grain=8),
        "quick": dict(scale=7, grain=8),
        "paper": dict(scale=9, grain=8),
        "large": dict(scale=9, grain=8),
    },
    "ligra-tc": {
        "tiny": dict(scale=5, grain=16),
        "quick": dict(scale=8, grain=32),
        "paper": dict(scale=9, grain=32),
        "large": dict(scale=10, grain=32),
    },
    # Simulator-throughput microkernels (repro.apps.kernels) — not part of
    # Table III; sized for the fusion tests, not for paper figures.
    "kernel-spin": {
        "tiny": dict(iters=20_000, grain=2048),
        "quick": dict(iters=300_000, grain=8192),
        "paper": dict(iters=1_000_000, grain=16384),
        "large": dict(iters=4_000_000, grain=16384),
    },
    # n is sized to stay resident in a tiny core's 4 KB L1 (512 words), so
    # the steady state measures the hit path rather than L2 thrash.
    "kernel-stream": {
        "tiny": dict(n=128, passes=16, grain=64),
        "quick": dict(n=384, passes=160, grain=96),
        "paper": dict(n=384, passes=500, grain=96),
        "large": dict(n=384, passes=1000, grain=96),
    },
    # Deliberately wedged kernel (watchdog / crash-tolerant sweep tests);
    # takes no parameters at any scale.
    "kernel-deadlock": {
        "tiny": dict(),
        "quick": dict(),
        "paper": dict(),
        "large": dict(),
    },
}

#: Table V uses this subset of kernels at larger inputs (paper Section VI-D).
TABLE5_APPS = ("cilk5-cs", "ligra-bc", "ligra-bfs", "ligra-cc", "ligra-tc")


# ``app_name`` and ``scale`` are positional-only here and in the runner's
# ``workspan`` and ``_init_signature``: the Ligra apps take their own
# ``scale`` (graph size) as an override.
def app_params(app_name: str, scale: str, /, **overrides) -> dict:
    params = dict(APP_PARAMS[app_name][scale])
    params.update(overrides)
    return params
