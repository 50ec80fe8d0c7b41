"""Shared machinery for the Ligra-style applications.

All eight graph kernels follow the same pattern: an rMat input graph, flat
vertex-property arrays in simulated memory, and a root task that runs
synchronous rounds of ``parallel_for`` over the vertex set (loop-level
parallelization, "pf" in Table III).  The grain size — vertices per leaf
task — is the task-granularity knob of Section V-D.

Cross-round visibility relies entirely on the runtime's DAG-consistency
machinery (flush on steal/handoff, invalidate on join), so these kernels
are genuine end-to-end tests of the Figure 3 protocols.  Counters that
multiple leaves update concurrently use AMOs (``amo_add``/``amo_or``/CAS),
the fine-grained synchronization the paper calls out for Ligra apps.
"""

from __future__ import annotations

from typing import List

from repro.apps.common import AppInstance, SimArray
from repro.apps.ligra.graph import HostGraph, SimGraph, rmat_graph
from repro.core.patterns import parallel_for
from repro.core.task import Task


class _LigraRootTask(Task):
    ARG_WORDS = 1

    def __init__(self, app: "LigraApp", grain: int):
        super().__init__()
        self.app = app
        self.grain = grain

    def execute(self, rt, ctx):
        yield self.app.run(rt, ctx, self.grain)


class LigraApp(AppInstance):
    """Base class: graph setup + round-synchronous parallel_for helpers."""

    pm = "pf"
    weighted = False

    def __init__(self, scale: int = 7, avg_degree: int = 8, grain: int = 16, seed: int = 42):
        super().__init__()
        self.scale = scale
        self.avg_degree = avg_degree
        self.grain = max(1, grain)
        self.seed = seed
        self.graph: HostGraph = None
        self.g: SimGraph = None

    # ------------------------------------------------------------------
    # AppInstance contract
    # ------------------------------------------------------------------
    def setup(self, machine) -> None:
        self.machine = machine
        self.graph = rmat_graph(
            self.scale, self.avg_degree, self.seed, symmetric=True, weighted=self.weighted
        )
        self.g = SimGraph(machine, self.graph, self.name.replace("-", "_"))
        self.setup_arrays(machine)

    def setup_arrays(self, machine) -> None:
        """Allocate and host-initialize the app's vertex property arrays."""
        raise NotImplementedError

    def make_root(self, serial: bool = False) -> Task:
        grain = self.graph.n if serial else self.grain
        return _LigraRootTask(self, grain)

    def run(self, rt, ctx, grain: int):
        """The kernel body (generator); implemented by each app."""
        raise NotImplementedError
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    # Helpers for subclasses
    # ------------------------------------------------------------------
    def array(self, name: str, values: List[int]) -> SimArray:
        arr = SimArray(self.machine, len(values), f"{self.name}_{name}")
        arr.host_init(values)
        return arr

    def counter(self, name: str) -> int:
        addr = self.machine.address_space.alloc_words(1, f"{self.name}_{name}")
        self.machine.host_write_word(addr, 0)
        return addr

    def pfor(self, rt, ctx, body, grain: int, n: int = -1):
        """parallel_for over [0, n) vertices (default: the whole vertex set)."""
        hi = self.graph.n if n < 0 else n
        yield parallel_for(rt, ctx, 0, hi, body, grain)

    def source_vertex(self) -> int:
        """Highest-degree vertex: the conventional BFS/SSSP source."""
        degrees = [self.graph.degree(v) for v in range(self.graph.n)]
        return max(range(self.graph.n), key=lambda v: (degrees[v], -v))
