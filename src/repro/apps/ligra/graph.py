"""Graph substrate for the Ligra-style kernels.

* :func:`rmat` — a from-scratch deterministic R-MAT edge generator (the
  paper's inputs are rMat graphs), recursively placing each edge into a
  quadrant with the classic (a, b, c, d) = (0.57, 0.19, 0.19, 0.05) split.
* :class:`HostGraph` — immutable host-side CSR with symmetrization,
  deduplication, sorted adjacency, and deterministic edge weights;
  :func:`rmat_graph` builds each distinct one once per process.
* :class:`SimGraph` — the CSR arrays in simulated memory with generator
  accessors used by the kernels.
"""

from __future__ import annotations

import functools
from itertools import accumulate
from typing import List, Optional, Tuple

from repro.apps.common import SimArray
from repro.engine.rng import XorShift64


def rmat(
    scale: int,
    avg_degree: int,
    seed: int = 42,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
) -> List[Tuple[int, int]]:
    """Generate ~``n * avg_degree`` R-MAT edges over ``n = 2**scale`` vertices."""
    n = 1 << scale
    n_edges = n * avg_degree
    random = XorShift64(seed).random
    ab = a + b
    abc = ab + c
    edges = []
    append = edges.append
    for _ in range(n_edges):
        u = v = 0
        half = n >> 1
        while half:
            r = random()
            if r < a:
                pass
            elif r < ab:
                v += half
            elif r < abc:
                u += half
            else:
                u += half
                v += half
            half >>= 1
        append((u, v))
    return edges


class HostGraph:
    """Host-side CSR graph built from an edge list.

    Immutable: ``offsets``, ``edge_targets`` and ``weights`` are tuples,
    because :func:`rmat_graph` hands one instance to every simulation of a
    process.
    """

    def __init__(
        self,
        n: int,
        edges: List[Tuple[int, int]],
        symmetric: bool = True,
        weighted: bool = False,
        weight_seed: int = 5,
    ):
        edge_set = set()
        for u, v in edges:
            if u == v:
                continue
            edge_set.add((u, v))
            if symmetric:
                edge_set.add((v, u))
        ordered = sorted(edge_set)
        counts = [0] * (n + 1)
        for u, _ in ordered:
            counts[u + 1] += 1
        self.n = n
        self.m = len(ordered)
        self.offsets: Tuple[int, ...] = tuple(accumulate(counts))
        self.edge_targets: Tuple[int, ...] = tuple(v for _, v in ordered)
        self.weights: Optional[Tuple[int, ...]] = None
        if weighted:
            rng = XorShift64(weight_seed)
            self.weights = tuple(1 + rng.randint(0, 7) for _ in range(self.m))

    def degree(self, v: int) -> int:
        return self.offsets[v + 1] - self.offsets[v]

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """``v``'s sorted adjacency: a slice of ``edge_targets``."""
        return self.edge_targets[self.offsets[v]:self.offsets[v + 1]]

    def edge_weight(self, v: int, edge_index: int) -> int:
        """Weight of the ``edge_index``-th outgoing edge of ``v``."""
        if self.weights is None:
            return 1
        return self.weights[self.offsets[v] + edge_index]


def rmat_graph(
    scale: int,
    avg_degree: int = 8,
    seed: int = 42,
    symmetric: bool = True,
    weighted: bool = False,
) -> HostGraph:
    """Generate an rMat edge list and build the CSR graph, once per process.

    Memoized on every argument (normalized, so positional and keyword calls
    share an entry); callers get the same immutable :class:`HostGraph`.
    """
    return _rmat_graph(scale, avg_degree, seed, symmetric, weighted)


# One scale's eight Ligra apps use at most five distinct graphs.
@functools.lru_cache(maxsize=8)
def _rmat_graph(scale, avg_degree, seed, symmetric, weighted) -> HostGraph:
    return HostGraph(1 << scale, rmat(scale, avg_degree, seed), symmetric, weighted)


class SimGraph:
    """CSR graph resident in simulated memory."""

    def __init__(self, machine, graph: HostGraph, name: str = "graph"):
        self.host = graph
        self.n = graph.n
        self.m = graph.m
        self.offsets = SimArray(machine, graph.n + 1, f"{name}_offsets")
        self.offsets.host_init(graph.offsets)
        self.edges = SimArray(machine, max(1, graph.m), f"{name}_edges")
        if graph.m:
            self.edges.host_init(graph.edge_targets)
        self.weights: Optional[SimArray] = None
        if graph.weights is not None:
            self.weights = SimArray(machine, max(1, graph.m), f"{name}_weights")
            self.weights.host_init(graph.weights)

    # ------------------------------------------------------------------
    # Simulated accessors: ``yield`` the result of each
    # ------------------------------------------------------------------
    def edge_range(self, ctx, v: int):
        """Load [start, end) of v's adjacency (two offset loads)."""
        start = yield self.offsets.load(ctx, v)
        end = yield self.offsets.load(ctx, v + 1)
        return start, end

    def edge_target(self, ctx, edge_index: int):
        """The load op of one edge's target vertex."""
        return self.edges.load(ctx, edge_index)

    def edge_weight(self, ctx, edge_index: int):
        if self.weights is None:
            return 1
        weight = yield self.weights.load(ctx, edge_index)
        return weight
