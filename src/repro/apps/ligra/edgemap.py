"""Ligra's edgeMap / vertexMap programming interface (framework layer).

Ligra [Shun & Blelloch, PPoPP'13] structures graph algorithms as a sequence
of rounds over a *frontier* (a vertex subset):

* ``edge_map(graph, frontier, F)`` — for every edge (u, v) with u in the
  frontier, apply ``F.update(u, v)``; v joins the output frontier when the
  update returns True and ``F.cond(v)`` holds.
* ``vertex_map(frontier, F)`` — apply F to every frontier vertex.

The paper's eight Ligra kernels are expressed in this style in the original
C++; our ports in ``repro.apps.ligra_apps`` inline the pattern per kernel
for clarity.  This module provides the actual reusable framework (dense
frontier representation, double buffering, frontier-size tracking through a
shared counter) so new algorithms can be written exactly the Ligra way —
see :class:`repro.apps.ligra_apps.bfs_em.LigraBfsEdgeMap` and the tests.

All framework state lives in simulated memory: frontier membership flags,
the size counter (AMO-updated), and of course the CSR arrays — so the
framework inherits the DAG-consistency requirements the runtime satisfies.
"""

from __future__ import annotations

from repro.apps.common import SimArray
from repro.apps.ligra.graph import SimGraph
from repro.core.patterns import parallel_for


class DenseFrontier:
    """A dense vertex subset: one word flag per vertex, plus a size counter.

    Two frontiers are typically used in alternation (cur/next); the round
    driver swaps them.  ``clear-on-read`` semantics: a vertex's flag is
    reset by the chunk that consumes it, so a frontier object is immediately
    reusable as the *next* frontier two rounds later.
    """

    def __init__(self, machine, n: int, name: str):
        self.n = n
        self.flags = SimArray(machine, n, f"{name}_flags")
        self.flags.host_fill(0)
        self.size_addr = machine.address_space.alloc_words(1, f"{name}_size")
        machine.host_write_word(self.size_addr, 0)

    # Generator helpers -------------------------------------------------
    def add(self, ctx, v: int):
        """Insert v (idempotent store; caller counts separately)."""
        yield self.flags.store(ctx, v, 1)

    def test_and_clear(self, ctx, v: int):
        active = yield self.flags.load(ctx, v)
        if active:
            yield self.flags.store(ctx, v, 0)
        return bool(active)

    def reset_size(self, ctx):
        yield ctx.amo("xchg", self.size_addr, 0)

    def add_size(self, ctx, count: int):
        if count:
            yield ctx.amo_add(self.size_addr, count)

    def read_size(self, ctx):
        size = yield ctx.load(self.size_addr)
        return size


class EdgeMapF:
    """User functor for :func:`edge_map` (Ligra's ``struct F``).

    Subclasses implement generator methods:

    * ``update(ctx, u, v)``  -> True if v should join the output frontier
      (must itself be idempotent/atomic, e.g. CAS-based);
    * ``cond(ctx, v)``       -> False to skip the edge entirely.
    """

    def update(self, ctx, u: int, v: int):
        raise NotImplementedError
        yield  # pragma: no cover

    def cond(self, ctx, v: int):
        return True
        yield  # pragma: no cover


def edge_map(rt, ctx, graph: SimGraph, frontier_cur: DenseFrontier,
             frontier_next: DenseFrontier, functor: EdgeMapF, grain: int):
    """Apply ``functor`` over all out-edges of the current frontier.

    Returns nothing; the output frontier's size counter holds the number
    of newly added vertices (read it with ``frontier_next.read_size``).
    """
    yield frontier_next.reset_size(ctx)

    def body(rt, ctx, lo, hi):
        added = 0
        for u in range(lo, hi):
            active = yield frontier_cur.test_and_clear(ctx, u)
            yield ctx.work(1)
            if not active:
                continue
            start, end = yield graph.edge_range(ctx, u)
            for e in range(start, end):
                v = yield graph.edge_target(ctx, e)
                ok = yield functor.cond(ctx, v)
                yield ctx.work(1)
                if not ok:
                    continue
                joined = yield functor.update(ctx, u, v)
                if joined:
                    yield frontier_next.add(ctx, v)
                    added += 1
        yield frontier_next.add_size(ctx, added)

    yield parallel_for(rt, ctx, 0, graph.n, body, grain)


def vertex_map(rt, ctx, n: int, functor, grain: int):
    """Apply a generator ``functor(ctx, v)`` to every vertex in [0, n)."""

    def body(rt, ctx, lo, hi):
        for v in range(lo, hi):
            yield functor(ctx, v)

    yield parallel_for(rt, ctx, 0, n, body, grain)
