"""ligra-radii: graph radius/eccentricity estimation by multi-source BFS.

K <= 64 sources run simultaneous BFS, one bit per source packed into a
single word per vertex.  Each round every vertex ORs its neighbors' bit
sets (pull direction, double buffered, hence fully deterministic); the last
round in which a vertex's set grew estimates its eccentricity, and the max
over vertices estimates the graph radius — the same bit-trick the Ligra
radii kernel uses.
"""

from __future__ import annotations

from repro.apps.common import register_app
from repro.apps.ligra.base import LigraApp


@register_app("ligra-radii")
class LigraRadii(LigraApp):
    name = "ligra-radii"

    K = 64

    def setup_arrays(self, machine) -> None:
        n = self.graph.n
        self.k = min(self.K, n)
        # Sources: the k highest-degree vertices (deterministic spread).
        by_degree = sorted(range(n), key=lambda v: (-self.graph.degree(v), v))
        self.sources = by_degree[: self.k]
        init = [0] * n
        for bit, src in enumerate(self.sources):
            init[src] = 1 << bit
        self.vis = [self.array("vis0", init), self.array("vis1", list(init))]
        self.radii = self.array("radii", [0] * n)
        self.changed_addr = self.counter("changed")

    def run(self, rt, ctx, grain: int):
        round_index = 1
        while round_index <= self.graph.n:
            yield ctx.amo("xchg", self.changed_addr, 0)
            cur = self.vis[(round_index - 1) % 2]
            nxt = self.vis[round_index % 2]

            def body(rt, ctx, lo, hi, cur=cur, nxt=nxt, r=round_index):
                any_changed = 0
                for v in range(lo, hi):
                    bits = yield cur.load(ctx, v)
                    acc = bits
                    start, end = yield self.g.edge_range(ctx, v)
                    for e in range(start, end):
                        u = yield self.g.edge_target(ctx, e)
                        nbr_bits = yield cur.load(ctx, u)
                        yield ctx.work(1)
                        acc |= nbr_bits
                    yield nxt.store(ctx, v, acc)
                    if acc != bits:
                        yield self.radii.store(ctx, v, r)
                        any_changed = 1
                if any_changed:
                    yield ctx.amo_or(self.changed_addr, 1)

            yield self.pfor(rt, ctx, body, grain)
            changed = yield ctx.load(self.changed_addr)
            if changed == 0:
                break
            round_index += 1

    def check(self) -> None:
        expected_radii, _ = self._reference()
        got = self.radii.host_read()
        assert got == expected_radii, "ligra-radii: eccentricity estimates mismatch"

    def _reference(self):
        n = self.graph.n
        vis = [0] * n
        for bit, src in enumerate(self.sources):
            vis[src] = 1 << bit
        radii = [0] * n
        round_index = 1
        while round_index <= n:
            nxt = [0] * n
            changed = False
            for v in range(n):
                acc = vis[v]
                for u in self.graph.neighbors(v):
                    acc |= vis[u]
                nxt[v] = acc
                if acc != vis[v]:
                    radii[v] = round_index
                    changed = True
            vis = nxt
            if not changed:
                break
            round_index += 1
        return radii, vis
