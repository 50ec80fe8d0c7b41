"""ligra-bf: Bellman-Ford single-source shortest paths.

Integer edge weights; relaxation uses ``amo_min`` on the distance array
(Ligra's CAS-style writeMin).  A vertex whose distance improved joins the
next round's dense frontier.  Terminates when a round relaxes nothing.
"""

from __future__ import annotations

from repro.apps.common import register_app
from repro.apps.ligra.base import LigraApp

INF = 1 << 40


@register_app("ligra-bf")
class LigraBellmanFord(LigraApp):
    name = "ligra-bf"
    weighted = True

    def setup_arrays(self, machine) -> None:
        n = self.graph.n
        self.dist = self.array("dist", [INF] * n)
        self.front = [self.array("front0", [0] * n), self.array("front1", [0] * n)]
        self.count_addr = self.counter("relaxed")
        self.src = self.source_vertex()

    def run(self, rt, ctx, grain: int):
        yield self.dist.store(ctx, self.src, 0)
        yield self.front[0].store(ctx, self.src, 1)
        round_index = 0
        while round_index < self.graph.n:  # Bellman-Ford bound
            yield ctx.amo("xchg", self.count_addr, 0)
            cur = self.front[round_index % 2]
            nxt = self.front[(round_index + 1) % 2]

            def body(rt, ctx, lo, hi, cur=cur, nxt=nxt):
                relaxed = 0
                for v in range(lo, hi):
                    active = yield cur.load(ctx, v)
                    yield ctx.work(1)
                    if not active:
                        continue
                    yield cur.store(ctx, v, 0)
                    dv = yield self.dist.load(ctx, v)
                    start, end = yield self.g.edge_range(ctx, v)
                    for e in range(start, end):
                        u = yield self.g.edge_target(ctx, e)
                        w = yield self.g.edge_weight(ctx, e)
                        candidate = dv + w
                        yield ctx.work(1)
                        old = yield self.dist.amo(ctx, "min", u, candidate)
                        if candidate < old:
                            was = yield nxt.load(ctx, u)
                            if not was:
                                yield nxt.store(ctx, u, 1)
                            relaxed += 1
                if relaxed:
                    yield ctx.amo_add(self.count_addr, relaxed)

            yield self.pfor(rt, ctx, body, grain)
            relaxed = yield ctx.load(self.count_addr)
            if relaxed == 0:
                break
            round_index += 1

    def check(self) -> None:
        import heapq

        expected = [INF] * self.graph.n
        expected[self.src] = 0
        heap = [(0, self.src)]
        while heap:
            d, v = heapq.heappop(heap)
            if d > expected[v]:
                continue
            for i, u in enumerate(self.graph.neighbors(v)):
                nd = d + self.graph.edge_weight(v, i)
                if nd < expected[u]:
                    expected[u] = nd
                    heapq.heappush(heap, (nd, u))
        got = self.dist.host_read()
        assert got == expected, "ligra-bf: distance array mismatch"
