"""ligra-bc: single-source betweenness centrality (Brandes, level-sync).

Forward pass: BFS from the source accumulating shortest-path counts
(``sigma``) with ``amo_add`` — the path-count contributions commute, so the
result is deterministic despite racy discovery (CAS on levels).  Backward
pass: per BFS level, from deepest to shallowest, each vertex pulls the
dependency contributions of its successors (single writer per vertex).
"""

from __future__ import annotations

from repro.apps.common import register_app
from repro.apps.ligra.base import LigraApp


@register_app("ligra-bc")
class LigraBetweennessCentrality(LigraApp):
    name = "ligra-bc"

    def setup_arrays(self, machine) -> None:
        n = self.graph.n
        self.level = self.array("level", [-1] * n)
        self.sigma = self.array("sigma", [0] * n)
        self.delta = self.array("delta", [0.0] * n)
        self.front = [self.array("front0", [0] * n), self.array("front1", [0] * n)]
        self.count_addr = self.counter("frontier_size")
        self.src = self.source_vertex()

    def run(self, rt, ctx, grain: int):
        src = self.src
        yield self.level.store(ctx, src, 0)
        yield self.sigma.store(ctx, src, 1)
        yield self.front[0].store(ctx, src, 1)
        depth = 0
        while True:
            yield ctx.amo("xchg", self.count_addr, 0)
            cur = self.front[depth % 2]
            nxt = self.front[(depth + 1) % 2]
            next_level = depth + 1

            def forward(rt, ctx, lo, hi, cur=cur, nxt=nxt, next_level=next_level):
                discovered = 0
                for v in range(lo, hi):
                    active = yield cur.load(ctx, v)
                    yield ctx.work(1)
                    if not active:
                        continue
                    yield cur.store(ctx, v, 0)
                    sigma_v = yield self.sigma.load(ctx, v)
                    start, end = yield self.g.edge_range(ctx, v)
                    for e in range(start, end):
                        u = yield self.g.edge_target(ctx, e)
                        lu = yield self.level.load(ctx, u)
                        yield ctx.work(1)
                        if lu == -1:
                            old = yield self.level.cas(ctx, u, -1, next_level)
                            if old == -1:
                                yield nxt.store(ctx, u, 1)
                                discovered += 1
                                lu = next_level
                            else:
                                lu = old
                        if lu == next_level:
                            yield self.sigma.amo(ctx, "add", u, sigma_v)
                if discovered:
                    yield ctx.amo_add(self.count_addr, discovered)

            yield self.pfor(rt, ctx, forward, grain)
            size = yield ctx.load(self.count_addr)
            if size == 0:
                break
            depth += 1

        # Backward dependency accumulation, level by level.
        for r in range(depth - 1, -1, -1):
            def backward(rt, ctx, lo, hi, r=r):
                for v in range(lo, hi):
                    lv = yield self.level.load(ctx, v)
                    yield ctx.work(1)
                    if lv != r:
                        continue
                    sigma_v = yield self.sigma.load(ctx, v)
                    start, end = yield self.g.edge_range(ctx, v)
                    acc = 0.0
                    for e in range(start, end):
                        u = yield self.g.edge_target(ctx, e)
                        lu = yield self.level.load(ctx, u)
                        yield ctx.work(1)
                        if lu != r + 1:
                            continue
                        sigma_u = yield self.sigma.load(ctx, u)
                        delta_u = yield self.delta.load(ctx, u)
                        yield ctx.work(3)
                        acc += sigma_v / sigma_u * (1.0 + delta_u)
                    yield self.delta.store(ctx, v, acc)

            yield self.pfor(rt, ctx, backward, grain)

    def check(self) -> None:
        exp_level, exp_sigma, exp_delta = self._reference()
        assert self.level.host_read() == exp_level, "ligra-bc: levels mismatch"
        assert self.sigma.host_read() == exp_sigma, "ligra-bc: sigma mismatch"
        got_delta = self.delta.host_read()
        for v in range(self.graph.n):
            assert abs(got_delta[v] - exp_delta[v]) < 1e-9, (
                f"ligra-bc: delta[{v}] = {got_delta[v]}, expected {exp_delta[v]}"
            )

    def _reference(self):
        from collections import deque

        n = self.graph.n
        level = [-1] * n
        sigma = [0] * n
        level[self.src] = 0
        sigma[self.src] = 1
        queue = deque([self.src])
        order = []
        while queue:
            v = queue.popleft()
            order.append(v)
            for u in self.graph.neighbors(v):
                if level[u] == -1:
                    level[u] = level[v] + 1
                    queue.append(u)
                if level[u] == level[v] + 1:
                    sigma[u] += sigma[v]
        delta = [0.0] * n
        for v in reversed(order):
            acc = 0.0
            for u in self.graph.neighbors(v):
                if level[u] == level[v] + 1:
                    acc += sigma[v] / sigma[u] * (1.0 + delta[u])
            delta[v] = acc
        return level, sigma, delta
