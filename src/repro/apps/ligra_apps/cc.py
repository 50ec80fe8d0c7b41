"""ligra-cc: connected components by label propagation.

Every vertex starts with its own id as label; active vertices push their
label to neighbors with ``amo_min`` (Ligra's writeMin), activating any
neighbor whose label shrank.  At convergence every vertex holds the minimum
vertex id of its component.
"""

from __future__ import annotations

from repro.apps.common import register_app
from repro.apps.ligra.base import LigraApp


@register_app("ligra-cc")
class LigraConnectedComponents(LigraApp):
    name = "ligra-cc"

    def setup_arrays(self, machine) -> None:
        n = self.graph.n
        self.labels = self.array("labels", list(range(n)))
        self.front = [self.array("front0", [1] * n), self.array("front1", [0] * n)]
        self.count_addr = self.counter("changed")

    def run(self, rt, ctx, grain: int):
        round_index = 0
        while round_index < self.graph.n:
            yield ctx.amo("xchg", self.count_addr, 0)
            cur = self.front[round_index % 2]
            nxt = self.front[(round_index + 1) % 2]

            def body(rt, ctx, lo, hi, cur=cur, nxt=nxt):
                changed = 0
                for v in range(lo, hi):
                    active = yield cur.load(ctx, v)
                    yield ctx.work(1)
                    if not active:
                        continue
                    yield cur.store(ctx, v, 0)
                    label_v = yield self.labels.load(ctx, v)
                    start, end = yield self.g.edge_range(ctx, v)
                    for e in range(start, end):
                        u = yield self.g.edge_target(ctx, e)
                        label_u = yield self.labels.load(ctx, u)
                        yield ctx.work(1)
                        if label_v < label_u:
                            old = yield self.labels.amo(ctx, "min", u, label_v)
                            if label_v < old:
                                yield nxt.store(ctx, u, 1)
                                changed += 1
                if changed:
                    yield ctx.amo_add(self.count_addr, changed)

            yield self.pfor(rt, ctx, body, grain)
            changed = yield ctx.load(self.count_addr)
            if changed == 0:
                break
            round_index += 1

    def check(self) -> None:
        expected = self._reference_components()
        got = self.labels.host_read()
        assert got == expected, "ligra-cc: component labels mismatch"

    def _reference_components(self):
        n = self.graph.n
        labels = list(range(n))
        # Min-label within each component, via BFS from each unvisited min.
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            component = [start]
            seen[start] = True
            stack = [start]
            while stack:
                v = stack.pop()
                for u in self.graph.neighbors(v):
                    if not seen[u]:
                        seen[u] = True
                        component.append(u)
                        stack.append(u)
            lowest = min(component)
            for v in component:
                labels[v] = lowest
        return labels
