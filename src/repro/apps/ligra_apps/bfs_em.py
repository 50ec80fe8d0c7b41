"""ligra-bfs-em: BFS written against the edgeMap framework (extension).

The same algorithm as ``ligra-bfs`` but expressed exactly the way the
original Ligra code is written — a BFS functor handed to ``edge_map`` each
round — validating the framework layer end to end.  Registered as an
extension app (not one of the paper's 13); the test suite runs it on every
coherence configuration and checks it against the same BFS reference.
"""

from __future__ import annotations

from repro.apps.common import register_app
from repro.apps.ligra.base import LigraApp
from repro.apps.ligra.edgemap import DenseFrontier, EdgeMapF, edge_map


class _BfsF(EdgeMapF):
    """Ligra's BFS_F: claim undiscovered vertices with CAS on parent."""

    def __init__(self, parent):
        self.parent = parent

    def cond(self, ctx, v: int):
        p = yield self.parent.load(ctx, v)
        return p == -1

    def update(self, ctx, u: int, v: int):
        old = yield self.parent.cas(ctx, v, -1, u)
        return old == -1


@register_app("ligra-bfs-em")
class LigraBfsEdgeMap(LigraApp):
    name = "ligra-bfs-em"

    def setup_arrays(self, machine) -> None:
        n = self.graph.n
        self.parent = self.array("parent", [-1] * n)
        self.frontiers = [
            DenseFrontier(machine, n, f"{self.name}_f0"),
            DenseFrontier(machine, n, f"{self.name}_f1"),
        ]
        self.src = self.source_vertex()

    def run(self, rt, ctx, grain: int):
        yield self.parent.store(ctx, self.src, self.src)
        yield self.frontiers[0].add(ctx, self.src)
        functor = _BfsF(self.parent)
        round_index = 0
        while True:
            cur = self.frontiers[round_index % 2]
            nxt = self.frontiers[(round_index + 1) % 2]
            yield edge_map(rt, ctx, self.g, cur, nxt, functor, grain)
            size = yield nxt.read_size(ctx)
            if size == 0:
                break
            round_index += 1

    def check(self) -> None:
        from collections import deque

        dist = [None] * self.graph.n
        dist[self.src] = 0
        queue = deque([self.src])
        while queue:
            v = queue.popleft()
            for u in self.graph.neighbors(v):
                if dist[u] is None:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        parent = self.parent.host_read()
        for v in range(self.graph.n):
            if dist[v] is None:
                assert parent[v] == -1, f"ligra-bfs-em: unreachable {v} claimed"
            else:
                assert parent[v] != -1, f"ligra-bfs-em: reachable {v} unclaimed"
                if v != self.src:
                    assert v in self.graph.neighbors(parent[v])
                    assert dist[parent[v]] == dist[v] - 1, (
                        f"ligra-bfs-em: non-BFS parent for {v}"
                    )
