"""Tests for the Ligra edgeMap/vertexMap framework layer."""

import pytest

from repro.apps import make_app
from repro.apps.ligra.edgemap import DenseFrontier, vertex_map
from repro.core import Task, WorkStealingRuntime

from helpers import run_thread, tiny_machine


def drive(machine, core_id, gen):
    def wrapper():
        yield gen

    run_thread(machine, core_id, wrapper())


class TestDenseFrontier:
    def test_add_then_test_and_clear(self):
        machine = tiny_machine()
        frontier = DenseFrontier(machine, 8, "f")
        ctx = machine.make_contexts()[1]
        results = []

        def body():
            yield frontier.add(ctx, 3)
            results.append((yield frontier.test_and_clear(ctx, 3)))
            results.append((yield frontier.test_and_clear(ctx, 3)))
            results.append((yield frontier.test_and_clear(ctx, 5)))

        drive(machine, 1, body())
        assert results == [True, False, False]

    def test_size_counter(self):
        machine = tiny_machine()
        frontier = DenseFrontier(machine, 8, "f")
        ctx = machine.make_contexts()[1]
        sizes = []

        def body():
            yield frontier.reset_size(ctx)
            yield frontier.add_size(ctx, 3)
            yield frontier.add_size(ctx, 0)  # no-op
            yield frontier.add_size(ctx, 2)
            sizes.append((yield frontier.read_size(ctx)))
            yield frontier.reset_size(ctx)
            sizes.append((yield frontier.read_size(ctx)))

        drive(machine, 1, body())
        assert sizes == [5, 0]


class TestVertexMap:
    def test_applies_to_every_vertex(self):
        machine = tiny_machine("bt-hcc-gwb")
        rt = WorkStealingRuntime(machine)
        out = machine.address_space.alloc_words(10, "out")

        class Root(Task):
            def execute(self, rt, ctx):
                def functor(ctx, v):
                    yield ctx.store(out + v * 8, v * v)

                yield vertex_map(rt, ctx, 10, functor, grain=3)

        rt.run(Root())
        assert machine.host_read_array(out, 10) == [v * v for v in range(10)]


@pytest.mark.parametrize(
    "kind", ("bt-mesi", "bt-hcc-dnv", "bt-hcc-gwt", "bt-hcc-gwb", "bt-hcc-dts-gwb")
)
def test_edgemap_bfs_on_every_config(kind):
    app = make_app("ligra-bfs-em", scale=5, grain=8)
    machine = tiny_machine(kind)
    app.setup(machine)
    rt = WorkStealingRuntime(machine)
    rt.run(app.make_root())
    app.check()


def test_edgemap_bfs_matches_inline_bfs_reachability():
    """The framework BFS and the hand-inlined BFS agree on reachability."""
    em = make_app("ligra-bfs-em", scale=5, grain=8)
    machine_a = tiny_machine("bt-hcc-gwb")
    em.setup(machine_a)
    WorkStealingRuntime(machine_a).run(em.make_root())
    em.check()

    inline = make_app("ligra-bfs", scale=5, grain=8)
    machine_b = tiny_machine("bt-hcc-gwb")
    inline.setup(machine_b)
    WorkStealingRuntime(machine_b).run(inline.make_root())
    inline.check()

    reach_em = [p != -1 for p in em.parent.host_read()]
    reach_inline = [p != -1 for p in inline.parent.host_read()]
    assert reach_em == reach_inline
