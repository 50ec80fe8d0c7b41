#!/usr/bin/env python
"""Writing your own task-parallel application against the public API.

Implements a parallel dot-product from scratch: data lives in simulated
memory (every element access is a real cache access in the model), leaves
accumulate partial sums, and a single AMO per leaf publishes into a global
accumulator — the standard reduction recipe on machines where atomics may
execute at the shared cache.

Demonstrates:
 * allocating simulated arrays,
 * a custom ``Task`` subclass,
 * ``parallel_for`` with a grain size,
 * running the same program on several coherence configurations and
   validating the result.

Run:  python examples/custom_application.py
"""

from repro import Machine, Task, WorkStealingRuntime, make_config, parallel_for
from repro.engine.rng import XorShift64
from repro.mem.address import WORD_BYTES


class DotProduct(Task):
    """sum(a[i] * b[i]) with a tree reduction over leaf partial sums."""

    ARG_WORDS = 3

    def __init__(self, a_base: int, b_base: int, n: int, out_addr: int, grain: int):
        super().__init__()
        self.a_base = a_base
        self.b_base = b_base
        self.n = n
        self.out_addr = out_addr
        self.grain = grain

    def execute(self, rt, ctx):
        def body(rt, ctx, lo, hi):
            partial = 0
            for i in range(lo, hi):
                a = yield ctx.load(self.a_base + i * WORD_BYTES)
                b = yield ctx.load(self.b_base + i * WORD_BYTES)
                yield ctx.work(2)  # multiply-accumulate
                partial += a * b
            # One atomic per leaf: correct on every protocol, including the
            # GPU ones where AMOs execute at the shared L2.
            yield ctx.amo_add(self.out_addr, partial)

        yield parallel_for(rt, ctx, 0, self.n, body, self.grain)


def main() -> None:
    n, grain = 1024, 64
    rng = XorShift64(2026)
    a_values = [rng.randint(0, 100) for _ in range(n)]
    b_values = [rng.randint(0, 100) for _ in range(n)]
    expected = sum(x * y for x, y in zip(a_values, b_values))

    print(f"parallel dot product, n={n}, grain={grain}, expected={expected}\n")
    for kind in ("o3x1", "bt-mesi", "bt-hcc-gwt", "bt-hcc-dts-gwb"):
        machine = Machine(make_config(kind, "quick"))
        a_base = machine.address_space.alloc_words(n, "a")
        b_base = machine.address_space.alloc_words(n, "b")
        out = machine.address_space.alloc_words(1, "out")
        machine.host_write_array(a_base, a_values)
        machine.host_write_array(b_base, b_values)
        machine.host_write_word(out, 0)

        runtime = WorkStealingRuntime(machine)
        cycles = runtime.run(DotProduct(a_base, b_base, n, out, grain))
        result = machine.host_read_word(out)
        status = "OK " if result == expected else "BAD"
        print(
            f"  [{status}] {kind:16s} result={result} cycles={cycles:>7d} "
            f"tasks={runtime.stats.get('tasks_executed'):>3d} "
            f"steals={runtime.stats.get('steals'):>3d}"
        )
        assert result == expected


if __name__ == "__main__":
    main()
