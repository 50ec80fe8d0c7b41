"""cilk5-mm: blocked (recursive) matrix multiplication.

C = A x B over n x n integer matrices.  The recursive task splits the
output into quadrants; each quadrant needs two sub-products which must be
applied in sequence (C accumulates), so the recursion runs two fork-join
waves of four tasks each — the same shape as the cilk5 ``matmul`` kernel.
Below the grain size a serial triple loop runs on simulated memory.
"""

from __future__ import annotations

from repro.apps.common import AppInstance, SimArray, register_app
from repro.core.task import Task
from repro.engine.rng import XorShift64


class _MmTask(Task):
    """Compute C[cr:cr+s, cc:cc+s] += A[ar.., ak..] * B[ak.., cc..]."""

    ARG_WORDS = 4

    def __init__(self, app: "CilkMatmul", ar, ak, cr, cc, size, grain):
        super().__init__()
        self.app = app
        self.ar = ar
        self.ak = ak
        self.cr = cr
        self.cc = cc
        self.size = size
        self.grain = grain

    def execute(self, rt, ctx):
        app, s = self.app, self.size
        if s <= self.grain:
            yield app.serial_mm(ctx, self.ar, self.ak, self.cr, self.cc, s)
            return
        h = s // 2
        ar, ak, cr, cc, g = self.ar, self.ak, self.cr, self.cc, self.grain
        wave1 = [
            _MmTask(app, cr, ak, cr, cc, h, g),
            _MmTask(app, cr, ak, cr, cc + h, h, g),
            _MmTask(app, cr + h, ak, cr + h, cc, h, g),
            _MmTask(app, cr + h, ak, cr + h, cc + h, h, g),
        ]
        yield rt.fork_join(ctx, self, wave1)
        wave2 = [
            _MmTask(app, cr, ak + h, cr, cc, h, g),
            _MmTask(app, cr, ak + h, cr, cc + h, h, g),
            _MmTask(app, cr + h, ak + h, cr + h, cc, h, g),
            _MmTask(app, cr + h, ak + h, cr + h, cc + h, h, g),
        ]
        yield rt.fork_join(ctx, self, wave2)


@register_app("cilk5-mm")
class CilkMatmul(AppInstance):
    name = "cilk5-mm"
    pm = "ss"

    def __init__(self, n: int = 16, grain: int = 8, seed: int = 13):
        super().__init__()
        if n & (n - 1):
            raise ValueError("matrix size must be a power of two")
        self.n = n
        self.grain = grain
        self.seed = seed
        self.a: SimArray = None
        self.b: SimArray = None
        self.c: SimArray = None
        self._a_in = None
        self._b_in = None

    def setup(self, machine) -> None:
        self.machine = machine
        rng = XorShift64(self.seed)
        n = self.n
        self._a_in = [rng.randint(0, 99) for _ in range(n * n)]
        self._b_in = [rng.randint(0, 99) for _ in range(n * n)]
        self.a = SimArray(machine, n * n, "mm_a")
        self.b = SimArray(machine, n * n, "mm_b")
        self.c = SimArray(machine, n * n, "mm_c")
        self.a.host_init(self._a_in)
        self.b.host_init(self._b_in)
        self.c.host_fill(0)

    def make_root(self, serial: bool = False) -> Task:
        grain = self.n if serial else self.grain
        return _MmTask(self, 0, 0, 0, 0, self.n, grain)

    def check(self) -> None:
        n = self.n
        result = self.c.host_read()
        for i in range(n):
            for j in range(n):
                want = sum(
                    self._a_in[i * n + k] * self._b_in[k * n + j] for k in range(n)
                )
                assert result[i * n + j] == want, "cilk5-mm: product mismatch"

    # ------------------------------------------------------------------
    def serial_mm(self, ctx, ar: int, ak: int, cr: int, cc: int, s: int):
        """C[cr.., cc..] += A[ar.., ak..] * B[ak.., cc..] (s x s blocks)."""
        n, a, b, c = self.n, self.a, self.b, self.c
        for i in range(s):
            for j in range(s):
                acc = yield c.load(ctx, (cr + i) * n + (cc + j))
                for k in range(s):
                    av = yield a.load(ctx, (ar + i) * n + (ak + k))
                    bv = yield b.load(ctx, (ak + k) * n + (cc + j))
                    yield ctx.work(2)
                    acc += av * bv
                yield c.store(ctx, (cr + i) * n + (cc + j), acc)
