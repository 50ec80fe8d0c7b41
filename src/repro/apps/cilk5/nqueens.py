"""cilk5-nq: N-queens solution counting by parallel backtracking.

A task represents a partial placement (one queen per decided row).  Above
the spawn-depth cutoff the task forks one child per legal column of the
next row, copying its board prefix into each child's own simulated board —
real parent-to-child data sharing through memory, exercising the DAG
consistency requirement.  Below the cutoff the task backtracks serially.
Solutions are accumulated with ``amo_add`` on a global counter, the
fine-grained synchronization Table III notes for this kernel.
"""

from __future__ import annotations

from repro.apps.common import AppInstance, SimArray, register_app
from repro.core.task import Task

#: Known solution counts for small boards (used by check()).
NQ_SOLUTIONS = {4: 2, 5: 10, 6: 4, 7: 40, 8: 92, 9: 352, 10: 724}


class _NqTask(Task):
    ARG_WORDS = 2

    def __init__(self, app: "CilkNQueens", board: SimArray, row: int):
        super().__init__()
        self.app = app
        self.board = board
        self.row = row

    def execute(self, rt, ctx):
        app, row = self.app, self.row
        # Read this task's own board prefix (written by the parent).
        placed = []
        for r in range(row):
            value = yield self.board.load(ctx, r)
            placed.append(value)
        if row >= app.cutoff or row == app.n:
            count = yield app.serial_count(ctx, placed)
            if count:
                yield ctx.amo_add(app.counter_addr, count)
            return
        children = []
        for col in range(app.n):
            yield ctx.work(2)
            if not app.legal(placed, row, col):
                continue
            child_board = SimArray(
                rt.machine, app.n, f"nq_board_{self.task_id}_{col}"
            )
            for r in range(row):
                yield child_board.store(ctx, r, placed[r])
            yield child_board.store(ctx, row, col)
            children.append(_NqTask(app, child_board, row + 1))
        if children:
            yield rt.fork_join(ctx, self, children)


@register_app("cilk5-nq")
class CilkNQueens(AppInstance):
    name = "cilk5-nq"
    pm = "pf"

    def __init__(self, n: int = 6, cutoff: int = 2):
        super().__init__()
        if n not in NQ_SOLUTIONS:
            raise ValueError(f"unsupported board size {n}")
        self.n = n
        self.cutoff = cutoff
        self.counter_addr = 0
        self._root_board: SimArray = None

    def setup(self, machine) -> None:
        self.machine = machine
        self.counter_addr = machine.address_space.alloc_words(1, "nq_count")
        machine.host_write_word(self.counter_addr, 0)
        self._root_board = SimArray(machine, self.n, "nq_board_root")
        self._root_board.host_fill(0)

    def make_root(self, serial: bool = False) -> Task:
        if serial:
            app = CilkNQueens(self.n, cutoff=0)
            app.machine = self.machine
            app.counter_addr = self.counter_addr
            app._root_board = self._root_board
            return _NqTask(app, self._root_board, 0)
        return _NqTask(self, self._root_board, 0)

    def check(self) -> None:
        got = self.machine.host_read_word(self.counter_addr)
        assert got == NQ_SOLUTIONS[self.n], (
            f"cilk5-nq: counted {got}, expected {NQ_SOLUTIONS[self.n]}"
        )

    # ------------------------------------------------------------------
    @staticmethod
    def legal(placed, row: int, col: int) -> bool:
        for r, c in enumerate(placed):
            if c == col or abs(c - col) == row - r:
                return False
        return True

    def serial_count(self, ctx, placed):
        """Serial backtracking below the cutoff (simulated compute only).

        The remaining search keeps its frontier in registers/stack, so we
        charge compute work per placement test rather than memory traffic.
        """
        n = self.n
        count = 0
        stack = [list(placed)]
        while stack:
            board = stack.pop()
            row = len(board)
            if row == n:
                count += 1
                yield ctx.work(2)
                continue
            for col in range(n):
                yield ctx.work(2 + row)
                if self.legal(board, row, col):
                    stack.append(board + [col])
        return count
