"""Cilkview-style work/span analysis (Section V-D, Table III).

Executes an application's task graph on a *functional* (un-timed) machine,
counting instructions along every strand and combining them over the
fork-join structure:

* **work**  — total instructions of all strands;
* **span**  — instructions on the critical path (at each fork-join, the
  parent continues after the longest child);
* **parallelism** — work / span;
* **IPT**   — average instructions per task (the granularity metric the
  paper tunes in Figure 4).

The analyzer duck-types the Machine and Runtime interfaces and hands task
code a plain :class:`~repro.cores.context.ThreadContext`, so the exact
same application code runs under it unchanged: it drives each task's call
stack by the core's rule (:func:`repro.cores.core.advance`) and applies
every yielded op to a flat functional memory instead of timing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.task import Task
from repro.cores.context import ThreadContext
from repro.cores.core import advance
from repro.engine.rng import XorShift64
from repro.mem.address import WORD_BYTES, AddressSpace
from repro.mem.amo import apply_amo


@dataclass
class WorkSpanReport:
    work: int
    span: int
    n_tasks: int

    @property
    def parallelism(self) -> float:
        return self.work / max(1, self.span)

    @property
    def instructions_per_task(self) -> float:
        return self.work / max(1, self.n_tasks)


class _FunctionalMemory:
    """Flat word-addressed memory with host accessors (machine duck-type)."""

    def __init__(self):
        self.address_space = AddressSpace()
        self._words: Dict[int, int] = {}

    def host_write_word(self, addr: int, value) -> None:
        self._words[addr] = value

    def host_write_array(self, base: int, values) -> None:
        for i, value in enumerate(values):
            self._words[base + i * WORD_BYTES] = value

    def host_read_word(self, addr: int):
        return self._words.get(addr, 0)

    def host_read_array(self, base: int, n_words: int) -> List:
        return [self.host_read_word(base + i * WORD_BYTES) for i in range(n_words)]


class CilkviewAnalyzer:
    """Functional executor computing work/span over the fork-join DAG.

    Presents the WorkStealingRuntime duck-type (``fork_join``, ``spawn``,
    ``wait``, ``run_inline``, ``machine``) to task code.
    """

    def __init__(self):
        self.machine = _FunctionalMemory()
        self._work = 0  # instructions on the current strand (running total)
        self._span = 0  # critical path up to the current point
        self.n_tasks = 0
        self.variant = "analysis"

    # ------------------------------------------------------------------
    def analyze(self, root: Task) -> WorkSpanReport:
        ctx = ThreadContext(None, 0, 1, XorShift64(1))
        self._run_generator(self.run_inline(ctx, root))
        return WorkSpanReport(work=self._work, span=self._span, n_tasks=self.n_tasks)

    # ------------------------------------------------------------------
    # Runtime duck-type
    # ------------------------------------------------------------------
    def fork_join(self, ctx, parent: Task, children: List[Task]):
        if not children:
            return
        base_work = self._work
        base_span = self._span
        child_metrics = []
        for child in children:
            child.parent = parent
            self._register(child)
            self._work = 0
            self._span = 0
            yield self._run_task(ctx, child)
            child_metrics.append((self._work, self._span))
        total_child_work = sum(w for w, _ in child_metrics)
        longest_child_span = max(s for _, s in child_metrics)
        self._work = base_work + total_child_work
        self._span = base_span + longest_child_span

    def run_inline(self, ctx, task: Task):
        self._register(task)
        yield self._run_task(ctx, task)

    def spawn(self, ctx, task: Task):  # pragma: no cover - apps use fork_join
        raise NotImplementedError("CilkviewAnalyzer only supports fork_join")
        yield

    def _run_task(self, ctx, task: Task):
        self.n_tasks += 1
        self._count(4)  # task start overhead, mirroring the real runtime
        yield task.execute(self, ctx)

    def _register(self, task: Task) -> None:
        task.task_id = self.n_tasks + 1
        task.desc_addr = self.machine.address_space.alloc_words(
            2 + task.ARG_WORDS, f"task_{task.task_id}"
        )

    # ------------------------------------------------------------------
    def _count(self, n: int) -> None:
        self._work += n
        self._span += n

    def _run_generator(self, gen) -> None:
        """Drive a task generator functionally: follow its calls and
        returns as the core would, applying each op it yields."""
        stack = [gen]
        value = None
        while True:
            op = advance(stack, value)
            if op is None:
                return
            value = self._apply_op(op)

    def _apply_op(self, op):
        """Execute one architectural op against functional memory."""
        kind = op.KIND
        mem = self.machine
        if kind == "load":
            self._count(1)
            return mem.host_read_word(op.addr)
        if kind == "store":
            self._count(1)
            mem.host_write_word(op.addr, op.value)
            return None
        if kind == "amo":
            self._count(1)
            old = mem.host_read_word(op.addr)
            new, returned = apply_amo(op.op, old, op.operand)
            mem.host_write_word(op.addr, new)
            return returned
        if kind == "work":
            self._count(op.n)
            return None
        # idle / coherence / ULI ops are runtime artifacts: free here.
        return None
