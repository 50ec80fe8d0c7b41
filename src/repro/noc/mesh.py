"""2D mesh on-chip network with XY routing (latency + traffic model).

Matches the paper's Garnet configuration at the structural level: an
``rows x cols`` mesh of routers (one per core tile), 16B flits, 1-cycle
channel and 1-cycle router latency, XY dimension-ordered routing.  L2 cache
banks and DRAM controllers sit one virtual row below the core mesh, one per
column (Figure 1 of the paper).

The model is analytic: a message's latency is per-hop router+channel delay
for its head flit plus one cycle per body flit (:meth:`Mesh.head_latency`,
:meth:`Mesh.body_flits`); ``repro.mem.l2`` tabulates both per (core, bank)
route and ``repro.noc.uli`` per (core, core) route when the machine is
built.  Link-level contention is not simulated flit-by-flit (endpoint
contention is modeled at L2 banks and DRAM controllers instead); injected
bytes and byte-hops are accounted exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

Position = Tuple[int, int]


@dataclass(frozen=True)
class MeshConfig:
    rows: int
    cols: int
    flit_bytes: int = 16
    router_latency: int = 1
    channel_latency: int = 1


class Mesh:
    """Mesh geometry, hop counts, and message latency."""

    #: Fault-injection hook (repro.faults); the machine replaces this on
    #: its instance when a plan is active, so the default path pays one
    #: ``is not None`` branch per message.
    fault_injector = None

    def __init__(self, config: MeshConfig):
        self.config = config
        self.rows = config.rows
        self.cols = config.cols

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def core_position(self, core_id: int) -> Position:
        """Tile coordinates of a core (row-major placement)."""
        n = self.rows * self.cols
        if not 0 <= core_id < n:
            raise ValueError(f"core {core_id} outside {self.rows}x{self.cols} mesh")
        return (core_id // self.cols, core_id % self.cols)

    def bank_position(self, bank_id: int, n_banks: int) -> Position:
        """Tile coordinates of an L2 bank / memory controller.

        Banks live in a virtual row below the core mesh and are spread
        across columns (one bank per column in the paper's 8-bank, 8-column
        configuration).
        """
        if n_banks <= 0:
            raise ValueError("need at least one bank")
        if n_banks > self.cols:
            raise ValueError(
                f"{n_banks} banks cannot occupy distinct columns of a "
                f"{self.rows}x{self.cols} mesh"
            )
        if not 0 <= bank_id < n_banks:
            raise ValueError(f"bank {bank_id} outside 0..{n_banks - 1}")
        # Evenly spread banks across columns, distributing any remainder
        # (floor of the ideal fractional position keeps positions distinct
        # and strictly increasing whenever n_banks <= cols).
        col = bank_id * self.cols // n_banks
        return (self.rows, col)

    # ------------------------------------------------------------------
    # Latency / distance
    # ------------------------------------------------------------------
    def hops(self, a: Position, b: Position) -> int:
        """Number of router-to-router hops on the XY route from a to b."""
        if a == b:
            return 0
        return abs(a[0] - b[0]) + abs(a[1] - b[1])

    def head_latency(self, hop_count: int) -> int:
        """Cycles the head flit of a message spends crossing ``hop_count`` hops."""
        return hop_count * (self.config.router_latency + self.config.channel_latency)

    def body_flits(self, n_bytes: int) -> int:
        """Flits of an ``n_bytes`` message that pipeline behind its head flit
        (one cycle each)."""
        return max(1, math.ceil(n_bytes / self.config.flit_bytes)) - 1

    def latency(self, a: Position, b: Position, n_bytes: int) -> int:
        """End-to-end latency in cycles of an ``n_bytes`` message a -> b."""
        latency = self.head_latency(self.hops(a, b)) + self.body_flits(n_bytes)
        if self.fault_injector is not None:
            latency += self.fault_injector.noc_extra()
        return latency

    @property
    def n_links(self) -> int:
        """Number of unidirectional inter-router links (for utilization)."""
        horizontal = 2 * self.rows * (self.cols - 1)
        vertical = 2 * (self.rows - 1) * self.cols
        # plus the links down to the bank row
        bank_links = 2 * self.cols
        return horizontal + vertical + bank_links
