"""Ligra application kernels (loop-level parallel_for parallelism)."""

from repro.apps.ligra_apps.bc import LigraBetweennessCentrality
from repro.apps.ligra_apps.bf import LigraBellmanFord
from repro.apps.ligra_apps.bfs import LigraBfs
from repro.apps.ligra_apps.bfsbv import LigraBfsBitvector
from repro.apps.ligra_apps.cc import LigraConnectedComponents
from repro.apps.ligra_apps.mis import LigraMis
from repro.apps.ligra_apps.radii import LigraRadii
from repro.apps.ligra_apps.tc import LigraTriangleCounting

__all__ = [
    "LigraBetweennessCentrality",
    "LigraBellmanFord",
    "LigraBfs",
    "LigraBfsBitvector",
    "LigraConnectedComponents",
    "LigraMis",
    "LigraRadii",
    "LigraTriangleCounting",
]
