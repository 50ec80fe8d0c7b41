"""Ligra-style graph processing substrate."""

from repro.apps.ligra.base import LigraApp
from repro.apps.ligra.graph import HostGraph, SimGraph, rmat, rmat_graph

__all__ = [
    "LigraApp",
    "HostGraph",
    "SimGraph",
    "rmat",
    "rmat_graph",
]
