"""Counter/gauge registry over StatGroup.

The registry decouples *what is sampled* from the interval sampler
(``repro.trace.sampler``): any number of sources (StatGroup subtrees,
traffic meters, ad-hoc gauges) merge into one flat namespace, which the
sampler snapshots for the tracer's counter tracks.

Nothing here touches simulated state: ``collect()`` is a pure read, so a
registry-backed sampler run stays cycle-identical to a bare run (the same
argument as ``IntervalSampler`` itself).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple, Union

from repro.engine.stats import StatGroup

Number = Union[int, float]
Snapshot = Dict[str, Number]


class MetricsRegistry:
    """Named snapshot sources merged into one flat metric namespace."""

    def __init__(self):
        #: (prefix, zero-arg callable returning a flat {name: number} dict)
        self._sources: List[Tuple[str, Callable[[], Snapshot]]] = []

    def register(
        self,
        source: Union[StatGroup, Callable[[], Snapshot]],
        prefix: str = "",
    ) -> "MetricsRegistry":
        """Add a snapshot source: a StatGroup subtree or a callable."""
        fn = source.snapshot if isinstance(source, StatGroup) else source
        self._sources.append((prefix, fn))
        return self

    def collect(self) -> Snapshot:
        """One merged point-in-time snapshot over every source.

        Later registrations win on name collisions; output key order is
        insertion-deterministic (sources in registration order, each
        source's own deterministic order), so samples are stable.
        """
        out: Snapshot = {}
        for prefix, fn in self._sources:
            for key, value in fn().items():
                out[f"{prefix}{key}"] = value
        return out


def machine_metrics(machine) -> MetricsRegistry:
    """The standard registry for one simulated machine.

    Covers the whole StatGroup tree (which includes the runtime's counters
    once a runtime is constructed) and NoC traffic bytes by category.  This
    is what ``run_point`` samples when a ``sample_interval`` is requested.
    It holds no simulator event or fusion counts: those legitimately differ
    between fused and unfused runs, and sampled traces must stay
    byte-identical across the two (``tests/test_fusion.py``).
    """
    registry = MetricsRegistry()
    registry.register(machine.stats)
    registry.register(
        lambda: {
            f"traffic.{category}": n_bytes
            for category, n_bytes in machine.traffic.snapshot().items()
        }
    )
    return registry
