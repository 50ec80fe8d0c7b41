"""Counter/gauge registry over StatGroup, with exporters.

The interval sampler (``repro.trace.sampler``) used to be wired directly to
the tracer: the only consumer of a statistics time series was the Chrome
trace counter track.  The registry decouples *what is sampled* from *where
samples go*: any number of sources (StatGroup subtrees, traffic meters,
fusion counters, ad-hoc gauges) merge into one flat namespace, and any
number of sinks (tracer counter tracks, a Prometheus textfile for
``repro top``) consume the same snapshots.

Nothing here touches simulated state: ``collect()`` is a pure read, so a
registry-backed sampler run stays cycle-identical to a bare run (the same
argument as ``IntervalSampler`` itself).
"""

from __future__ import annotations

import os
import re
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.engine.stats import StatGroup

Number = Union[int, float]
Snapshot = Dict[str, Number]

#: Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.  Everything else
#: (dots, dashes) becomes an underscore.
_PROM_BAD = re.compile(r"[^a-zA-Z0-9_:]")


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
        source's own deterministic order), so exports are stable.
        """
        out: Snapshot = {}
        for prefix, fn in self._sources:
            for key, value in fn().items():
                out[f"{prefix}{key}"] = value
        return out


def machine_metrics(machine, engine: bool = True) -> MetricsRegistry:
    """The standard registry for one simulated machine.

    Covers the whole StatGroup tree (which includes the runtime's counters
    once a runtime is constructed), NoC traffic bytes by category, and —
    with ``engine=True`` — the simulator's event/fusion gauges.  This is
    what ``run_experiment`` samples when a ``sample_interval`` is
    requested; there it passes ``engine=False``, because event/fusion
    counts legitimately differ between fused and unfused runs and sampling
    them would break the fused/unfused byte-identical-trace invariant
    (``tests/test_fusion.py``).  Scrape-oriented consumers (the Prometheus
    textfile, ``repro top``) keep the engine gauges.
    """
    registry = MetricsRegistry()
    registry.register(machine.stats)
    registry.register(
        lambda: {
            f"traffic.{category}": n_bytes
            for category, n_bytes in machine.traffic.snapshot().items()
        }
    )
    if engine:
        sim = machine.sim
        registry.register(
            lambda: {
                "engine.events_executed": sim.events_executed,
                "engine.events_fused": sim.events_fused,
            }
        )
    return registry


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def _prom_name(name: str, prefix: str) -> str:
    return _PROM_BAD.sub("_", f"{prefix}{name}")


def prometheus_lines(
    snapshot: Snapshot,
    prefix: str = "repro_",
    labels: Optional[Dict[str, str]] = None,
) -> str:
    """A snapshot in the Prometheus text exposition format.

    Every metric is exported as an untyped sample (node-exporter textfile
    collectors accept these); names are sanitized to the Prometheus
    alphabet and optional labels are attached to every sample.  Output is
    sorted by exported name, so files are diff-stable.
    """
    label_text = ""
    if labels:
        pairs = ",".join(
            f'{_PROM_BAD.sub("_", k)}="{str(v).replace(chr(34), chr(39))}"'
            for k, v in sorted(labels.items())
        )
        label_text = "{" + pairs + "}"
    lines = []
    for name, value in sorted(
        (_prom_name(key, prefix), value) for key, value in snapshot.items()
    ):
        lines.append(f"{name}{label_text} {value}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus_textfile(
    path: str,
    snapshot: Snapshot,
    prefix: str = "repro_",
    labels: Optional[Dict[str, str]] = None,
) -> None:
    """Atomically write ``snapshot`` as a Prometheus textfile.

    Textfile collectors re-read on every scrape, so the write must never be
    observable half-done: write to a sibling temp file, then rename.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(prometheus_lines(snapshot, prefix=prefix, labels=labels))
    os.replace(tmp, path)
