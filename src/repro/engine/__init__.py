"""Simulation kernel: event queue, statistics, deterministic RNG."""

from repro.engine.checkpoint import (
    CheckpointConfig,
    CheckpointDaemon,
    CheckpointError,
    load_snapshot,
    save_snapshot,
)
from repro.engine.rng import XorShift64
from repro.engine.simulator import SimulationError, Simulator
from repro.engine.stats import Counter, StatGroup
from repro.engine.watchdog import DeadlockError, Watchdog

__all__ = [
    "CheckpointConfig",
    "CheckpointDaemon",
    "CheckpointError",
    "Counter",
    "DeadlockError",
    "SimulationError",
    "Simulator",
    "StatGroup",
    "Watchdog",
    "XorShift64",
    "load_snapshot",
    "save_snapshot",
]
