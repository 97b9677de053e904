"""Deterministic discrete-event simulation kernel.

The kernel is the substrate for every protocol in this repository: all
replicas, clients, oracles and network links are coroutine processes driven
by a single :class:`Environment` with a virtual clock. The design follows the
classic process-interaction style (generators that ``yield`` events), which
keeps protocol code readable — a replica's main loop reads like pseudocode
from the paper.

Determinism: given the same seed, a simulation is bit-for-bit reproducible.
Ties in the event queue are broken by insertion order, and all randomness is
drawn from named, seeded streams (:mod:`repro.sim.rng`).
"""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupted,
    Process,
    RunIds,
    SimulationError,
    Timeout,
)
from repro.sim.channel import Channel
from repro.sim.monitor import BusyTracker, Counter, LatencyRecorder, TimeSeries
from repro.sim.rng import SeedStream

__all__ = [
    "AllOf",
    "AnyOf",
    "BusyTracker",
    "Channel",
    "Counter",
    "Environment",
    "Event",
    "Interrupted",
    "LatencyRecorder",
    "Process",
    "RunIds",
    "SeedStream",
    "SimulationError",
    "TimeSeries",
    "Timeout",
]
