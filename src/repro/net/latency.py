"""Latency models for the simulated network.

A latency model maps (source, destination, message size) to a delay in
virtual milliseconds. The default model mirrors the paper's testbed: two
gigabit switches joined by a fast link, so messages crossing switches pay a
slightly higher propagation delay, and every message pays a bandwidth term
proportional to its size.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Optional

from repro.net.topology import ClusterTopology

# Virtual time unit throughout the repository: 1.0 == 1 millisecond.
MS = 1.0
US = 0.001

GIGABIT_BYTES_PER_MS = 125_000  # 1 Gbps in bytes per millisecond


class LatencyModel(ABC):
    """Maps a message to its one-way network delay (in virtual ms)."""

    @abstractmethod
    def delay(self, src: str, dst: str, size: int,
              rng: random.Random) -> float:
        """One-way delay for a ``size``-byte message from src to dst."""


class FixedLatency(LatencyModel):
    """Constant delay regardless of endpoints and size (useful in tests)."""

    def __init__(self, delay_ms: float = 0.1):
        if delay_ms < 0:
            raise ValueError(f"negative delay: {delay_ms}")
        self.delay_ms = delay_ms

    def delay(self, src: str, dst: str, size: int,
              rng: random.Random) -> float:
        return self.delay_ms


class UniformLatency(LatencyModel):
    """Delay drawn uniformly from ``[low_ms, high_ms]``.

    Used by property-based tests to explore message reorderings.
    """

    def __init__(self, low_ms: float, high_ms: float):
        if not 0 <= low_ms <= high_ms:
            raise ValueError(f"invalid range: [{low_ms}, {high_ms}]")
        self.low_ms = low_ms
        self.high_ms = high_ms

    def delay(self, src: str, dst: str, size: int,
              rng: random.Random) -> float:
        return rng.uniform(self.low_ms, self.high_ms)


class SwitchedClusterLatency(LatencyModel):
    """Two-level switched cluster, as in the paper's testbed.

    Delay = base propagation (intra- or inter-switch) + size / bandwidth +
    multiplicative jitter. Endpoints not present in the topology (e.g.
    clients spun up dynamically) are treated as attached to switch 0.
    """

    def __init__(self, topology: Optional[ClusterTopology] = None,
                 intra_ms: float = 0.05,
                 inter_ms: float = 0.15,
                 bytes_per_ms: float = GIGABIT_BYTES_PER_MS,
                 jitter: float = 0.1):
        if jitter < 0 or jitter >= 1:
            raise ValueError(f"jitter must be in [0, 1): {jitter}")
        self.topology = topology or ClusterTopology()
        self.intra_ms = intra_ms
        self.inter_ms = inter_ms
        self.bytes_per_ms = bytes_per_ms
        self.jitter = jitter
        # (src, dst) -> same switch?  Valid for one topology version.
        self._same_switch: dict[tuple[str, str], bool] = {}
        self._version = -1

    def delay(self, src: str, dst: str, size: int,
              rng: random.Random) -> float:
        topology = self.topology
        if topology.version != self._version:
            self._same_switch.clear()
            self._version = topology.version
        same_switch = self._same_switch.get((src, dst))
        if same_switch is None:
            same_switch = self._same_switch[src, dst] = (
                topology.switch_of(src) == topology.switch_of(dst))
        base = self.intra_ms if same_switch else self.inter_ms
        # rng.uniform(-jitter, jitter) with the same float operations, so
        # every delay stays bit-identical, minus the call.
        jitter = self.jitter
        factor = 1.0 + (-jitter + (jitter - -jitter) * rng.random())
        return (base + size / self.bytes_per_ms) * factor
