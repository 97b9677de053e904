"""Simulated cluster network substrate.

Models the evaluation cluster of the paper: nodes attached to switches,
with distinct intra-switch and inter-switch latencies, per-message
serialization cost proportional to size, and hooks for failure injection
(crashes, message drops, partitions). All protocol layers exchange
:class:`~repro.net.message.Message` objects through a :class:`Network`.
"""

from repro.net.message import Message
from repro.net.latency import (
    FixedLatency,
    LatencyModel,
    SwitchedClusterLatency,
    UniformLatency,
)
from repro.net.topology import ClusterTopology, paper_cluster_topology
from repro.net.transport import Endpoint, Network
from repro.net.failure import FailureInjector

__all__ = [
    "ClusterTopology",
    "Endpoint",
    "FailureInjector",
    "FixedLatency",
    "LatencyModel",
    "Message",
    "Network",
    "SwitchedClusterLatency",
    "UniformLatency",
    "paper_cluster_topology",
]
