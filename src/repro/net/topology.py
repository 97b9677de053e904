"""Cluster topology: which node hangs off which switch.

The paper's testbed had HP nodes on one gigabit switch and Dell nodes on
another, with a 20 Gbps inter-switch link. For the simulation all that
matters is the *pattern*: node pairs on the same switch see a lower base
latency than pairs on different switches.
"""

from __future__ import annotations

from typing import Iterable, Mapping


class ClusterTopology:
    """Assignment of node names to switches.

    Nodes never registered are assumed to live on switch 0, which keeps
    dynamically created clients cheap to handle.
    """

    def __init__(self, assignment: Mapping[str, int] | None = None):
        self._switch: dict[str, int] = dict(assignment or {})
        #: Bumped by every :meth:`attach`, so a latency model can cache
        #: per-pair lookups and still see nodes that join or move later.
        self.version = 0

    def attach(self, node: str, switch: int) -> None:
        """Attach ``node`` to ``switch`` (re-attaching is allowed)."""
        self._switch[node] = switch
        self.version += 1

    def attach_all(self, nodes: Iterable[str], switch: int) -> None:
        for node in nodes:
            self.attach(node, switch)

    def switch_of(self, node: str) -> int:
        return self._switch.get(node, 0)

    def nodes(self) -> list[str]:
        return sorted(self._switch)

    def __contains__(self, node: str) -> bool:
        return node in self._switch


def paper_cluster_topology(server_names: Iterable[str],
                           oracle_names: Iterable[str] = (),
                           client_names: Iterable[str] = ()) -> ClusterTopology:
    """Topology shaped like the paper's testbed.

    Servers are spread round-robin across the two switches (the paper mixed
    HP and Dell nodes); oracle replicas go to switch 0 and clients to
    switch 1, so both intra- and inter-switch paths are exercised.
    """
    topology = ClusterTopology()
    for i, name in enumerate(server_names):
        topology.attach(name, i % 2)
    topology.attach_all(oracle_names, 0)
    topology.attach_all(client_names, 1)
    return topology
