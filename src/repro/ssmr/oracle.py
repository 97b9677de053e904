"""The static S-SMR oracle.

In S-SMR "all clients and servers can have their own local oracle, which
always returns a correct set of partitions for every query" — it is a pure
function of the static partition map, so it lives client-side and costs no
messages. The function returns a *superset* of the partitions accessed,
which is always safe; with declared variable sets it is exact.
"""

from __future__ import annotations

from repro.smr.command import Command
from repro.ssmr.partitioning import StaticPartitionMap


class StaticOracle:
    """Client-local oracle over a static partition map."""

    def __init__(self, partition_map: StaticPartitionMap):
        self.partition_map = partition_map

    def partitions_for(self, command: Command) -> set[str]:
        """The set of partitions ``command`` must be multicast to."""
        partitions = self.partition_map.partitions
        if not command.variables or len(partitions) == 1:
            # A command touching no declared variables could read anything:
            # the safe superset is all partitions (paper, footnote on the
            # oracle). With one partition — classic SMR — that superset is
            # exact for every command and nothing needs looking up.
            return set(partitions)
        return self.partition_map.partitions_of(command.variables)
