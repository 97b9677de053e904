"""Static variable→partition mapping.

S-SMR fixes the mapping for the lifetime of the system. The map can be built
from an explicit assignment (e.g. the output of the multilevel partitioner on
a known workload graph — the "perfect static" scheme of the motivation
experiment) or fall back to stable hashing for unknown variables (what a
practical static deployment does for keys created after the initial load).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Optional, Sequence

from repro.graph.baselines import stable_hash

Key = Hashable


class StaticPartitionMap:
    """Immutable mapping from variable keys to partition (group) names."""

    def __init__(self, partitions: Sequence[str],
                 assignment: Optional[Mapping[Key, int]] = None):
        if not partitions:
            raise ValueError("need at least one partition")
        self.partitions = tuple(partitions)
        # Explicit assignments, plus every hashed placement looked up so
        # far: the map never changes, so a key is hashed at most once.
        self._placed: dict[Key, str] = {}
        if assignment:
            for key, index in assignment.items():
                if not 0 <= index < len(self.partitions):
                    raise ValueError(
                        f"assignment index {index} out of range for "
                        f"{len(self.partitions)} partitions")
                self._placed[key] = self.partitions[index]

    def partition_of(self, key: Key) -> str:
        """Partition holding ``key`` (hash fallback for unmapped keys)."""
        placed = self._placed.get(key)
        if placed is None:
            placed = self._placed[key] = self.partitions[
                stable_hash(key) % len(self.partitions)]
        return placed

    def partitions_of(self, keys: Iterable[Key]) -> set[str]:
        return {self.partition_of(key) for key in keys}

    def variables_in(self, partition: str, keys: Iterable[Key]) -> set[Key]:
        """Subset of ``keys`` that live in ``partition``."""
        return {key for key in keys if self.partition_of(key) == partition}

    def initial_contents(self, keys: Iterable[Key]) -> dict[str, set[Key]]:
        """Group the given keys by their partition (for state loading)."""
        contents: dict[str, set[Key]] = {p: set() for p in self.partitions}
        for key in keys:
            contents[self.partition_of(key)].add(key)
        return contents
