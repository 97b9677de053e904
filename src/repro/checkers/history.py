"""Operation histories for linearizability checking."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass
class Operation:
    """One completed operation in a concurrent history; ``op_id`` is its
    position in that history."""

    client: str
    op: str
    args: dict
    result: Any
    invoked_at: float
    responded_at: float
    op_id: int

    def __post_init__(self):
        if self.responded_at < self.invoked_at:
            raise ValueError("response before invocation")

    def precedes(self, other: "Operation") -> bool:
        """Real-time precedence: this op finished before ``other`` started."""
        return self.responded_at < other.invoked_at


class History:
    """An append-only collection of completed operations.

    Tests record one entry per completed client command; pending operations
    (no response observed) are conservatively droppable for the protocols
    tested here because every recorded test run quiesces before checking.
    """

    def __init__(self):
        self.operations: list[Operation] = []

    def record(self, client: str, op: str, args: dict, result: Any,
               invoked_at: float, responded_at: float) -> Operation:
        operation = Operation(client=client, op=op, args=dict(args),
                              result=result, invoked_at=invoked_at,
                              responded_at=responded_at,
                              op_id=len(self.operations))
        self.operations.append(operation)
        return operation

    def __len__(self) -> int:
        return len(self.operations)

    def __iter__(self):
        return iter(self.operations)

    def concurrent_pairs(self) -> int:
        """Number of operation pairs that overlap in time (test diagnostics)."""
        count = 0
        ops = self.operations
        for i, a in enumerate(ops):
            for b in ops[i + 1:]:
                if not (a.precedes(b) or b.precedes(a)):
                    count += 1
        return count
