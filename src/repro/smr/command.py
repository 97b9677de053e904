"""Commands and replies.

DS-SMR distinguishes five command types (Section 3.3 of the paper):
``access`` (application reads/writes over a declared variable set),
``create``, ``delete``, ``move`` and ``consult``. Classic SMR and S-SMR use
only ``access`` commands. Every command carries the set of state variables
it touches — the paper's protocols all assume the variable set is known when
the command is submitted (the oracle returns a superset otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional


class CommandType(str, Enum):
    """The five DS-SMR command types."""

    ACCESS = "access"
    CREATE = "create"
    DELETE = "delete"
    MOVE = "move"
    CONSULT = "consult"


class ReplyStatus(str, Enum):
    """Outcome of a command at a server or the oracle."""

    OK = "ok"
    NOK = "nok"        # the oracle rejected the command (e.g. unknown var)
    RETRY = "retry"    # partition no longer holds the variables; re-consult
    OVERLOAD = "overload"  # shed by admission control; back off and retry


@dataclass
class Command:
    """A client command.

    ``op`` names the application operation (e.g. ``"post"``); ``args`` are
    its arguments; ``variables`` is the set of state-variable keys the
    command reads or writes. ``writes`` marks which of those are written
    (used by read-only optimisations and by tests). A workload command
    leaves ``cid`` empty: the client that submits it names it from its
    run's ids (:meth:`~repro.smr.client.BaseClient.claim_cid`).

    ``seq`` and ``acked`` are the issuer's exactly-once session stamp
    (:class:`~repro.resilience.SessionIssuer`): the command's sequence
    number and the lowest one its issuer has not finished. A consult or
    move run on a command's behalf carries the command's stamp. A command
    with a ``client`` must have ``seq >= 1``; one without (the oracle's own
    moves) has no session.
    """

    op: str
    args: dict = field(default_factory=dict)
    variables: tuple = ()
    writes: tuple = ()
    ctype: CommandType = CommandType.ACCESS
    cid: str = ""
    client: str = ""
    seq: int = 0
    acked: int = 0

    def __post_init__(self):
        self.variables = tuple(self.variables)
        self.writes = tuple(self.writes)

    def payload_size(self) -> int:
        """Approximate wire size: headers plus per-variable footprint (the
        session stamp rides in the header)."""
        return 128 + 32 * len(self.variables)


@dataclass
class Reply:
    """A server's (or the oracle's) reply to a command.

    ``attempt`` echoes the client's attempt number for the command: a
    client that has moved on to attempt *n* must ignore stragglers from
    attempt *n-1* (e.g. the second replica's duplicate ``retry``), or a
    stale failure verdict could mask the new attempt's outcome.
    """

    cid: str
    status: ReplyStatus
    value: Any = None
    sender: str = ""
    partition: Optional[str] = None
    attempt: int = 1
