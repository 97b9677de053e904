"""Priority classes for ordered-log entries.

Two classes are enough: *control* traffic (whatever keeps the system
reconfigurable and consistent — Skeen final-timestamp entries,
reconfiguration fences, repartitioning activations, oracle hints and
MOVE commands) and *client* traffic (ACCESS / CREATE / DELETE /
CONSULT). During overload the sequencer never sheds control entries and
sorts them ahead of client entries inside a batch window — priority is
only applied *before* ordering, where reordering is still legal.

Multi-group client entries are classified unsheddable too: a Skeen
multicast proposed to several groups finalizes only once every group
has ordered it, so shedding it in one group while another admits it
would wedge the admitted groups' delivery queues behind a timestamp
that never arrives. Single-group commands — the bulk of the offered
load — carry no such coupling and are fair game.
"""

from __future__ import annotations

from repro.smr.command import CommandType
from repro.smr.executor import delivery_command

PRIO_CONTROL = 0
PRIO_CLIENT = 1


def classify_entry(entry: dict) -> tuple[int, bool]:
    """Return ``(priority, sheddable)`` for one ordered-log entry."""
    if entry.get("kind") != "am-propose":
        # Final-timestamp entries and anything else the protocol layers
        # put on the log directly: ordering machinery, never shed.
        return PRIO_CONTROL, False
    command = delivery_command(entry.get("payload"))
    if command is None:
        # Hints, reconfiguration fences, repartition activations.
        return PRIO_CONTROL, False
    if command.ctype is CommandType.MOVE:
        return PRIO_CONTROL, False
    if len(entry.get("groups", ())) > 1:
        return PRIO_CLIENT, False
    return PRIO_CLIENT, True
