"""Delivery floors: what every member of a group is past.

Every destination group of a multi-group message delivers it at the same
*delivery key*, ``(final timestamp, muid)``
(:attr:`~repro.ordering.atomic_multicast.AmcastDelivery.timestamp`), and
each group delivers in key order. That makes the key a watermark:

* a member's **restore key** is the key of its newest delivery whose
  effects, and those of every delivery before it, are in every state it
  could restart from (its settled state, or with a write-ahead log its
  newest fsynced checkpoint);
* a group's **floor** is the lowest restore key of its members
  (:attr:`~repro.ordering.log.GroupLog.key_floor`). It is unset until
  every member has reported one, and it never falls.

A floor at or past a message's key means every member of that group, and
every state it could restore, has executed the message, so the group will
never again ask another group about it. Other groups then forget what they
kept to answer such requests: the exchange message they shipped for the
command (:mod:`repro.ssmr.exchange`) and their own timestamp for the
multicast (:mod:`repro.ordering.atomic_multicast`). :class:`Retention` is
the index both use.
"""

from __future__ import annotations

from typing import Iterable, Optional

#: ``(final timestamp, muid)``: the order every destination delivers in.
Key = tuple


def past(floor: Optional[Key], key: Key) -> bool:
    """Whether a group at ``floor`` has executed the delivery at ``key``."""
    return floor is not None and floor >= key


class Retention:
    """Items kept until every destination group's floor passes their key.

    ``queues`` maps each group to the items it has yet to pass, with
    their keys, in key order, so a rising floor releases items from the
    front without a scan; it is what a checkpoint carries. An item is
    released once no queue holds it.
    """

    def __init__(self, queues: Optional[dict] = None):
        self.queues: dict[str, dict[str, Key]] = {
            group: dict(queue) for group, queue in (queues or {}).items()}
        # Item -> how many queues hold it.
        self._left: dict[str, int] = {}
        for queue in self.queues.values():
            for item in queue:
                self._left[item] = self._left.get(item, 0) + 1

    def __len__(self) -> int:
        return len(self._left)

    def keep(self, item: str, key: Key, groups: Iterable[str],
             floors: dict) -> bool:
        """Keep ``item`` until every group in ``groups`` is past ``key``,
        by ``floors``.

        Keeping an item again raises its key to ``key`` for every group
        still to pass it and moves it to the back. Returns False, keeping
        nothing, when every group is past the key already.
        """
        queues = self.queues
        if self._left.pop(item, None) is not None:
            groups = set(groups)
            for group, queue in queues.items():
                if queue.pop(item, None) is not None:
                    groups.add(group)
            groups = sorted(groups)
        count = 0
        for group in groups:
            if group in floors and floors[group] >= key:
                continue
            queue = queues.get(group)
            if queue is None:
                queue = queues[group] = {}
            queue[item] = key
            count += 1
        if count:
            self._left[item] = count
        return count > 0

    def release(self, group: str, floor: Key) -> list:
        """``group`` reached ``floor``: the items no group waits for now."""
        queue = self.queues.get(group)
        if not queue:
            return []
        passed = []
        for item, key in queue.items():
            if key > floor:
                break
            passed.append(item)
        left = self._left
        released = []
        for item in passed:
            del queue[item]
            count = left[item] - 1
            if count:
                left[item] = count
            else:
                del left[item]
                released.append(item)
        return released
