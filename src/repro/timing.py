"""Shared slot-reservation primitive for bandwidth-limited resources.

Network links, cache-bank ports, and the L2 port each grant one operation
per cycle.  Requests arrive out of time order (the simulator schedules
communication lazily, at first use), so a monotone next-free counter
would let one far-future booking starve earlier slots.
:class:`SlotReserver` books the first genuinely free cycle at or after the
requested one.

A calendar need not remember the whole run.  Every request starts at the
current cycle or at an event of an in-flight or later instruction, and
each such event comes at or after that instruction's dispatch, so no
request starts before the dispatch cycle of the oldest instruction in
flight (the ROB head).  The cycle loop passes that cycle to
:meth:`SlotReserver.forget_before`, which drops every older booking and
records it as a floor; :meth:`SlotReserver.reserve` refuses any request
below the floor, so a pruned calendar grants exactly what the full one
would.
"""

from __future__ import annotations

from typing import List, Set


class SlotReserver:
    """Per-resource calendar of booked cycles, one booking per cycle."""

    def __init__(self, resources: int) -> None:
        if resources < 1:
            raise ValueError("resources must be positive")
        self._booked: List[Set[int]] = [set() for _ in range(resources)]
        #: no request may start before this cycle (see forget_before)
        self._floor = 0

    def reserve(self, resource: int, earliest: int) -> int:
        """Book and return the first free cycle >= ``earliest``."""
        if earliest < self._floor:
            raise ValueError(
                f"request at cycle {earliest} is below the booking floor "
                f"{self._floor}"
            )
        calendar = self._booked[resource]
        cycle = earliest
        while cycle in calendar:
            cycle += 1
        calendar.add(cycle)
        return cycle

    def forget_before(self, horizon: int) -> None:
        """Drop every booking before ``horizon`` and make it the floor.

        The caller promises that no later request starts before
        ``horizon``; :meth:`reserve` checks the promise on every call.
        """
        if horizon <= self._floor:
            return
        self._floor = horizon
        self._booked = [
            {cycle for cycle in calendar if cycle >= horizon}
            for calendar in self._booked
        ]
