"""Shared slot-reservation primitive for bandwidth-limited resources.

Network links, cache-bank ports, and the L2 port all grant a bounded number
of operations per cycle.  Requests arrive out of time order (the simulator
schedules communication lazily, at first use), so a monotone next-free
counter would let one far-future booking starve earlier slots.
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

from typing import Dict, List


class SlotReserver:
    """Per-resource calendar of booked cycles with bounded capacity."""

    def __init__(self, resources: int, capacity_per_slot: int = 1) -> None:
        if resources < 1 or capacity_per_slot < 1:
            raise ValueError("resources and capacity_per_slot must be positive")
        self.capacity = capacity_per_slot
        self._booked: List[Dict[int, int]] = [{} for _ in range(resources)]
        #: no request may start before this cycle (see forget_before)
        self._floor = 0

    def reserve(self, resource: int, earliest: int) -> int:
        """Book and return the first cycle >= ``earliest`` with capacity."""
        if earliest < self._floor:
            raise ValueError(
                f"request at cycle {earliest} is below the booking floor "
                f"{self._floor}"
            )
        calendar = self._booked[resource]
        cycle = earliest
        if self.capacity == 1:
            while cycle in calendar:
                cycle += 1
            calendar[cycle] = 1
        else:
            while calendar.get(cycle, 0) >= self.capacity:
                cycle += 1
            calendar[cycle] = calendar.get(cycle, 0) + 1
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
            {cycle: n for cycle, n in calendar.items() if cycle >= horizon}
            for calendar in self._booked
        ]
