"""Shared slot-reservation primitive for bandwidth-limited resources.

Network links, cache-bank ports, and the L2 port all grant a bounded number
of operations per cycle.  Requests arrive out of time order (the simulator
schedules communication lazily, at first use), so a monotone next-free
counter would let one far-future booking starve earlier slots.
:class:`SlotReserver` books the first genuinely free cycle at or after the
requested one.
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

    def reserve(self, resource: int, earliest: int) -> int:
        """Book and return the first cycle >= ``earliest`` with capacity."""
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
