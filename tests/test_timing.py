"""SlotReserver: the shared bandwidth primitive."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.timing import SlotReserver


class TestBasics:
    def test_first_request_gets_requested_cycle(self):
        r = SlotReserver(2)
        assert r.reserve(0, 10) == 10

    def test_same_cycle_conflict_pushes_later(self):
        r = SlotReserver(1)
        assert r.reserve(0, 10) == 10
        assert r.reserve(0, 10) == 11
        assert r.reserve(0, 10) == 12

    def test_resources_independent(self):
        r = SlotReserver(2)
        assert r.reserve(0, 10) == 10
        assert r.reserve(1, 10) == 10

    def test_gap_filling(self):
        r = SlotReserver(1)
        assert r.reserve(0, 100) == 100
        assert r.reserve(0, 10) == 10  # earlier slot still free

    def test_validation(self):
        with pytest.raises(ValueError):
            SlotReserver(0)


class TestProperties:
    @given(st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_never_overbooks(self, requests):
        r = SlotReserver(1)
        granted = [r.reserve(0, req) for req in requests]
        assert len(set(granted)) == len(granted)  # capacity 1: all distinct

    @given(st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_grants_at_or_after_request(self, requests):
        r = SlotReserver(1)
        for req in requests:
            assert r.reserve(0, req) >= req

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_work_conserving(self, requests):
        """The granted slot is the earliest free slot >= the request."""
        r = SlotReserver(1)
        booked = set()
        for req in requests:
            got = r.reserve(0, req)
            expected = req
            while expected in booked:
                expected += 1
            assert got == expected
            booked.add(got)


#: one step of a pruned-calendar sequence: ("reserve", resource, cycles
#: above the floor) or ("forget", cycles to move the horizon past the floor)
_STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("reserve"),
            st.integers(min_value=0, max_value=1),
            st.integers(min_value=0, max_value=30),
        ),
        st.tuples(st.just("forget"), st.integers(min_value=-5, max_value=25)),
    ),
    min_size=1,
    max_size=80,
)


class TestForgetBefore:
    """Pruning is invisible: a calendar that forgets bookings below its
    floor grants what one keeping every booking grants, for any request
    at or above the floor."""

    @given(steps=_STEPS)
    @settings(max_examples=80, deadline=None)
    def test_matches_an_unpruned_calendar(self, steps):
        pruned = SlotReserver(2)
        full = SlotReserver(2)
        floor = 0
        for step in steps:
            if step[0] == "forget":
                horizon = floor + step[1]
                pruned.forget_before(horizon)
                floor = max(floor, horizon)
                assert all(
                    cycle >= floor for calendar in pruned._booked for cycle in calendar
                )
            else:
                _, resource, above = step
                earliest = floor + above
                assert pruned.reserve(resource, earliest) == full.reserve(
                    resource, earliest
                )

    def test_request_below_the_floor_raises(self):
        r = SlotReserver(1)
        r.reserve(0, 5)
        r.forget_before(10)
        with pytest.raises(ValueError, match="below the booking floor"):
            r.reserve(0, 9)
        assert r.reserve(0, 10) == 10

    def test_floor_never_moves_back(self):
        r = SlotReserver(1)
        r.forget_before(10)
        r.forget_before(4)
        with pytest.raises(ValueError):
            r.reserve(0, 9)
