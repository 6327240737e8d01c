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

    def test_capacity_two(self):
        r = SlotReserver(1, capacity_per_slot=2)
        assert r.reserve(0, 5) == 5
        assert r.reserve(0, 5) == 5
        assert r.reserve(0, 5) == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            SlotReserver(0)
        with pytest.raises(ValueError):
            SlotReserver(1, capacity_per_slot=0)


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

    @given(
        st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=60),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_capacity_respected(self, requests, cap):
        r = SlotReserver(1, capacity_per_slot=cap)
        granted = [r.reserve(0, req) for req in requests]
        for cycle in set(granted):
            assert granted.count(cycle) <= cap

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
