"""Per-PC stride bank predictor (DESIGN.md deviation 4)."""

from collections import deque

import pytest

from repro.memory.bank_predictor import StrideBankPredictor


def _train(p, pc, banks):
    """Predict and resolve each bank in turn, nothing left in flight."""
    for bank in banks:
        _, token = p.predict_speculative(pc)
        p.resolve(token, bank)


class TestBankPredictor:
    def test_learns_constant_bank(self):
        p = StrideBankPredictor()
        _train(p, 0x40, [5] * 8)
        assert p.predict_speculative(0x40)[0] == 5

    def test_learns_repeating_pattern(self):
        """A strided walk over the banks is predicted exactly, however
        many accesses of the same PC are in flight between rename and
        commit."""
        for inflight in (0, 3, 20):
            p = StrideBankPredictor(max_banks=16)
            pending = deque()
            hits = []
            for k in range(200):
                bank = (3 + 5 * k) % 16
                predicted, token = p.predict_speculative(0x40)
                hits.append(predicted == bank)
                pending.append((token, bank))
                if len(pending) > inflight:
                    p.resolve(*pending.popleft())
            assert all(hits[100:]), inflight

    def test_low_bits_remain_correct_with_fewer_banks(self):
        """Section 5: with 4 active clusters, prediction % 4 gives the bank."""
        p = StrideBankPredictor(max_banks=16)
        _train(p, 0x40, [13] * 8)
        assert p.predict_speculative(0x40)[0] % 4 == 13 % 4 == 1

    def test_resolve_validates_bank(self):
        p = StrideBankPredictor(max_banks=16)
        _, token = p.predict_speculative(0x40)
        with pytest.raises(ValueError):
            p.resolve(token, 16)
        with pytest.raises(ValueError):
            p.resolve(token, -1)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            StrideBankPredictor(entries=1000)
        with pytest.raises(ValueError):
            StrideBankPredictor(entries=0)
        with pytest.raises(ValueError):
            StrideBankPredictor(max_banks=0)

    def test_distinct_pcs_learn_distinct_banks(self):
        p = StrideBankPredictor()
        for _ in range(8):
            _train(p, 0x40, [2])
            _train(p, 0x80, [9])
        assert p.predict_speculative(0x40)[0] == 2
        assert p.predict_speculative(0x80)[0] == 9

    def test_irregular_stream_falls_back_to_last_committed_bank(self):
        """No stride repeats, so confidence never builds and every
        prediction is the bank the previous access committed to."""
        p = StrideBankPredictor()
        last = 0  # an untrained entry predicts bank 0
        for bank in (0, 1, 3, 6, 10, 15, 5, 12, 4, 13):
            predicted, token = p.predict_speculative(0x40)
            assert predicted == last
            p.resolve(token, bank)
            last = bank
