"""Per-PC stride bank predictor for the decentralized cache.

At rename time the steering heuristic must guess which cache bank a load or
store will touch so it can be sent to the cluster holding that bank.  The
paper's predictor is branch-predictor-like (Section 5, after Yoaz et al.);
this one keeps, per PC, the last committed bank, a bank stride and a
confidence counter (DESIGN.md deviation 4 says why): 1024 entries, the
size of the paper's first-level table.
"""

from __future__ import annotations


class StrideBankPredictor:
    """Predicts the full (maximum-width) bank number for a memory PC.

    The prediction is the bank index in the *16-cluster* mapping; when fewer
    clusters are active the caller keeps only the low-order bits
    (``predicted % active``), exactly as described in Section 5 ("the two
    lower order bits of the prediction indicate the correct bank").

    In the pipeline the predictor is consulted at rename but trained at
    commit, with up to a full window of same-PC accesses in flight between
    the two.  Any pure history scheme then predicts from a context that
    lags by the in-flight count and never locks onto a strided bank walk,
    so each entry extrapolates past its ``inflight`` not-yet-committed
    accesses (``bank = last + stride * (inflight + 1)``).  Strided walks
    predict exactly under any lag; irregular streams drop to low
    confidence and fall back to the last committed bank.
    """

    def __init__(self, entries: int = 1024, max_banks: int = 16) -> None:
        if entries < 1 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        if max_banks < 1:
            raise ValueError("max_banks must be positive")
        self.entries = entries
        self.max_banks = max_banks
        # per entry: [last_committed_bank, stride, confidence, inflight_count]
        self._stride = [[0, 0, 0, 0] for _ in range(entries)]

    def _index(self, pc: int) -> int:
        return (pc >> 2) & (self.entries - 1)

    def predict_speculative(self, pc: int):
        """Returns (predicted_bank, token); pass the token to resolve()."""
        index = self._index(pc)
        entry = self._stride[index]
        last, stride, confidence, inflight = entry
        if confidence >= 2:
            predicted = (last + stride * (inflight + 1)) % self.max_banks
        else:
            predicted = last
        entry[3] = inflight + 1
        return predicted, (index, predicted)

    def resolve(self, token, actual_bank: int) -> None:
        """Train with the actual bank, in program (commit) order."""
        if not 0 <= actual_bank < self.max_banks:
            raise ValueError(f"bank {actual_bank} out of range")
        index, _predicted = token
        entry = self._stride[index]
        last, stride, confidence, inflight = entry
        observed = (actual_bank - last) % self.max_banks
        if observed == stride:
            confidence = min(3, confidence + 1)
        elif confidence > 0:
            confidence -= 1
        else:
            stride = observed
        entry[0] = actual_bank
        entry[1] = stride
        entry[2] = confidence
        entry[3] = max(0, inflight - 1)
