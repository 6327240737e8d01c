"""Runs are bit-identical across interpreters: no hidden input reaches them.

The paper's controllers pick a cluster count by comparing IPC between
intervals, so a draw from the process-global RNG, a wall-clock read, a
loop over a set of strings or an ordering by ``id()`` on a simulated path
would move every exhibit.  This test replays runs in two fresh
interpreters at once, with ``PYTHONHASHSEED`` 1 and 2, in which every
module-level ``random`` function and every ``time`` clock raises:

- the golden keys cover every topology, every controller, the mixed fault
  scenario and all three multiprog arbiters;
- the decision runs reach what those keys do not (an explore controller
  that finishes exploring, no-explore entering its measurement phase, the
  subroutine controller).

Every digest must match ``golden_fingerprints.json``, and the two
interpreters must agree.
"""

import json
import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = json.loads((REPO / "tests" / "golden_fingerprints.json").read_text())

GOLDEN_KEYS = (
    "ring/explore",
    "grid/no-explore",
    "decentralized/finegrain",
    "torus/static-4",
    "ring-of-rings/none",
    "decentralized/explore+mixed",
    "multiprog/gzip+swim/torus/static",
    "multiprog/gzip+swim/grid/round-robin",
    "multiprog/crafty+galgel+parser+djpeg/torus/comm-aware",
)

#: the decision runs ``tests/test_fingerprint.py`` pins (read from the
#: golden file, so that nothing under test is imported before the clocks
#: are replaced)
DECISION_KEYS = tuple(sorted(key for key in GOLDEN if key.startswith("decision/")))

_CLOCKS = (
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns",
)


def _hidden_input(*args, **kwargs):
    raise AssertionError("a simulated path read the global RNG or a clock")


def replay():
    """The child's side: print every run's digest as JSON."""
    import random
    import time

    import pytest  # noqa: F401 -- its logging reads the clock on import

    for name in random.__all__:
        if not isinstance(getattr(random, name), type):
            setattr(random, name, _hidden_input)
    for name in _CLOCKS:
        setattr(time, name, _hidden_input)

    from tests.test_fingerprint import golden_digest

    print(json.dumps({key: golden_digest(key) for key in GOLDEN_KEYS + DECISION_KEYS}))


def test_runs_replay_bit_identically_under_two_hash_seeds():
    assert len(DECISION_KEYS) == 3
    path = os.pathsep.join([str(REPO), str(REPO / "src")])
    children = {
        seed: subprocess.Popen(
            [sys.executable, "-c",
             "from tests.test_determinism import replay; replay()"],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        for seed in ("1", "2")
    }
    digests = {}
    try:
        for seed, child in children.items():
            out, err = child.communicate(timeout=120)
            assert child.returncode == 0, f"PYTHONHASHSEED={seed}\n{err.decode()}"
            digests[seed] = json.loads(out)
    finally:
        for child in children.values():
            child.kill()
            child.wait()
    for seed, replayed in digests.items():
        moved = sorted(
            key for key in GOLDEN_KEYS + DECISION_KEYS if replayed[key] != GOLDEN[key]
        )
        assert moved == [], f"PYTHONHASHSEED={seed} moved {moved}"
    assert digests["1"] == digests["2"]
