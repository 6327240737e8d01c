"""Shared fixtures: small cached traces and processor configurations."""

from __future__ import annotations

import os

# Runtime invariant checking (repro.pipeline.invariants) is on for the
# whole test suite — including sweep worker processes, which inherit the
# environment.  Checks are read-only, so results are identical either way.
os.environ.setdefault("REPRO_CHECK_INVARIANTS", "1")

import pytest

from repro import default_config, generate_trace, get_profile
from repro.workloads.blocks import PhaseParams
from repro.workloads.generator import Profile


@pytest.fixture(autouse=True)
def _result_cache_in_tmp_path(tmp_path, monkeypatch):
    """Point the default sweep result cache into the test's own directory,
    so no test reads or writes ``~/.cache/repro`` (tests that name a cache
    directory override this)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@pytest.fixture(scope="session")
def parallel_phase() -> PhaseParams:
    """A distant-ILP-rich phase (independent iterations, wide trees)."""
    return PhaseParams(
        name="parallel",
        body_size=48,
        frac_load=0.18,
        frac_store=0.10,
        cross_iter_dep=0.0,
        chain_prob=0.20,
        inner_branches=1,
        random_branch_frac=0.01,
        biased_taken_prob=0.985,
        loop_taken_prob=0.99,
        mem_pattern="strided",
        working_set=16 * 1024,
        stride=8,
    )


@pytest.fixture(scope="session")
def serial_phase() -> PhaseParams:
    """A serial-recurrence phase (little distant ILP)."""
    return PhaseParams(
        name="serial",
        body_size=14,
        frac_load=0.26,
        frac_store=0.08,
        cross_iter_dep=0.7,
        chain_prob=0.7,
        inner_branches=2,
        random_branch_frac=0.10,
        biased_taken_prob=0.94,
        mem_pattern="random",
        working_set=32 * 1024,
    )


@pytest.fixture(scope="session")
def parallel_trace(parallel_phase):
    return generate_trace(
        Profile(name="parallel", phases=(parallel_phase,), schedule="steady"),
        6_000,
        seed=11,
    )


@pytest.fixture(scope="session")
def serial_trace(serial_phase):
    return generate_trace(
        Profile(name="serial", phases=(serial_phase,), schedule="steady"),
        6_000,
        seed=11,
    )


@pytest.fixture(scope="session")
def phased_trace(parallel_phase, serial_phase):
    """Alternating parallel/serial phases — what the controllers must track."""
    return generate_trace(
        Profile(
            name="phased",
            phases=(parallel_phase, serial_phase),
            schedule="alternate",
            segment_length=3_000,
        ),
        12_000,
        seed=11,
    )


@pytest.fixture(scope="session")
def gzip_trace():
    return generate_trace(get_profile("gzip"), 8_000, seed=5)


@pytest.fixture
def config16():
    return default_config(16)


@pytest.fixture
def config4():
    return default_config(4)
