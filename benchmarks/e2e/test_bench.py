"""Self-test of the end-to-end benchmark.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import re
import statistics

import pytest

import child
import compare
import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def bench():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def workdir():
    path = run.make_workdir()
    yield path
    run.remove_workdir(path)


@pytest.fixture(scope="module")
def two_spec_samples(workdir):
    """Two untraced and one traced 2-spec static-ring sample at seed 7."""
    untraced = [
        run.run_sample("static-ring", run.EXPECTED_SEED, workdir, traced=False, limit=2)
        for _ in range(2)
    ]
    traced = [run.run_sample("static-ring", run.EXPECTED_SEED, workdir, traced=True, limit=2)]
    return untraced, traced


def test_declared_shape(bench):
    assert bench["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert bench["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    for metric in bench["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25, metric
    setup = {m["name"]: m for m in bench["end_to_end"]}["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_declared_units_match_code(bench):
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()


def test_emitted_metrics_are_declared(bench, two_spec_samples):
    untraced, traced = two_spec_samples
    e2e = run.summarize(run.end_to_end_metrics(untraced), run.END_TO_END)
    layer = run.summarize(run.per_layer_metrics(untraced, traced), run.per_layer_units())
    assert set(e2e) == {m["name"] for m in bench["end_to_end"]}
    assert set(layer) == {m["name"] for m in bench["per_layer"]}
    for metric in list(e2e.values()) + list(layer.values()):
        assert isinstance(metric["value"], (int, float))
    shares = sum(layer[f"{name}.self_share"]["value"] for name in child.LAYERS)
    assert shares == pytest.approx(1.0)


def test_child_sample_matches_expected(two_spec_samples):
    untraced, traced = two_spec_samples
    expected = run.load_expected()["static-ring"]
    labels = [spec["label"] for spec in untraced[0]["specs"]]
    assert labels == ["cjpeg/static-2", "cjpeg/static-4"]
    attempted, failed, problems = run.check_outputs(untraced + traced, expected)
    assert (attempted, failed, problems) == (6, 0, [])
    assert traced[0]["counts"] == untraced[0]["counts"]
    assert traced[0]["stages"]["run"][1] == 2


def test_check_outputs_flags_mismatches():
    spec = {"label": "a", "ok": True, "committed": 10, "instructions": 10, "digest": "x"}
    bad = dict(spec, digest="y")
    short = dict(spec, committed=9)
    failed = dict(label="a", ok=False, instructions=10)
    samples = [{"specs": [spec]}, {"specs": [bad]}, {"specs": [short]}, {"specs": [failed]}]
    attempted, failed_count, problems = run.check_outputs(samples, None)
    assert (attempted, failed_count) == (4, 3)
    assert run.check_outputs([{"specs": [spec]}], {"a": "y"})[1] == 1


def test_fastest_takes_each_specs_minimum():
    samples = [
        {"specs": [{"duration": 1.0}, {"duration": 5.0}]},
        {"specs": [{"duration": 3.0}, {"duration": 2.0}]},
    ]
    assert run.fastest(samples, "duration") == 3.0


@pytest.mark.parametrize("base, change, expected", [
    ([10.0, 10.2, 9.8, 10.1], [10.1, 9.9, 10.0, 10.2], "unchanged"),
    ([10.0, 10.2, 9.8, 10.1], [7.0, 7.2, 6.9, 7.1], "worse"),
    ([10.0, 10.2, 9.8, 10.1], [12.0, 12.2, 11.8, 12.1], "better"),
    ([10.0, 14.0, 6.0, 10.0], [9.0, 13.0, 5.0, 9.0], "unresolved"),
])
def test_compare_verdict(base, change, expected):
    pairs = list(zip(base, change))
    assert compare.verdict(base, change, "higher", 0.1, pairs) == expected


@pytest.mark.parametrize("filename, layer", [
    ("/x/src/repro/pipeline/processor.py", "pipeline"),
    ("/x/src/repro/experiments/backends/serial.py", "experiments"),
    ("/x/src/repro/batch/core.py", "batch"),
    ("/x/src/repro/stats.py", "misc"),
    ("/x/src/repro/resilience/manager.py", "misc"),
    ("/usr/lib/python3.11/json/encoder.py", "python"),
    ("<frozen importlib._bootstrap>", "python"),
    ("/x/benchmarks/e2e/child.py", "python"),
])
def test_layer_of(filename, layer):
    assert child.layer_of(filename) == layer


def test_layers_are_declared_once():
    assert len(set(child.LAYERS)) == len(child.LAYERS)
    assert set(run.SELF_TIME_LAYERS) <= set(child.LAYERS)


@pytest.mark.parametrize("values", [[3.0, 1.0, 2.0], [5.0, 1.0, 4.0, 2.0, 3.0], [1.5, 1.5]])
def test_quartiles_and_spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert run.quartiles(values) == (q1, q3)
    assert run.spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


def test_single_value_has_no_spread():
    assert run.quartiles([4.0]) == (4.0, 4.0)
    assert run.spread([4.0]) == 0.0
