"""Docs lint: retired spellings and stale cross-references.

The executable-docs test proves ```python blocks still *run*; this file
covers what execution cannot: retired call shapes and knobs inside
non-executed fences and inline backtick spans, and `docs/*.md`
cross-references to files that no longer (or don't yet) exist.
"""

import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
DOC_FILES = sorted(
    [REPO / "README.md", REPO / "DESIGN.md", REPO / "EXPERIMENTS.md",
     *(REPO / "docs").glob("*.md")]
)
EXAMPLE_FILES = sorted((REPO / "examples").glob("*.py"))

#: retired spellings: (name, regex, what replaced it).  These were removed
#: outright; docs and examples must use only the current vocabulary.
RETIRED = [
    (
        "SweepRunner legacy kwargs",
        re.compile(
            r"SweepRunner\(\s*(jobs|use_cache|cache_dir|timeout|retries"
            r"|retry_backoff|poison_threshold|journal|resume|trace_dir"
            r"|backend)\s*="
        ),
        "SweepRunner(SweepConfig(...))",
    ),
    (
        "distributed backend",
        re.compile(
            r"--workers\b|--lanes\b|\blanes\s*=|REPRO_LANES"
            r"|backend\s*=\s*[\"']distributed[\"']|--backend[ =]distributed"
        ),
        'backend="process-pool", jobs=N (CLI --jobs N)',
    ),
    (
        "lockstep batch backend",
        re.compile(
            r"\bbatch_size\s*=|--batch-size\b"
            r"|backend\s*=\s*[\"']batch[\"']|--backend[ =]batch\b"
            r"|\bBatchEngine\b|\bBatchBackend\b|\brepro\.batch\b"
        ),
        "the fused loop runs every simulation; backend=\"serial\" or "
        "\"process-pool\"",
    ),
    (
        "MaskedSteering",
        re.compile(r"\bMaskedSteering\b"),
        "ProducerSteering.set_owned(...)",
    ),
    (
        "retired static analyser",
        # the package by module or path (``python -m`` included) and its
        # per-line suppression comments
        re.compile(r"\brepro[./]analysis\b|#\s*repro:\s*allow\b"),
        "the runtime checks and tests in the docs/ARCHITECTURE.md "
        "contract table",
    ),
    (
        "positional simulate(trace, config)",
        re.compile(
            r"\bsimulate\(\s*[\w.\"']+\s*,\s*(default_config|grid_config"
            r"|torus_config|ring_of_rings_config|decentralized_config"
            r"|monolithic_config)\b"
        ),
        "simulate(workload, topology=..., processor=...)",
    ),
    (
        "positional run_trace controller-plus-warmup",
        # four or more positional args: warmup and later are keyword-only
        re.compile(r"\brun_trace\((?:\s*[\w.()\"']+\s*,){3}\s*[\w.()\"']+"),
        "run_trace(trace, config, controller, warmup=...)",
    ),
    (
        "wrong-path fetch",
        re.compile(r"\bmodel_wrong_path\b|\bwrong_path_ablation\b"),
        "fetch stalls at a misprediction; there is no wrong-path mode",
    ),
    (
        "timeline recorder",
        re.compile(
            r"\bTimelineRecorder\b|\bexperiments\.timeline\b"
            r"|\bexperiments/timeline\.py\b|\bRunRecord\.events\b"
        ),
        "a tracer's reconfig events (repro.observability)",
    ),
    (
        "pluggable backend layer",
        re.compile(
            r"\bExecutionBackend\b|\bcreate_backend\b|\bexperiments[./]backends\b"
            r"|\bREPRO_SWEEP_BACKEND\b|\bretry_backoff\b|\bpoison_threshold\b"
            r"|\bhang_profiles\b|\bhang_seconds\b"
        ),
        'backend="serial" or "process-pool"; quarantine after 3 solo '
        "crashes; a long spec with a short timeout for the timeout path",
    ),
    (
        "pytest-benchmark exhibit harness",
        re.compile(r"\bbenchmarks/bench_|--benchmark-only\b|\bREPRO_BENCH_CACHE\b"),
        "python -m repro <exhibit> > results/<exhibit>.txt",
    ),
    (
        "fault kinds no exhibit used",
        # not the kept stat ``links_severed``
        re.compile(
            r"\bcluster_restore\b|\blink_sever\b|\blink_restore\b|\bfu_enable\b"
            r"|\bDegradedTopology\b|\bUnreachableCluster\b|\brepair_after\b"
            r"|\bfail_cluster\b|\bFaultSchedule\.from_json\b"
        ),
        "permanent cluster_kill, fu_disable and link_degrade faults on "
        "single-thread runs",
    ),
    (
        "machine-model knobs no run set",
        re.compile(
            r"\blink_bandwidth\b|\bmodel_contention\b|\bports_per_bank\b"
            r"|\bcapacity_per_slot\b|\bBankScheduler\b|\bTwoLevelBankPredictor\b"
            r"|\bbank_predictor_(?:l1_size|l2_size|history_bits)\b"
        ),
        "one transfer per link and one access per bank port per cycle "
        "(SlotReserver); StrideBankPredictor sized by "
        "MemoryConfig.bank_predictor_entries",
    ),
    (
        "chaos harness in src",
        re.compile(
            r"\brepro\.faults\b|\bfrom repro import faults\b|\bFaultPlan\b"
            r"|\bset_fault_plan\b|\bREPRO_FAULT_PLAN\b|\bFaultInjected\b"
            r"|\bscrambled?_topology\b"
        ),
        "the chaos tests inject each fault themselves "
        "(tests/experiments/injection.py)",
    ),
    (
        "second interval type",
        re.compile(r"\bIntervalRecord\b"),
        "IntervalWindow, which a recording keeps one of per interval",
    ),
]

#: docs/<NAME>.md references must resolve against the real docs tree
_DOC_REF = re.compile(r"\bdocs/([A-Z_]+\.md)\b")


#: an inline code span: `code`, or ``code with a ` inside``; it may wrap
#: across a line break within its paragraph
_INLINE_SPAN = re.compile(r"(`+)(.+?)\1", re.DOTALL)


def _paragraph_spans(paragraph):
    """(lineno, text) for each inline span in ``paragraph``, a list of
    (lineno, line); a wrapped span reads its line breaks as spaces."""
    if not paragraph:
        return []
    first = paragraph[0][0]
    text = "\n".join(line for _, line in paragraph)
    return [
        (first + text.count("\n", 0, span.start()), span.group(2).replace("\n", " "))
        for span in _INLINE_SPAN.finditer(text)
    ]


def _code_spans(path):
    """Yield (lineno, text) for every fenced block, whatever the tag, and
    every inline backtick span outside the fences — retired spellings are
    banned even in illustrative ```text fences and in prose.  Inline spans
    are matched per paragraph (the text between blank lines or fences), so
    a span that wraps across a line break is scanned whole."""
    lines = path.read_text(encoding="utf-8").splitlines()
    start = None
    block = []
    paragraph = []
    for number, line in enumerate(lines, start=1):
        if start is None:
            if line.lstrip().startswith("```"):
                yield from _paragraph_spans(paragraph)
                paragraph = []
                start = number + 1
                block = []
            elif line.strip():
                paragraph.append((number, line))
            else:
                yield from _paragraph_spans(paragraph)
                paragraph = []
        elif line.strip() == "```":
            yield start, "\n".join(block)
            start = None
        else:
            block.append(line)
    yield from _paragraph_spans(paragraph)


@pytest.mark.parametrize(
    "path", DOC_FILES, ids=[str(p.relative_to(REPO)) for p in DOC_FILES]
)
def test_doc_code_blocks_use_current_vocabulary(path):
    offenders = []
    for lineno, block in _code_spans(path):
        for name, pattern, instead in RETIRED:
            if pattern.search(block):
                offenders.append(
                    f"{path.relative_to(REPO)}:{lineno}: {name} "
                    f"(use {instead})"
                )
    assert not offenders, "\n".join(offenders)


@pytest.mark.parametrize(
    "path",
    EXAMPLE_FILES,
    ids=[str(p.relative_to(REPO)) for p in EXAMPLE_FILES],
)
def test_examples_use_current_vocabulary(path):
    source = path.read_text(encoding="utf-8")
    offenders = [
        f"{path.relative_to(REPO)}: {name} (use {instead})"
        for name, pattern, instead in RETIRED
        if pattern.search(source)
    ]
    assert not offenders, "\n".join(offenders)


@pytest.mark.parametrize(
    "path",
    DOC_FILES + EXAMPLE_FILES,
    ids=[str(p.relative_to(REPO)) for p in DOC_FILES + EXAMPLE_FILES],
)
def test_doc_cross_references_resolve(path):
    text = path.read_text(encoding="utf-8")
    missing = sorted(
        {
            f"docs/{name}"
            for name in _DOC_REF.findall(text)
            if not (REPO / "docs" / name).exists()
        }
    )
    assert not missing, (
        f"{path.relative_to(REPO)} references docs that do not exist: "
        f"{', '.join(missing)}"
    )


def test_lint_catches_retired_spellings():
    """The lint itself must fire: each retired pattern matches its own
    canonical bad example (a regression here means the docs could rot
    silently)."""
    bad = {
        "SweepRunner legacy kwargs": "runner = SweepRunner(jobs=4, use_cache=False)",
        "distributed backend": 'sweep(specs, backend="distributed")',
        "lockstep batch backend": "python -m repro figure5 --batch-size 8",
        "MaskedSteering": "from repro.multiprog import MaskedSteering",
        "retired static analyser": "LAYER_RANKS in src/repro/analysis/rules_layering.py",
        "positional simulate(trace, config)": "simulate(trace, default_config(16))",
        "positional run_trace controller-plus-warmup": (
            "run_trace(trace, config, controller, 4000)"
        ),
        "wrong-path fetch": "FrontEndConfig(model_wrong_path=True)",
        "timeline recorder": "from repro.experiments.timeline import TimelineRecorder",
        "pluggable backend layer": (
            'SweepConfig(backend=create_backend("serial"), retry_backoff=0.5)'
        ),
        "pytest-benchmark exhibit harness": (
            "pytest benchmarks/bench_fig3_static.py --benchmark-only -s"
        ),
        "fault kinds no exhibit used": (
            'FaultEvent(cycle=900, kind="cluster_restore", cluster=3)'
        ),
        "machine-model knobs no run set": (
            "InterconnectConfig(link_bandwidth=2, model_contention=False)"
        ),
        "chaos harness in src": (
            'faults.set_fault_plan(faults.FaultPlan(crash_profiles=("swim",)))'
        ),
        "second interval type": "from repro.stats import IntervalRecord",
    }
    for name, pattern, _ in RETIRED:
        assert pattern.search(bad[name]), f"{name} no longer matches"
    [faults] = [p for name, p, _ in RETIRED if name == "fault kinds no exhibit used"]
    for retired in ("link_sever", "link_restore", "fu_enable", "DegradedTopology",
                    "UnreachableCluster", "repair_after", "fail_cluster",
                    "FaultSchedule.from_json"):
        assert faults.search(retired), retired
    assert not faults.search("stats.links_severed")  # the kept stat
    [knobs] = [p for name, p, _ in RETIRED if name == "machine-model knobs no run set"]
    for retired in ("link_bandwidth", "model_contention", "ports_per_bank",
                    "capacity_per_slot", "BankScheduler", "TwoLevelBankPredictor",
                    "bank_predictor_l1_size", "bank_predictor_l2_size",
                    "bank_predictor_history_bits"):
        assert knobs.search(retired), retired
    assert not knobs.search("MemoryConfig.bank_predictor_entries")  # the kept knob
    [harness] = [p for name, p, _ in RETIRED if name == "chaos harness in src"]
    for retired in ("from repro import faults", "import repro.faults", "FaultPlan",
                    "set_fault_plan", "REPRO_FAULT_PLAN", "FaultInjected",
                    "scramble_topology", "scrambled_topology"):
        assert harness.search(retired), retired
    # the architectural fault model keeps its names
    assert not harness.search("repro.resilience.FaultSchedule")
    assert not harness.search("SimSpec(faults=schedule)")


def test_lint_scans_inline_spans_and_fences(tmp_path):
    """Prose mentions count too: an inline span outside any fence is
    scanned, also when it wraps across a line break, as is every line of a
    fence, each with its own line number."""
    doc = tmp_path / "doc.md"
    doc.write_text(
        "Use `SweepRunner(trace_dir=...)` here, not `pytest benchmarks/\n"
        "--benchmark-only`.\n"
        "```text\n"
        "python -m repro figure5 --jobs 2\n"
        "```\n",
        encoding="utf-8",
    )
    assert list(_code_spans(doc)) == [
        (1, "SweepRunner(trace_dir=...)"),
        (1, "pytest benchmarks/ --benchmark-only"),
        (4, "python -m repro figure5 --jobs 2"),
    ]
