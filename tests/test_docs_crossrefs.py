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
DOC_FILES = sorted([REPO / "README.md", *(REPO / "docs").glob("*.md")])
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
]

#: docs/<NAME>.md references must resolve against the real docs tree
_DOC_REF = re.compile(r"\bdocs/([A-Z_]+\.md)\b")


#: an inline code span: `code`, or ``code with a ` inside``
_INLINE_SPAN = re.compile(r"(`+)(.+?)\1")


def _code_spans(path):
    """Yield (lineno, text) for every fenced block, whatever the tag, and
    every inline backtick span outside the fences — retired spellings are
    banned even in illustrative ```text fences and in prose."""
    lines = path.read_text(encoding="utf-8").splitlines()
    start = None
    block = []
    for number, line in enumerate(lines, start=1):
        if start is None:
            if line.lstrip().startswith("```"):
                start = number + 1
                block = []
            else:
                for span in _INLINE_SPAN.finditer(line):
                    yield number, span.group(2)
        elif line.strip() == "```":
            yield start, "\n".join(block)
            start = None
        else:
            block.append(line)


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
    }
    for name, pattern, _ in RETIRED:
        assert pattern.search(bad[name]), f"{name} no longer matches"


def test_lint_scans_inline_spans_and_fences(tmp_path):
    """Prose mentions count too: an inline span outside any fence is
    scanned, as is every line of a fence, each with its own line number."""
    doc = tmp_path / "doc.md"
    doc.write_text(
        "Use `SweepRunner(trace_dir=...)` here.\n"
        "```text\n"
        "python -m repro figure5 --jobs 2\n"
        "```\n",
        encoding="utf-8",
    )
    assert list(_code_spans(doc)) == [
        (1, "SweepRunner(trace_dir=...)"),
        (3, "python -m repro figure5 --jobs 2"),
    ]
