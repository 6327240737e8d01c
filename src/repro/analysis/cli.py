"""``python -m repro.analysis`` — the lint front end.

Exit codes: 0 clean (or everything suppressed), 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from collections import Counter
from typing import List, Optional

from .registry import all_rules
from .runner import analyze_paths

_DEFAULT_PATHS = ("src", "benchmarks", "examples")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Static analysis enforcing the reproduction's determinism (D), "
            "layering (L), and facade-vocabulary (S) invariants."
        ),
    )
    parser.add_argument(
        "paths", nargs="*",
        help=f"files or directories to analyse (default: "
             f"{' '.join(_DEFAULT_PATHS)}, those that exist)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select", action="append", default=[], metavar="RULES",
        help="comma-separated rule ids or family prefixes to run (e.g. "
             "D101,S or L)",
    )
    parser.add_argument(
        "--ignore", action="append", default=[], metavar="RULES",
        help="comma-separated rule ids or family prefixes to skip",
    )
    parser.add_argument(
        "--root", type=pathlib.Path, default=None,
        help="directory findings paths are reported relative to "
             "(default: cwd)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--show-suppressed", action="store_true",
        help="also list findings silenced by # repro: allow comments",
    )
    return parser


def _split_csv(values: List[str]) -> List[str]:
    out: List[str] = []
    for value in values:
        out.extend(v.strip() for v in value.split(",") if v.strip())
    return out


def _resolve_paths(args_paths: List[str]) -> List[pathlib.Path]:
    if args_paths:
        return [pathlib.Path(p) for p in args_paths]
    return [pathlib.Path(p) for p in _DEFAULT_PATHS if pathlib.Path(p).exists()]


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.RULE_ID}  [{rule.scope:7s}] {rule.RULE_DOC}")
        return 0

    paths = _resolve_paths(args.paths)
    if not paths:
        parser.error("no paths given and none of the defaults exist")
    missing = [p for p in paths if not p.exists()]
    if missing:
        parser.error(f"no such path: {', '.join(map(str, missing))}")

    result = analyze_paths(
        paths,
        root=args.root,
        select=_split_csv(args.select),
        ignore=_split_csv(args.ignore),
    )
    findings = result.findings

    if args.format == "json":
        payload = {
            "version": 1,
            "files_scanned": result.files_scanned,
            "findings": [f.to_json() for f in findings],
            "suppressed": [f.to_json() for f in result.suppressed],
            "counts": dict(Counter(f.rule for f in findings)),
            "ok": not findings,
        }
        print(json.dumps(payload, indent=2))
    else:
        for finding in findings:
            print(finding.render())
        if args.show_suppressed and result.suppressed:
            print(f"-- {len(result.suppressed)} suppressed:")
            for finding in result.suppressed:
                print(f"   {finding.render()}")
        summary = (
            f"{result.files_scanned} file(s) scanned, "
            f"{len(findings)} finding(s)"
        )
        if result.suppressed:
            summary += f", {len(result.suppressed)} suppressed"
        print(summary)

    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
