"""CLI for the repro static-analysis suite.

Exit codes: 0 clean, 1 findings (or, with ``--strict``, unused
suppressions), 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .core import RULES, Project, run_rules
from .versions import update_lock


def _parse_rules(spec: str) -> List[str]:
    return [part.strip().upper() for part in spec.split(",") if part.strip()]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.repro_analysis",
        description="Repo-aware static analysis: determinism (RA1), lock "
        "discipline (RA2), cache-version honesty (RA4).",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parents[2],
        help="repository root to analyze (default: this checkout)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="RA1,RA2,...",
        help="comma-separated subset of rules to run (default: all)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also fail on suppression comments that no longer match anything",
    )
    parser.add_argument(
        "--update-lock",
        action="store_true",
        help="recompute featurizer digests and rewrite versions.lock, then exit",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    args = parser.parse_args(argv)

    # Rule modules self-register on import; pull them in for --list-rules
    # the same way run_rules does.
    from . import determinism, locks, versions  # noqa: F401

    if args.list_rules:
        for rule_id in sorted(RULES):
            title, _ = RULES[rule_id]
            print(f"{rule_id}  {title}")
        return 0

    root = args.root.resolve()
    if not (root / "src" / "repro").is_dir():
        print(f"error: {root} does not look like the repo root (no src/repro)", file=sys.stderr)
        return 2

    if args.update_lock:
        entities, problems = update_lock(root)
        for finding in problems:
            print(finding.format(), file=sys.stderr)
        print(f"pinned {len(entities)} entities in tools/repro_analysis/versions.lock")
        return 2 if problems else 0

    rule_ids = _parse_rules(args.rules) if args.rules else None
    try:
        report = run_rules(Project(root), rule_ids)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.to_text(strict=args.strict))
    return 1 if report.failed(strict=args.strict) else 0


if __name__ == "__main__":
    sys.exit(main())
