"""Shared visitor/reporting core for the ``repro_analysis`` rules.

The pieces every rule family uses:

* :class:`SourceFile` — one parsed module: text, AST, and the
  ``# repro-analysis:`` comment annotations (``ignore[RULE]``
  suppressions and ``holds[lock]`` assertions), resolved to line spans.
* :class:`Project` — the repo layout the rules walk (``src/repro``,
  ``examples``, ``tests``), parsed once and shared.
* The rule registry — rule modules register a
  ``func(project) -> [Finding]`` under an id via :func:`rule`; the
  runner applies suppressions centrally so every rule gets the same
  comment syntax for free.
* :class:`Report` — partitioned results (live findings, suppressed
  findings, unused suppressions) with text and JSON renderings.

Suppression scope: an ``ignore[RULE]`` comment matches findings on its
own line and the line directly below it (so it can sit above a
statement), and when it sits on — or directly above — a ``def`` /
``class`` header it covers the whole body.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

#: Rule id for tool-level diagnostics (unparseable file, malformed
#: annotation, unused suppression under ``--strict``).  Not suppressible.
META_RULE = "RA0"

_ANNOTATION_RE = re.compile(r"#\s*repro-analysis:\s*(ignore|holds)\[([^\]]*)\]")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


class SourceFile:
    """One parsed python module plus its ``repro-analysis`` annotations."""

    def __init__(self, path: Path, rel: str, text: str) -> None:
        self.path = path
        self.rel = rel
        self.text = text
        self.lines = text.splitlines()
        self.parse_error: Optional[str] = None
        try:
            self.tree: Optional[ast.Module] = ast.parse(text)
        except SyntaxError as error:
            self.tree = None
            self.parse_error = f"{error.msg} (line {error.lineno})"
        #: line -> rules ignored on that line (directly annotated lines).
        self.ignores: Dict[int, Set[str]] = {}
        #: line -> lock names asserted held (annotated ``def`` lines).
        self.holds: Dict[int, Set[str]] = {}
        for number, line in enumerate(self.lines, 1):
            for kind, payload in _ANNOTATION_RE.findall(line):
                names = {part.strip() for part in payload.split(",") if part.strip()}
                target = self.ignores if kind == "ignore" else self.holds
                target.setdefault(number, set()).update(names)
        #: (start, end, rules) spans from annotated def/class headers.
        self.ignore_spans: List[Tuple[int, int, Set[str]]] = []
        if self.tree is not None:
            for node in ast.walk(self.tree):
                if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    continue
                header = min(
                    [node.lineno] + [dec.lineno for dec in node.decorator_list]
                )
                rules: Set[str] = set()
                for line in (header, header - 1):
                    rules |= self.ignores.get(line, set())
                if rules:
                    self.ignore_spans.append((header, node.end_lineno or header, rules))

    def held_locks_for(self, node: ast.AST) -> Set[str]:
        """Locks a ``holds[...]`` annotation asserts for a function node."""
        header = min(
            [node.lineno] + [dec.lineno for dec in getattr(node, "decorator_list", [])]
        )
        held: Set[str] = set()
        for line in (header, header - 1):
            held |= self.holds.get(line, set())
        return held

    def suppressors_at(self, line: int, rule: str) -> List[int]:
        """Annotation lines whose ``ignore[rule]`` covers ``line``."""
        matches = []
        for candidate in (line, line - 1):
            if rule in self.ignores.get(candidate, set()):
                matches.append(candidate)
        for start, end, rules in self.ignore_spans:
            if rule in rules and start <= line <= end:
                for candidate in (start, start - 1):
                    if rule in self.ignores.get(candidate, set()):
                        matches.append(candidate)
        return matches


class Project:
    """The repo layout the rules analyze, parsed once.

    ``src_files`` covers ``src/repro`` (the package under contract),
    ``example_files`` the runnable ``examples/``.
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root).resolve()
        self.src_files = self._parse_tree(self.root / "src" / "repro")
        self.example_files = self._parse_tree(self.root / "examples")

    def _parse_tree(self, base: Path) -> List[SourceFile]:
        files = []
        if not base.is_dir():
            return files
        for path in sorted(base.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            rel = path.relative_to(self.root).as_posix()
            files.append(SourceFile(path, rel, path.read_text()))
        return files

    @property
    def lintable_files(self) -> List[SourceFile]:
        return self.src_files + self.example_files

    def parse_failures(self) -> List[Finding]:
        return [
            Finding(META_RULE, f.rel, 1, f"file does not parse: {f.parse_error}")
            for f in self.lintable_files
            if f.parse_error is not None
        ]


#: Registered rules: id -> (title, func(project) -> [Finding]).
RULES: Dict[str, Tuple[str, Callable[[Project], List[Finding]]]] = {}


def rule(rule_id: str, title: str):
    """Register a rule function under ``rule_id`` (decorator)."""

    def register(func: Callable[[Project], List[Finding]]):
        RULES[rule_id] = (title, func)
        return func

    return register


@dataclass
class Report:
    """Partitioned analysis results plus render helpers."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    unused_suppressions: List[Finding] = field(default_factory=list)
    rules: List[str] = field(default_factory=list)
    n_files: int = 0

    def failed(self, strict: bool = False) -> bool:
        if self.findings:
            return True
        return strict and bool(self.unused_suppressions)

    def to_text(self, strict: bool = False) -> str:
        out = []
        for finding in self.findings:
            out.append(finding.format())
        if strict or not self.findings:
            for finding in self.suppressed:
                out.append(f"{finding.format()} [suppressed]")
        if strict:
            for finding in self.unused_suppressions:
                out.append(finding.format())
        out.append(
            f"{len(self.findings)} finding(s), {len(self.suppressed)} suppressed, "
            f"{len(self.unused_suppressions)} unused suppression(s); "
            f"{self.n_files} files, rules: {', '.join(self.rules)}"
        )
        return "\n".join(out)

    def to_json(self) -> Dict[str, object]:
        return {
            "findings": [f.as_dict() for f in self.findings],
            "suppressed": [f.as_dict() for f in self.suppressed],
            "unused_suppressions": [f.as_dict() for f in self.unused_suppressions],
            "rules": list(self.rules),
            "n_files": self.n_files,
        }


def _file_index(project: Project) -> Dict[str, SourceFile]:
    return {f.rel: f for f in project.lintable_files}


def run_rules(project: Project, rule_ids: Optional[Sequence[str]] = None) -> Report:
    """Run the selected rules and partition findings by suppression."""
    # Import for side effect: rule modules self-register on import.
    from . import determinism, locks, versions  # noqa: F401

    selected = list(rule_ids) if rule_ids else sorted(RULES)
    unknown = [rid for rid in selected if rid not in RULES]
    if unknown:
        raise ValueError(f"unknown rule id(s): {', '.join(unknown)} (have {sorted(RULES)})")

    files = _file_index(project)
    report = Report(rules=selected, n_files=len(project.lintable_files))
    report.findings.extend(project.parse_failures())

    used: Set[Tuple[str, int]] = set()
    for rule_id in selected:
        _, func = RULES[rule_id]
        for finding in func(project):
            source = files.get(finding.path)
            suppressors = (
                source.suppressors_at(finding.line, finding.rule) if source else []
            )
            if suppressors:
                for line in suppressors:
                    used.add((finding.path, line))
                report.suppressed.append(finding)
            else:
                report.findings.append(finding)

    for source in project.lintable_files:
        for line, rules in sorted(source.ignores.items()):
            relevant = rules & set(selected)
            if relevant and (source.rel, line) not in used:
                report.unused_suppressions.append(
                    Finding(
                        META_RULE,
                        source.rel,
                        line,
                        f"suppression ignore[{','.join(sorted(relevant))}] no longer "
                        f"matches any finding — remove it",
                    )
                )

    report.findings.sort(key=lambda f: (f.path, f.line, f.rule))
    report.suppressed.sort(key=lambda f: (f.path, f.line, f.rule))
    return report
