#!/usr/bin/env python
"""Zero-dependency docs builder and smoke-checker.

Three jobs, stdlib only:

1. **Symbol validation** — every ``repro.*`` dotted name written in
   backticks in the README or the docs pages must import and carry a
   docstring, so the reference cannot drift from the code.  For the
   modules in ``COVERAGE_MODULES`` the inverse also holds: every
   ``__all__`` name must be documented somewhere, so new public surface
   cannot ship undocumented.
2. **Code-block smoke** — every fenced ``python`` block in the README and
   docs is executed in a fresh subprocess (with ``src`` on the path), as
   are the example scripts in ``EXAMPLE_SCRIPTS``; the quickstart a new
   user copy-pastes is therefore tested on every CI run.
3. **Rendering** — a minimal Markdown-to-HTML pass writes browsable pages
   to ``docs/_build/`` (headings, fenced code, lists, tables, block
   quotes, inline code/bold/links).

Usage::

    python docs/build.py           # validate symbols + render docs/_build/
    python docs/build.py --check   # validate symbols + run code blocks (CI)
"""

from __future__ import annotations

import argparse
import html
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs"
SOURCES = [
    ROOT / "README.md",
    DOCS / "index.md",
    DOCS / "api.md",
    DOCS / "features.md",
    DOCS / "performance.md",
    DOCS / "serving.md",
    DOCS / "scenarios.md",
    DOCS / "analysis.md",
]

#: Example scripts executed (like code blocks) in --check mode.
EXAMPLE_SCRIPTS = [
    ROOT / "examples" / "serve_demo.py",
    ROOT / "examples" / "scenario_drift.py",
]

#: Modules whose *entire* public surface (``__all__``) must be named in
#: the docs — the inverse of symbol validation: not "everything written
#: resolves" but "everything public is written somewhere".  A symbol
#: documented under a re-export path counts for every module that
#: exports the same object (matched by identity, see
#: :func:`check_public_coverage`).
COVERAGE_MODULES = [
    "repro",
    "repro.baselines",
    "repro.core",
    "repro.data",
    "repro.experiments",
    "repro.extensions",
    "repro.factorgraph",
    "repro.featurize",
    "repro.fusion",
    "repro.optim",
    "repro.serve",
]

SYMBOL_RE = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)")
FENCE_RE = re.compile(r"^```(\w*)\s*$")


# ----------------------------------------------------------------------
# Symbol validation
# ----------------------------------------------------------------------
def collect_symbols(paths) -> dict:
    """Dotted ``repro.*`` names per source file (from inline code spans)."""
    found = {}
    for path in paths:
        names = sorted(set(SYMBOL_RE.findall(path.read_text())))
        if names:
            found[path] = names
    return found


def resolve(dotted: str):
    """Import the longest module prefix of ``dotted``, getattr the rest."""
    parts = dotted.split(".")
    module = None
    for stop in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:stop]))
        except ImportError:
            continue
        break
    if module is None:
        raise ImportError(f"no importable prefix of {dotted!r}")
    obj = module
    for attr in parts[stop:]:
        obj = getattr(obj, attr)
    return obj


def check_symbols(paths) -> list:
    """Return a list of human-readable failures (empty = all good)."""
    failures = []
    for path, names in collect_symbols(paths).items():
        for name in names:
            try:
                obj = resolve(name)
            except (ImportError, AttributeError) as error:
                failures.append(f"{path.name}: {name} does not resolve ({error})")
                continue
            if type(obj).__module__ == "typing":
                continue  # type aliases (Union[...] etc.) cannot carry docstrings
            docstring = getattr(obj, "__doc__", None)
            if callable(obj) or isinstance(obj, type) or hasattr(obj, "__file__"):
                if not (docstring and docstring.strip()):
                    failures.append(f"{path.name}: {name} has no docstring")
    return failures


def check_public_coverage(paths) -> list:
    """Every ``__all__`` name of the coverage modules must be documented.

    A public symbol counts as documented when its dotted name (e.g.
    ``repro.serve.FusionServer``) appears in an inline code span in at
    least one docs source, **or** when some documented name resolves to
    the very same object — the facade re-exports (``repro.SLiMFast`` is
    ``repro.core.SLiMFast``) are one object with many public paths, and
    documenting one path documents them all.  Identity matching is
    restricted to classes/functions/modules: primitive constants (an
    ``int`` version, a tuple of solver names) share identity by
    interning, so they must be named explicitly.  Resolvability and
    docstrings are then covered by :func:`check_symbols` like any other
    documented name.
    """
    documented = set()
    for names in collect_symbols(paths).values():
        documented.update(names)
    documented_ids = set()
    for dotted in documented:
        try:
            obj = resolve(dotted)
        except (ImportError, AttributeError):
            continue  # check_symbols reports unresolvable names
        if callable(obj) or isinstance(obj, type) or hasattr(obj, "__file__"):
            documented_ids.add(id(obj))
    failures = []
    for module_name in COVERAGE_MODULES:
        module = importlib.import_module(module_name)
        for public in module.__all__:
            dotted = f"{module_name}.{public}"
            if dotted in documented:
                continue
            obj = getattr(module, public)
            identity_ok = (
                callable(obj) or isinstance(obj, type) or hasattr(obj, "__file__")
            ) and id(obj) in documented_ids
            if not identity_ok:
                failures.append(
                    f"{dotted} is public (in {module_name}.__all__) but never "
                    f"documented — name it (or a re-export of the same object) "
                    f"in docs/ or the README"
                )
    return failures


# ----------------------------------------------------------------------
# Code-block smoke
# ----------------------------------------------------------------------
def python_blocks(path: Path) -> list:
    """(start line, code) of each fenced ``python`` block in ``path``."""
    blocks = []
    lines = path.read_text().splitlines()
    inside = None
    start = 0
    chunk: list = []
    for number, line in enumerate(lines, 1):
        fence = FENCE_RE.match(line)
        if inside is None:
            if fence and fence.group(1) == "python":
                inside, start, chunk = "python", number, []
            elif fence:
                inside = "other"
        elif fence:
            if inside == "python":
                blocks.append((start, "\n".join(chunk)))
            inside = None
        elif inside == "python":
            chunk.append(line)
    return blocks


def run_blocks(paths) -> list:
    """Execute every python block in a clean subprocess; return failures."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    failures = []
    for path in paths:
        for start, code in python_blocks(path):
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=env,
                cwd=str(ROOT),
                timeout=600,
            )
            label = f"{path.name}:{start}"
            if proc.returncode != 0:
                failures.append(f"{label} failed:\n{proc.stderr.strip()}")
            else:
                print(f"  ran {label} ok")
    return failures


def run_examples(paths) -> list:
    """Execute example scripts end to end; return failures."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    failures = []
    for path in paths:
        proc = subprocess.run(
            [sys.executable, str(path)],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(ROOT),
            timeout=600,
        )
        label = str(path.relative_to(ROOT))
        if proc.returncode != 0:
            failures.append(f"{label} failed:\n{proc.stderr.strip()}")
        else:
            print(f"  ran {label} ok")
    return failures


# ----------------------------------------------------------------------
# Minimal Markdown -> HTML
# ----------------------------------------------------------------------
def _inline(text: str) -> str:
    text = html.escape(text, quote=False)
    text = re.sub(r"`([^`]+)`", r"<code>\1</code>", text)
    text = re.sub(r"\*\*([^*]+)\*\*", r"<strong>\1</strong>", text)
    text = re.sub(
        r"\[([^\]]+)\]\(([^)]+)\)",
        lambda m: f'<a href="{m.group(2).replace(".md", ".html")}">{m.group(1)}</a>',
        text,
    )
    return text


def render_markdown(text: str) -> str:
    out = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        fence = FENCE_RE.match(line)
        if fence:
            code = []
            i += 1
            while i < len(lines) and not FENCE_RE.match(lines[i]):
                code.append(lines[i])
                i += 1
            out.append(f"<pre><code>{html.escape(chr(10).join(code))}</code></pre>")
        elif line.startswith("#"):
            level = len(line) - len(line.lstrip("#"))
            out.append(f"<h{level}>{_inline(line.lstrip('# '))}</h{level}>")
        elif line.startswith("|"):
            rows = []
            while i < len(lines) and lines[i].startswith("|"):
                cells = [c.strip() for c in lines[i].strip("|").split("|")]
                if not all(set(c) <= {"-", " ", ":"} for c in cells):
                    rows.append(cells)
                i += 1
            i -= 1
            body = []
            for row in rows:
                cells_html = "".join(f"<td>{_inline(c)}</td>" for c in row)
                body.append(f"<tr>{cells_html}</tr>")
            out.append("<table>" + "".join(body) + "</table>")
        elif line.startswith(("- ", "* ")):
            items = []
            bullet_or_wrap = ("- ", "* ", "  ")
            while i < len(lines) and lines[i].startswith(bullet_or_wrap):
                if lines[i].startswith(("- ", "* ")):
                    items.append(lines[i][2:])
                elif items:
                    items[-1] += " " + lines[i].strip()
                i += 1
            i -= 1
            items_html = "".join(f"<li>{_inline(item)}</li>" for item in items)
            out.append(f"<ul>{items_html}</ul>")
        elif line.startswith(">"):
            quote = []
            while i < len(lines) and lines[i].startswith(">"):
                quote.append(lines[i].lstrip("> "))
                i += 1
            i -= 1
            out.append(f"<blockquote><p>{_inline(' '.join(quote))}</p></blockquote>")
        elif line.strip():
            paragraph = [line]
            block_starts = ("#", "|", "- ", "* ", ">", "```")
            while (
                i + 1 < len(lines)
                and lines[i + 1].strip()
                and not lines[i + 1].startswith(block_starts)
            ):
                i += 1
                paragraph.append(lines[i])
            out.append(f"<p>{_inline(' '.join(paragraph))}</p>")
        i += 1
    return "\n".join(out)


PAGE = """<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>{title}</title>
<style>
body {{ max-width: 46rem; margin: 2rem auto; padding: 0 1rem;
       font: 16px/1.6 system-ui, sans-serif; color: #1a1a1a; }}
pre {{ background: #f6f8fa; padding: 0.8rem; overflow-x: auto; border-radius: 6px; }}
code {{ background: #f6f8fa; padding: 0.1rem 0.25rem; border-radius: 4px;
        font-size: 0.9em; }}
pre code {{ padding: 0; }}
table {{ border-collapse: collapse; }}
td {{ border: 1px solid #d0d7de; padding: 0.3rem 0.6rem; }}
blockquote {{ border-left: 4px solid #d0d7de; margin-left: 0; padding-left: 1rem;
              color: #57606a; }}
</style></head><body>
{body}
</body></html>
"""


def render(paths, output: Path) -> None:
    output.mkdir(parents=True, exist_ok=True)
    for path in paths:
        text = path.read_text()
        title = next(
            (line.lstrip("# ") for line in text.splitlines() if line.startswith("#")),
            path.stem,
        )
        target = output / f"{path.stem.lower()}.html"
        target.write_text(PAGE.format(title=html.escape(title), body=render_markdown(text)))
        print(f"  rendered {target.relative_to(ROOT)}")


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Build and smoke-check the docs.")
    parser.add_argument(
        "--check",
        action="store_true",
        help="also execute the README/docs python code blocks (CI mode)",
    )
    parser.add_argument(
        "--output", type=Path, default=DOCS / "_build", help="HTML output directory"
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    print("validating documented symbols...")
    failures = check_symbols(SOURCES)
    print("checking public-surface coverage...")
    failures += check_public_coverage(SOURCES)
    if args.check:
        print("running documentation code blocks...")
        failures += run_blocks(SOURCES)
        print("running example scripts...")
        failures += run_examples(EXAMPLE_SCRIPTS)
    else:
        render(SOURCES, args.output)

    if failures:
        print("\nDOCS BUILD FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("docs ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
