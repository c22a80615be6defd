"""Suppression machinery, report rendering, CLI, and live-tree self-checks."""

import json
import subprocess
import sys

from tools.repro_analysis import Project, run_rules

from .conftest import REPO_ROOT

_VIOLATION = """
import numpy as np

def draw():
    return np.random.default_rng().random()
"""


# ----------------------------------------------------------------------
# Suppression comments
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_same_line_suppression(self, make_tree):
        root = make_tree(
            {
                "src/repro/mod.py": """
                import numpy as np

                def draw():
                    return np.random.default_rng().random()  # repro-analysis: ignore[RA1]
                """
            }
        )
        report = run_rules(Project(root), ["RA1"])
        assert report.findings == []
        assert len(report.suppressed) == 1
        assert report.unused_suppressions == []

    def test_line_above_suppression(self, make_tree):
        root = make_tree(
            {
                "src/repro/mod.py": """
                import numpy as np

                def draw():
                    # repro-analysis: ignore[RA1]
                    return np.random.default_rng().random()
                """
            }
        )
        report = run_rules(Project(root), ["RA1"])
        assert report.findings == []
        assert len(report.suppressed) == 1

    def test_def_header_suppression_covers_body(self, make_tree):
        root = make_tree(
            {
                "src/repro/mod.py": """
                import numpy as np

                def draw():  # repro-analysis: ignore[RA1]
                    first = np.random.default_rng().random()
                    second = np.random.default_rng().random()
                    return first + second
                """
            }
        )
        report = run_rules(Project(root), ["RA1"])
        assert report.findings == []
        assert len(report.suppressed) == 2

    def test_suppression_is_rule_specific(self, make_tree):
        root = make_tree(
            {
                "src/repro/mod.py": """
                import numpy as np

                def draw():
                    return np.random.default_rng().random()  # repro-analysis: ignore[RA2]
                """
            }
        )
        report = run_rules(Project(root), ["RA1"])
        assert len(report.findings) == 1

    def test_unused_suppression_fails_only_strict(self, make_tree):
        root = make_tree(
            {
                "src/repro/mod.py": """
                X = 1  # repro-analysis: ignore[RA1]
                """
            }
        )
        report = run_rules(Project(root), ["RA1"])
        assert report.findings == []
        assert len(report.unused_suppressions) == 1
        assert report.unused_suppressions[0].rule == "RA0"
        assert not report.failed(strict=False)
        assert report.failed(strict=True)

    def test_suppression_for_unselected_rule_is_not_unused(self, make_tree):
        root = make_tree(
            {
                "src/repro/mod.py": """
                X = 1  # repro-analysis: ignore[RA2]
                """
            }
        )
        report = run_rules(Project(root), ["RA1"])
        assert report.unused_suppressions == []

    def test_syntax_error_is_a_meta_finding(self, make_tree):
        root = make_tree({"src/repro/mod.py": "def broken(:\n"})
        report = run_rules(Project(root), ["RA1"])
        assert [f.rule for f in report.findings] == ["RA0"]
        assert report.failed()


# ----------------------------------------------------------------------
# Report rendering
# ----------------------------------------------------------------------
class TestReport:
    def test_text_and_json_shapes(self, make_tree):
        root = make_tree({"src/repro/mod.py": _VIOLATION})
        report = run_rules(Project(root), ["RA1"])
        text = report.to_text()
        assert "src/repro/mod.py:5: RA1:" in text
        assert "1 finding(s)" in text
        payload = report.to_json()
        assert payload["rules"] == ["RA1"]
        assert payload["findings"][0]["rule"] == "RA1"
        assert json.loads(json.dumps(payload)) == payload

    def test_findings_sorted_by_location(self, make_tree):
        root = make_tree(
            {
                "src/repro/b.py": _VIOLATION,
                "src/repro/a.py": _VIOLATION,
            }
        )
        report = run_rules(Project(root), ["RA1"])
        assert [f.path for f in report.findings] == ["src/repro/a.py", "src/repro/b.py"]


# ----------------------------------------------------------------------
# Live tree: the repo must satisfy its own analyzers
# ----------------------------------------------------------------------
class TestLiveTree:
    def test_repo_is_clean_including_strict(self):
        report = run_rules(Project(REPO_ROOT))
        assert report.rules == ["RA1", "RA2", "RA4"]
        assert report.findings == [], "\n" + report.to_text()
        assert report.unused_suppressions == [], "\n" + report.to_text(strict=True)

    def test_every_live_suppression_carries_a_rationale(self):
        # Suppressions in the shipped tree must explain themselves: a
        # non-empty comment line above, or prose after the annotation.
        project = Project(REPO_ROOT)
        for source in project.lintable_files:
            for line in source.ignores:
                above = source.lines[line - 2].strip() if line >= 2 else ""
                assert above.startswith("#") and len(above) > 1, (
                    f"{source.rel}:{line}: suppression without a rationale "
                    f"comment above it"
                )

    def test_every_live_suppression_names_a_registered_rule(self):
        # A suppression for an unregistered (e.g. retired) rule is never
        # selected, so --strict cannot report it as unused.
        from tools.repro_analysis.core import RULES

        project = Project(REPO_ROOT)
        run_rules(project, ["RA1"])  # registers every rule module
        for source in project.lintable_files:
            for line, rules in source.ignores.items():
                assert rules <= set(RULES), f"{source.rel}:{line}: {sorted(rules - set(RULES))}"

    def test_versions_lock_matches_live_tree(self):
        from tools.repro_analysis.versions import compute_entities, read_lock

        entities, problems = compute_entities(REPO_ROOT)
        assert problems == []
        locked = read_lock(REPO_ROOT)
        assert locked == entities


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _cli(*argv, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, "-m", "tools.repro_analysis", *argv],
        cwd=cwd,
        capture_output=True,
        text=True,
    )


class TestCLI:
    def test_json_run_on_live_tree_exits_zero(self):
        proc = _cli("--format=json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["findings"] == []
        assert payload["rules"] == ["RA1", "RA2", "RA4"]

    def test_findings_exit_one(self, make_tree):
        root = make_tree({"src/repro/mod.py": _VIOLATION})
        proc = _cli("--root", str(root))
        assert proc.returncode == 1
        assert "RA1" in proc.stdout

    def test_rules_subset_and_list(self):
        proc = _cli("--rules", "RA1", "--format=json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["rules"] == ["RA1"]
        listing = _cli("--list-rules")
        assert listing.returncode == 0
        assert all(rid in listing.stdout for rid in ("RA1", "RA2", "RA4"))

    def test_retired_rule_id_exits_two(self):
        proc = _cli("--rules", "RA3")
        assert proc.returncode == 2
        assert "unknown rule id(s): RA3" in proc.stderr

    def test_bad_root_exits_two(self, tmp_path):
        proc = _cli("--root", str(tmp_path))
        assert proc.returncode == 2
        assert "src/repro" in proc.stderr

    def test_update_lock_writes_lock(self, make_tree):
        root = make_tree(
            {
                "src/repro/featurize/groups.py": "class FeatureGroup:\n    version = 1\n",
                "src/repro/featurize/stats.py": "def volume(c):\n    return c\n",
                "src/repro/featurize/pipeline.py": "FEATURIZER_VERSION = 1\n",
            }
        )
        proc = _cli("--root", str(root), "--update-lock")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lock = json.loads((root / "tools/repro_analysis/versions.lock").read_text())
        assert "groups.FeatureGroup" in lock["entities"]
