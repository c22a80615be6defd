"""Good/bad fixture snippets for each rule family RA1-RA4.

Each rule must demonstrably fail on its bad fixture and stay silent on
the good one — this is the suite that keeps the analyzers honest.
"""

import pytest

from tools.repro_analysis import Project, run_rules
from tools.repro_analysis.versions import update_lock


def findings_for(root, rules):
    report = run_rules(Project(root), rules)
    return report.findings


def rule_lines(findings, rule):
    return [(f.path, f.line) for f in findings if f.rule == rule]


# ----------------------------------------------------------------------
# RA1 — determinism
# ----------------------------------------------------------------------
class TestRA1Determinism:
    def test_flags_adhoc_default_rng(self, make_tree):
        root = make_tree(
            {
                "src/repro/mod.py": """
                import numpy as np

                def draw(seed):
                    rng = np.random.default_rng(seed)
                    return rng.random()
                """
            }
        )
        findings = findings_for(root, ["RA1"])
        assert rule_lines(findings, "RA1") == [("src/repro/mod.py", 5)]
        assert "as_generator" in findings[0].message

    def test_flags_legacy_module_level_numpy(self, make_tree):
        root = make_tree(
            {
                "src/repro/mod.py": """
                import numpy as np

                def reset():
                    np.random.seed(0)
                    return np.random.rand(3)
                """
            }
        )
        assert len(rule_lines(findings_for(root, ["RA1"]), "RA1")) == 2

    def test_flags_stdlib_random_calls_and_imports(self, make_tree):
        root = make_tree(
            {
                "src/repro/mod.py": """
                import random
                from random import shuffle

                def pick(items):
                    shuffle(items)
                    return random.choice(items)
                """
            }
        )
        # import-from, shuffle() call, random.choice() call.
        assert len(rule_lines(findings_for(root, ["RA1"]), "RA1")) == 3

    def test_flags_numpy_random_importfrom(self, make_tree):
        root = make_tree(
            {
                "src/repro/mod.py": """
                from numpy.random import default_rng
                """
            }
        )
        assert len(rule_lines(findings_for(root, ["RA1"]), "RA1")) == 1

    def test_good_fixture_is_clean(self, make_tree):
        root = make_tree(
            {
                "src/repro/mod.py": """
                import numpy as np
                from repro._rng import as_generator, spawn_generators

                def draw(seed):
                    rng = as_generator(seed)
                    children = spawn_generators(seed, 2)
                    assert isinstance(rng, np.random.Generator)
                    return rng.random(), children
                """
            }
        )
        assert findings_for(root, ["RA1"]) == []

    def test_allowlists_the_rng_module_itself(self, make_tree):
        root = make_tree(
            {
                "src/repro/_rng.py": """
                import numpy as np

                def as_generator(seed):
                    return np.random.default_rng(seed)
                """
            }
        )
        assert findings_for(root, ["RA1"]) == []

    def test_examples_are_in_scope(self, make_tree):
        root = make_tree(
            {
                "src/repro/mod.py": "X = 1\n",
                "examples/demo.py": """
                import numpy as np

                rng = np.random.default_rng()
                """,
            }
        )
        assert rule_lines(findings_for(root, ["RA1"]), "RA1") == [("examples/demo.py", 4)]


# ----------------------------------------------------------------------
# RA2 — lock discipline
# ----------------------------------------------------------------------
_GUARDED_HEADER = """
import threading

GUARDED_BY = {"_published": "_swap_lock", "_count": "_swap_lock"}


class Store:
    def __init__(self):
        self._swap_lock = threading.Lock()
        self._published = None
        self._count = 0
"""


class TestRA2LockDiscipline:
    def test_flags_unlocked_access(self, make_tree):
        root = make_tree(
            {
                "src/repro/serve_mod.py": _GUARDED_HEADER
                + """
    def peek(self):
        return self._published
                """
            }
        )
        lines = rule_lines(findings_for(root, ["RA2"]), "RA2")
        assert len(lines) == 1
        assert lines[0][0] == "src/repro/serve_mod.py"

    def test_with_lock_is_clean(self, make_tree):
        root = make_tree(
            {
                "src/repro/serve_mod.py": _GUARDED_HEADER
                + """
    def peek(self):
        with self._swap_lock:
            return self._published, self._count
                """
            }
        )
        assert findings_for(root, ["RA2"]) == []

    def test_access_after_with_block_is_flagged(self, make_tree):
        root = make_tree(
            {
                "src/repro/serve_mod.py": _GUARDED_HEADER
                + """
    def swap(self, value):
        with self._swap_lock:
            self._published = value
        self._count += 1
                """
            }
        )
        assert len(rule_lines(findings_for(root, ["RA2"]), "RA2")) == 1

    def test_holds_annotation_discharges(self, make_tree):
        root = make_tree(
            {
                "src/repro/serve_mod.py": _GUARDED_HEADER
                + """
    def _publish_locked(self, value):  # repro-analysis: holds[_swap_lock]
        self._published = value
        self._count += 1
                """
            }
        )
        assert findings_for(root, ["RA2"]) == []

    def test_init_is_exempt(self, make_tree):
        # _GUARDED_HEADER's __init__ assigns both attributes unlocked.
        root = make_tree({"src/repro/serve_mod.py": _GUARDED_HEADER})
        assert findings_for(root, ["RA2"]) == []

    def test_nested_function_does_not_inherit_lock(self, make_tree):
        root = make_tree(
            {
                "src/repro/serve_mod.py": _GUARDED_HEADER
                + """
    def deferred(self):
        with self._swap_lock:
            def later():
                return self._published
            return later
                """
            }
        )
        assert len(rule_lines(findings_for(root, ["RA2"]), "RA2")) == 1

    def test_non_literal_table_is_a_meta_finding(self, make_tree):
        root = make_tree(
            {
                "src/repro/serve_mod.py": """
                LOCK = "_lock"
                GUARDED_BY = {"_published": LOCK}
                """
            }
        )
        findings = findings_for(root, ["RA2"])
        assert [f.rule for f in findings] == ["RA0"]

    def test_modules_without_table_are_out_of_scope(self, make_tree):
        root = make_tree(
            {
                "src/repro/plain.py": """
                class Store:
                    def peek(self):
                        return self._published
                """
            }
        )
        assert findings_for(root, ["RA2"]) == []


# ----------------------------------------------------------------------
# RA4 — cache-version honesty
# ----------------------------------------------------------------------
_FEATURIZE_TREE = {
    "src/repro/featurize/groups.py": """
    class FeatureGroup:
        version = 1

    class VolumeGroup(FeatureGroup):
        version = 1

        def compute(self, stats):
            return stats.volume()
    """,
    "src/repro/featurize/stats.py": """
    def volume(counts):
        return counts.sum(axis=1)
    """,
    "src/repro/featurize/pipeline.py": """
    FEATURIZER_VERSION = 1
    """,
}


class TestRA4CacheVersionHonesty:
    def test_missing_lock_is_flagged(self, make_tree):
        root = make_tree(dict(_FEATURIZE_TREE))
        findings = findings_for(root, ["RA4"])
        assert len(findings) == 1
        assert "--update-lock" in findings[0].message

    def test_update_lock_round_trip(self, make_tree):
        root = make_tree(dict(_FEATURIZE_TREE))
        entities, problems = update_lock(root)
        assert problems == []
        assert set(entities) == {
            "groups.FeatureGroup",
            "groups.VolumeGroup",
            "featurize.stats",
        }
        assert findings_for(root, ["RA4"]) == []

    def test_source_change_without_bump_fails(self, make_tree):
        root = make_tree(dict(_FEATURIZE_TREE))
        update_lock(root)
        groups = root / "src/repro/featurize/groups.py"
        groups.write_text(groups.read_text().replace("stats.volume()", "stats.volume() * 2"))
        findings = findings_for(root, ["RA4"])
        assert len(findings) == 1
        assert "bump the version" in findings[0].message
        assert "groups.VolumeGroup" in findings[0].message

    def test_bumped_version_asks_for_lock_refresh(self, make_tree):
        root = make_tree(dict(_FEATURIZE_TREE))
        update_lock(root)
        groups = root / "src/repro/featurize/groups.py"
        source = groups.read_text().replace("stats.volume()", "stats.volume() * 2")
        source = source.replace("    version = 1\n\n    def compute", "    version = 2\n\n    def compute")
        groups.write_text(source)
        findings = findings_for(root, ["RA4"])
        assert len(findings) == 1
        assert "refresh" in findings[0].message
        # And --update-lock clears it.
        update_lock(root)
        assert findings_for(root, ["RA4"]) == []

    def test_stats_change_requires_featurizer_version_bump(self, make_tree):
        root = make_tree(dict(_FEATURIZE_TREE))
        update_lock(root)
        stats = root / "src/repro/featurize/stats.py"
        stats.write_text(stats.read_text().replace("axis=1", "axis=-1"))
        findings = findings_for(root, ["RA4"])
        assert len(findings) == 1
        assert "featurize.stats" in findings[0].message
        pipeline = root / "src/repro/featurize/pipeline.py"
        pipeline.write_text("FEATURIZER_VERSION = 2\n")
        (refresh,) = findings_for(root, ["RA4"])
        assert "refresh" in refresh.message

    def test_whitespace_only_edits_do_not_trip(self, make_tree):
        root = make_tree(dict(_FEATURIZE_TREE))
        update_lock(root)
        stats = root / "src/repro/featurize/stats.py"
        stats.write_text(stats.read_text().replace("\n", "\n\n", 1) + "\n\n")
        assert findings_for(root, ["RA4"]) == []

    def test_new_and_removed_entities_point_at_update_lock(self, make_tree):
        root = make_tree(dict(_FEATURIZE_TREE))
        update_lock(root)
        groups = root / "src/repro/featurize/groups.py"
        groups.write_text(
            groups.read_text()
            + "\n\nclass BreadthGroup(FeatureGroup):\n    version = 1\n"
        )
        findings = findings_for(root, ["RA4"])
        assert len(findings) == 1
        assert "new entity" in findings[0].message
        groups.write_text(
            "class FeatureGroup:\n    version = 1\n"
        )
        messages = [f.message for f in findings_for(root, ["RA4"])]
        assert any("no longer exists" in m for m in messages)

    def test_missing_version_attribute_is_flagged(self, make_tree):
        tree = dict(_FEATURIZE_TREE)
        tree["src/repro/featurize/groups.py"] = """
        class FeatureGroup:
            version = 1

        class VolumeGroup(FeatureGroup):
            def compute(self, stats):
                return stats.volume()
        """
        root = make_tree(tree)
        update_lock(root)
        findings = findings_for(root, ["RA4"])
        assert any("version = N" in f.message for f in findings)


# ----------------------------------------------------------------------
# Cross-rule: selection
# ----------------------------------------------------------------------
def test_unknown_rule_id_raises(make_tree):
    root = make_tree({"src/repro/mod.py": "X = 1\n"})
    with pytest.raises(ValueError, match="unknown rule"):
        run_rules(Project(root), ["RA9"])
