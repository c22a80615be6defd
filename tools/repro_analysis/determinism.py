"""RA1 — determinism: all RNGs flow through ``repro._rng``.

The reproduction's cross-process contracts (parallel sweeps, scenario
streams replayed in ``spawn`` workers) hold only when every random
stream is derived from an explicit seed through ``SeedSequence`` —
which is exactly what :func:`repro._rng.as_generator` /
``spawn_generators`` do.  This rule
flags the constructions that bypass that chokepoint in ``src/repro``
and ``examples``:

* ``np.random.default_rng(...)`` — even seeded: ad-hoc construction
  skips the ``Generator``-passthrough and ``RandomState`` rejection of
  ``as_generator``, and unseeded calls are silently irreproducible;
* legacy module-level ``np.random.*`` calls (``seed``, ``rand``,
  ``RandomState()``, ...) — hidden global state;
* stdlib ``random`` module calls and ``from numpy.random import ...``
  aliases of the above.

Allowlisted: ``src/repro/_rng.py`` itself (the definition site is the
one place allowed to call ``default_rng``).  Genuinely
entropy-by-design sites must carry ``# repro-analysis: ignore[RA1]``.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from .core import Finding, Project, SourceFile, rule

RULE_ID = "RA1"

#: Files allowed to construct generators directly: the chokepoint itself.
ALLOWLIST = {"src/repro/_rng.py"}

#: ``numpy.random`` attributes that are fine to *reference* (types used
#: in annotations / isinstance checks, and the seeding machinery).
_NUMPY_RANDOM_OK = {"Generator", "SeedSequence", "BitGenerator", "PCG64"}

#: stdlib ``random`` members whose call implies drawing from (or
#: seeding) the hidden global stream.
_STDLIB_RANDOM = {
    "betavariate",
    "choice",
    "choices",
    "expovariate",
    "gauss",
    "getrandbits",
    "lognormvariate",
    "normalvariate",
    "paretovariate",
    "randbytes",
    "randint",
    "random",
    "randrange",
    "sample",
    "seed",
    "shuffle",
    "triangular",
    "uniform",
    "vonmisesvariate",
    "weibullvariate",
}


def _numpy_random_attr(node: ast.AST, numpy_aliases: Set[str], random_aliases: Set[str]) -> Optional[str]:
    """The ``X`` of an ``np.random.X`` / ``<numpy.random alias>.X`` access."""
    if not isinstance(node, ast.Attribute):
        return None
    value = node.value
    if (
        isinstance(value, ast.Attribute)
        and value.attr == "random"
        and isinstance(value.value, ast.Name)
        and value.value.id in numpy_aliases
    ):
        return node.attr
    if isinstance(value, ast.Name) and value.id in random_aliases:
        return node.attr
    return None


def _check_file(source: SourceFile) -> List[Finding]:
    tree = source.tree
    if tree is None:
        return []
    numpy_aliases: Set[str] = set()  # names bound to the numpy module
    npr_aliases: Set[str] = set()  # names bound to numpy.random
    stdlib_random_aliases: Set[str] = set()  # names bound to stdlib random
    from_random_names: Set[str] = set()  # sampling funcs imported from random
    findings: List[Finding] = []

    def flag(node: ast.AST, message: str) -> None:
        findings.append(Finding(RULE_ID, source.rel, node.lineno, message))

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if alias.name == "numpy":
                    numpy_aliases.add(bound)
                elif alias.name == "numpy.random":
                    npr_aliases.add(alias.asname or "numpy")
                    if alias.asname:
                        npr_aliases.add(alias.asname)
                elif alias.name == "random":
                    stdlib_random_aliases.add(bound)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "numpy" and node.level == 0:
                for alias in node.names:
                    if alias.name == "random":
                        npr_aliases.add(alias.asname or "random")
            elif node.module == "numpy.random" and node.level == 0:
                for alias in node.names:
                    if alias.name not in _NUMPY_RANDOM_OK:
                        flag(
                            node,
                            f"import of numpy.random.{alias.name}: route seeds "
                            f"through repro._rng.as_generator/spawn_generators "
                            f"(re-exported by repro.data.simulators)",
                        )
            elif node.module == "random" and node.level == 0:
                for alias in node.names:
                    if alias.name in _STDLIB_RANDOM:
                        from_random_names.add(alias.asname or alias.name)
                        flag(
                            node,
                            f"import of stdlib random.{alias.name}: draws from "
                            f"hidden global state; use a numpy Generator from "
                            f"repro._rng.as_generator",
                        )

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        attr = _numpy_random_attr(func, numpy_aliases, npr_aliases)
        if attr == "default_rng":
            flag(
                node,
                "ad-hoc np.random.default_rng(): call "
                "repro._rng.as_generator(seed) (or spawn_generators) so seeds "
                "keep the cross-process determinism contract",
            )
        elif attr is not None and attr not in _NUMPY_RANDOM_OK:
            flag(
                node,
                f"legacy module-level np.random.{attr}() call: hidden global "
                f"RNG state breaks reproducibility; use a Generator from "
                f"repro._rng.as_generator",
            )
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in stdlib_random_aliases
            and func.attr in _STDLIB_RANDOM
        ):
            flag(
                node,
                f"stdlib random.{func.attr}() call: draws from hidden global "
                f"state; use a numpy Generator from repro._rng.as_generator",
            )
        elif isinstance(func, ast.Name) and func.id in from_random_names:
            flag(
                node,
                f"stdlib random.{func.id}() call: draws from hidden global "
                f"state; use a numpy Generator from repro._rng.as_generator",
            )
    return findings


@rule(RULE_ID, "determinism: RNGs flow through repro._rng")
def check(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for source in project.lintable_files:
        if source.rel in ALLOWLIST:
            continue
        findings.extend(_check_file(source))
    return findings
