"""Determinism rules: the hot paths must be bit-identical, every run.

The repo's core contract (and the reason its differential harnesses
work at all) is that ``core/``, ``kernels/`` and ``prims/`` produce
bit-identical outcomes across kernels, backends, start methods and
graph versions.  Three things silently break that:

* **unordered-set iteration** — ``for v in {…}`` or ``for v in set(x)``
  visits vertices in hash order, which varies with ``PYTHONHASHSEED``
  (rule ``unordered-iter``);
* **ambient randomness** — module-level ``np.random.*`` / ``random.*``
  draws depend on global state any caller can perturb; diffusions must
  thread an explicit seeded generator (rule ``global-random``);
* **wall-clock reads** — ``time.time()`` and friends inside a hot path
  mean the code can branch on the clock (rule ``wall-clock``).

The fourth rule (``fast-math``) guards the C kernel build: the flags
must never include ``-ffast-math`` / ``-ffp-contract=fast`` (value
dependent reassociation and FMA contraction would detach the C kernel
from its Python twin), and a ``CFLAGS`` list in ``kernels/`` must carry
the explicit ``-ffp-contract=off -fno-fast-math`` pin.

Scope: the first three rules only fire on files living under a
``core/``, ``kernels/`` or ``prims/`` directory; ``fast-math`` fires
everywhere (a sanitizer or build helper could move).
"""

from __future__ import annotations

import ast
from typing import Iterator

from .core import Finding, Rule, Source

__all__ = [
    "FastMathRule",
    "GlobalRandomRule",
    "UnorderedIterationRule",
    "WallClockRule",
]

HOT_DIRS = frozenset({"core", "kernels", "prims"})

#: Wall-clock readers on the ``time`` module.
TIME_READS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
        "clock_gettime",
        "localtime",
        "gmtime",
    }
)

DATETIME_READS = frozenset({"now", "utcnow", "today"})

#: Global-state draws on the ``random`` module.
RANDOM_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "randbytes",
        "getrandbits",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "seed",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "expovariate",
        "betavariate",
        "gammavariate",
        "paretovariate",
        "weibullvariate",
        "vonmisesvariate",
        "triangular",
        "binomialvariate",
    }
)

#: ``np.random`` attributes that are *not* ambient state (explicit
#: generator construction is the sanctioned pattern).
NUMPY_RANDOM_OK = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
)

FORBIDDEN_CFLAGS = (
    "-ffast-math",
    "-Ofast",
    "-funsafe-math-optimizations",
    "-fassociative-math",
    "-freciprocal-math",
    "-ffp-contract=fast",
)

REQUIRED_CFLAGS = ("-ffp-contract=off", "-fno-fast-math")


def in_hot_path(source: Source) -> bool:
    """True when the file lives under a core/kernels/prims directory."""
    directories = source.display.replace("\\", "/").split("/")[:-1]
    return any(part in HOT_DIRS for part in directories)


class _ImportMap:
    """Which local names refer to the time/random/numpy modules."""

    def __init__(self, tree: ast.Module) -> None:
        self.modules: dict[str, str] = {}  # local name -> module path
        self.from_names: dict[str, tuple[str, str]] = {}  # name -> (module, attr)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.from_names[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )

    def module_of(self, name: str) -> str | None:
        return self.modules.get(name)

    def from_module(self, name: str) -> tuple[str, str] | None:
        return self.from_names.get(name)


class UnorderedIterationRule(Rule):
    id = "unordered-iter"
    summary = "hot paths must not iterate sets (hash order is not deterministic)"

    def check(self, source: Source) -> Iterator[Finding]:
        if not in_hot_path(source):
            return
        for node in ast.walk(source.tree):
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if self._is_set_expr(it):
                    yield source.finding(
                        self.id,
                        node,
                        "iterating a set visits elements in hash order; sort "
                        "first (e.g. `for v in sorted(...)`) to keep the hot "
                        "path deterministic",
                    )

    @staticmethod
    def _is_set_expr(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in {"set", "frozenset"}
        )


class GlobalRandomRule(Rule):
    id = "global-random"
    summary = (
        "hot paths must thread an explicit seeded generator, never the "
        "global np.random/random state"
    )

    def check(self, source: Source) -> Iterator[Finding]:
        if not in_hot_path(source):
            return
        imports = _ImportMap(source.tree)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                # np.random.<draw>(...)
                base = func.value
                if (
                    isinstance(base, ast.Attribute)
                    and base.attr == "random"
                    and isinstance(base.value, ast.Name)
                    and imports.module_of(base.value.id) == "numpy"
                    and func.attr not in NUMPY_RANDOM_OK
                ):
                    yield source.finding(
                        self.id,
                        node,
                        f"np.random.{func.attr}() draws from global RNG state; "
                        "use np.random.default_rng(seed) / an explicit "
                        "Generator",
                    )
                # random.<draw>(...)
                elif (
                    isinstance(base, ast.Name)
                    and imports.module_of(base.id) == "random"
                    and func.attr in RANDOM_FUNCS
                ):
                    yield source.finding(
                        self.id,
                        node,
                        f"random.{func.attr}() draws from global RNG state; "
                        "use random.Random(seed)",
                    )
            elif isinstance(func, ast.Name):
                origin = imports.from_module(func.id)
                if origin is not None:
                    module, attr = origin
                    if module == "random" and attr in RANDOM_FUNCS:
                        yield source.finding(
                            self.id,
                            node,
                            f"{func.id}() (from random) draws from global RNG "
                            "state; use random.Random(seed)",
                        )
                    elif module == "numpy.random" and attr not in NUMPY_RANDOM_OK:
                        yield source.finding(
                            self.id,
                            node,
                            f"{func.id}() (from numpy.random) draws from "
                            "global RNG state; use default_rng(seed)",
                        )


class WallClockRule(Rule):
    id = "wall-clock"
    summary = "hot paths must not read the clock (results could depend on timing)"

    def check(self, source: Source) -> Iterator[Finding]:
        if not in_hot_path(source):
            return
        imports = _ImportMap(source.tree)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                base = func.value
                if (
                    isinstance(base, ast.Name)
                    and imports.module_of(base.id) == "time"
                    and func.attr in TIME_READS
                ):
                    yield source.finding(
                        self.id,
                        node,
                        f"time.{func.attr}() read inside a hot path; timing "
                        "belongs in the engine/bench layers",
                    )
                elif func.attr in DATETIME_READS and self._datetime_base(
                    base, imports
                ):
                    yield source.finding(
                        self.id,
                        node,
                        f"datetime .{func.attr}() read inside a hot path; "
                        "timing belongs in the engine/bench layers",
                    )
            elif isinstance(func, ast.Name):
                origin = imports.from_module(func.id)
                if origin == ("time", func.id) and func.id in TIME_READS:
                    yield source.finding(
                        self.id,
                        node,
                        f"{func.id}() (from time) read inside a hot path; "
                        "timing belongs in the engine/bench layers",
                    )

    @staticmethod
    def _datetime_base(base: ast.expr, imports: _ImportMap) -> bool:
        # datetime.now() via `from datetime import datetime/date`
        if isinstance(base, ast.Name):
            origin = imports.from_module(base.id)
            return origin is not None and origin[0] == "datetime"
        # datetime.datetime.now() via `import datetime`
        return (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and imports.module_of(base.value.id) == "datetime"
        )


class FastMathRule(Rule):
    id = "fast-math"
    summary = (
        "C kernel builds must pin strict IEEE-754 semantics "
        "(-ffp-contract=off -fno-fast-math; never -ffast-math)"
    )

    def check(self, source: Source) -> Iterator[Finding]:
        # The checker's own rule tables must name the forbidden flags;
        # exempt files under an analysis/ directory from the string scan.
        if "analysis" in source.display.replace("\\", "/").split("/")[:-1]:
            return
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
                elements = node.elts
            elif isinstance(node, ast.Call):
                elements = [*node.args, *(kw.value for kw in node.keywords)]
            else:
                continue
            for element in elements:
                if not (
                    isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                ):
                    continue
                for flag in FORBIDDEN_CFLAGS:
                    if flag in element.value.split() or element.value == flag:
                        yield source.finding(
                            self.id,
                            element,
                            f"build flag {flag!r} breaks bit-identity with the "
                            "Python twin kernels (value-changing FP "
                            "optimisations); strict IEEE-754 only",
                        )
        yield from self._check_cflags_pin(source)

    def _check_cflags_pin(self, source: Source) -> Iterator[Finding]:
        if not in_hot_path(source):
            return
        for statement in source.tree.body:
            if not isinstance(statement, ast.Assign):
                continue
            for target in statement.targets:
                if not (isinstance(target, ast.Name) and target.id == "CFLAGS"):
                    continue
                if not isinstance(statement.value, (ast.List, ast.Tuple)):
                    continue
                flags = {
                    el.value
                    for el in statement.value.elts
                    if isinstance(el, ast.Constant) and isinstance(el.value, str)
                }
                for required in REQUIRED_CFLAGS:
                    if required not in flags:
                        yield source.finding(
                            self.id,
                            statement,
                            f"CFLAGS is missing the determinism pin "
                            f"{required!r} (the C kernel must match the "
                            "Python twin bit for bit)",
                        )
