"""Knob and wire-schema completeness, read from the definitions.

Every engine entry point turns its knobs into one
:class:`~repro.core.options.EngineOptions` record with
``EngineOptions.coerce``, so a new dataclass field reaches the Python
layers by construction.  The one layer that still lists knobs by hand is
the CLI's argparse flag set; a field it never learned about is accepted
by the library and unreachable from the command line.  These rules read
the *definitions* — the options dataclasses and the argparse flags in
``cli.py`` — and cross-check them, so the gap is caught at analysis time
instead of in a flaky integration test.

Two rule ids:

* ``knob-threading`` — EngineOptions fields vs the CLI flag set.
* ``wire-schema`` — ClusterRequest fields vs its wire-v1 ``known``
  tuple and ``to_wire`` payload keys.

Both locate their inputs *structurally* (the file that defines
``class EngineOptions``, the one that defines ``build_parser``, …) so
they work unchanged on fixture trees; if a definition is absent from
the analyzed paths, its checks are skipped rather than failed.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .core import Finding, Project, Rule, Source

__all__ = ["KnobThreadingRule", "WireSchemaRule"]

#: Knobs deliberately absent from the CLI: ``backend`` is inferred
#: (``--workers`` implies it), ``parallel`` and
#: ``include_vectors`` are per-call API arguments, not serving flags.
CLI_EXEMPT = frozenset({"backend", "parallel", "include_vectors"})

#: Knobs whose CLI flag is spelled differently from the field name:
#: ``graph_version`` surfaces as ``--at-version`` (``repro cluster
#: --at-version K`` reads as "cluster at version K").  Each entry lists
#: every flag spelling that satisfies the rule.
CLI_ALIASES = {"graph_version": ("graph_version", "at_version")}


def _dataclass_fields(node: ast.ClassDef) -> dict[str, int]:
    """Annotated field names of a dataclass body, with line numbers."""
    fields: dict[str, int] = {}
    for statement in node.body:
        if isinstance(statement, ast.AnnAssign) and isinstance(
            statement.target, ast.Name
        ):
            fields[statement.target.id] = statement.lineno
    return fields


def _string_tuple(node: ast.AST) -> tuple[str, ...] | None:
    if isinstance(node, (ast.Tuple, ast.List)) and all(
        isinstance(el, ast.Constant) and isinstance(el.value, str)
        for el in node.elts
    ):
        return tuple(el.value for el in node.elts)
    return None


def _method(node: ast.ClassDef, name: str) -> ast.FunctionDef | None:
    for statement in node.body:
        if isinstance(statement, ast.FunctionDef) and statement.name == name:
            return statement
    return None


def _argparse_flags(source: Source) -> set[str]:
    """Every ``--flag`` registered via ``add_argument``, as knob names."""
    flags: set[str] = set()
    for node in ast.walk(source.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
        ):
            for arg in node.args:
                if (
                    isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)
                    and arg.value.startswith("--")
                ):
                    flags.add(arg.value[2:].replace("-", "_"))
    return flags


class KnobThreadingRule(Rule):
    id = "knob-threading"
    summary = "every EngineOptions field must have a CLI flag"
    scope = "project"

    def check_project(self, project: Project) -> Iterator[Finding]:
        located = project.find_class("EngineOptions")
        if located is None:
            return
        yield from self._check_cli(project, _dataclass_fields(located[1]))

    def _check_cli(
        self, project: Project, fields: dict[str, int]
    ) -> Iterator[Finding]:
        # Several modules may define a `build_parser` (the analyzer has its
        # own); the engine flags may live in any of them, so union the flag
        # sets and anchor findings at the richest parser (the real CLI).
        candidates: list[tuple[Source, ast.AST, set[str]]] = []
        for candidate in project.sources:
            for node in candidate.tree.body:
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name == "build_parser"
                ):
                    candidates.append((candidate, node, _argparse_flags(candidate)))
                    break
        if not candidates:
            return
        source, node, _ = max(candidates, key=lambda entry: len(entry[2]))
        flags = set().union(*(entry[2] for entry in candidates))
        for field in sorted(fields):
            if field in CLI_EXEMPT:
                continue
            accepted = CLI_ALIASES.get(field, (field,))
            if not any(name in flags for name in accepted):
                spellings = " or ".join(
                    f"--{name.replace('_', '-')}" for name in accepted
                )
                yield source.finding(
                    self.id,
                    node.lineno,
                    f"no {spellings} CLI flag for the "
                    f"EngineOptions knob {field!r}",
                )


class WireSchemaRule(Rule):
    id = "wire-schema"
    summary = (
        "ClusterRequest fields, its from_wire known-set and its to_wire "
        "payload keys must agree (wire schema v1)"
    )
    scope = "project"

    def check_project(self, project: Project) -> Iterator[Finding]:
        located = project.find_class("ClusterRequest")
        if located is None:
            return
        source, node = located
        fields = _dataclass_fields(node)

        from_wire = _method(node, "from_wire")
        if from_wire is not None:
            known = self._known_tuple(from_wire)
            if known is None:
                yield source.finding(
                    self.id,
                    from_wire.lineno,
                    "ClusterRequest.from_wire has no literal `known` tuple",
                )
            else:
                names, lineno = known
                expected = set(fields) | {"v"}
                for missing in sorted(expected - set(names)):
                    yield source.finding(
                        self.id,
                        lineno,
                        f"wire field {missing!r} is not in from_wire's known set "
                        "(strict v1 parses will reject it)",
                    )
                for extra in sorted(set(names) - expected):
                    yield source.finding(
                        self.id,
                        lineno,
                        f"from_wire's known set names {extra!r} which is not a "
                        "ClusterRequest field",
                    )

        to_wire = _method(node, "to_wire")
        if to_wire is not None:
            written = self._written_keys(to_wire)
            for missing in sorted(set(fields) - written):
                yield source.finding(
                    self.id,
                    to_wire.lineno,
                    f"ClusterRequest.{missing} is never written by to_wire "
                    "(the field cannot round-trip)",
                )

    @staticmethod
    def _known_tuple(
        node: ast.FunctionDef,
    ) -> tuple[tuple[str, ...], int] | None:
        for statement in ast.walk(node):
            if isinstance(statement, ast.Assign):
                for target in statement.targets:
                    if isinstance(target, ast.Name) and target.id == "known":
                        names = _string_tuple(statement.value)
                        if names is not None:
                            return names, statement.lineno
        return None

    @staticmethod
    def _written_keys(node: ast.FunctionDef) -> set[str]:
        keys: set[str] = set()
        for statement in ast.walk(node):
            if isinstance(statement, ast.Dict):
                for key in statement.keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        keys.add(key.value)
            elif isinstance(statement, ast.Assign):
                for target in statement.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Constant)
                        and isinstance(target.slice.value, str)
                    ):
                        keys.add(target.slice.value)
        return keys
