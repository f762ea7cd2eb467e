"""Framework for the repo's AST-based invariant checker.

The moving parts, smallest first:

* :class:`Finding` — one violation: rule id, file, line, message.
* :class:`Source` — one parsed Python file: the ``ast`` tree, the raw
  lines, and the ``# repro: ignore[rule-id]`` suppressions harvested
  from them.  Suppressions are *per line*: a comment on the reported
  line silences that rule there (``ignore[all]`` silences every rule).
* :class:`Project` — every :class:`Source` under the analyzed paths,
  with lookup helpers for the cross-file rules (a class or function by
  name, wherever it lives).
* :class:`Rule` — the plug-in surface.  A rule declares an ``id`` and a
  ``scope``: ``"file"`` rules get each :class:`Source` in turn,
  ``"project"`` rules get the whole :class:`Project` once and may
  correlate definitions across files (the knob-threading family).
* :func:`analyze` — load, run every rule, apply suppressions, and
  return a :class:`Report` that renders as human lines or JSON.

Files that fail to parse surface as ``syntax-error`` findings rather
than aborting the run; exit-code policy (0 clean / 1 findings / 2
internal error) lives in :mod:`repro.analysis.cli`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

__all__ = [
    "AnalysisError",
    "Finding",
    "Project",
    "Report",
    "Rule",
    "Source",
    "analyze",
]

_SUPPRESS = re.compile(r"#\s*repro:\s*ignore\[([A-Za-z0-9_\-, ]+)\]")

#: Rule id attached to files the checker cannot parse.  Not
#: suppressible (there is no AST to anchor a suppression to).
SYNTAX_RULE = "syntax-error"


class AnalysisError(RuntimeError):
    """A usage-level failure (bad path, unknown rule): exit code 2."""


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a file and line."""

    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"

    def to_json(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


class Source:
    """One parsed Python file plus its per-line suppressions."""

    def __init__(self, path: Path, display: str, text: str) -> None:
        self.path = path
        #: Path as reported in findings — relative to the analyzed root.
        self.display = display
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=str(path))
        self.suppressions = self._parse_suppressions(self.lines)

    @staticmethod
    def _parse_suppressions(lines: Sequence[str]) -> dict[int, frozenset[str]]:
        table: dict[int, frozenset[str]] = {}
        for number, line in enumerate(lines, start=1):
            match = _SUPPRESS.search(line)
            if match is not None:
                rules = {part.strip() for part in match.group(1).split(",")}
                table[number] = frozenset(rule for rule in rules if rule)
        return table

    def suppressed(self, rule: str, line: int) -> bool:
        rules = self.suppressions.get(line)
        return rules is not None and (rule in rules or "all" in rules)

    def finding(self, rule: str, node: ast.AST | int, message: str) -> Finding:
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        return Finding(path=self.display, line=line, rule=rule, message=message)


class Project:
    """Every successfully parsed source under the analyzed paths."""

    def __init__(self, sources: Iterable[Source]) -> None:
        self.sources = list(sources)
        self._by_display = {source.display: source for source in self.sources}

    def source_for(self, display: str) -> Source | None:
        return self._by_display.get(display)

    def find_class(self, name: str) -> tuple[Source, ast.ClassDef] | None:
        """First module-level class definition called ``name``, if any."""
        for source in self.sources:
            for node in source.tree.body:
                if isinstance(node, ast.ClassDef) and node.name == name:
                    return source, node
        return None


class Rule:
    """Base class for checks; subclasses override one ``check_*`` hook."""

    id: str = ""
    summary: str = ""
    scope: str = "file"  # "file" or "project"

    def check(self, source: Source) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: Project) -> Iterator[Finding]:
        return iter(())


@dataclass
class Report:
    """The outcome of one analysis run."""

    findings: list[Finding]
    files: int
    suppressed: int
    rules: list[str]

    @property
    def clean(self) -> bool:
        return not self.findings

    def render(self) -> str:
        lines = [finding.render() for finding in sorted(self.findings)]
        noun = "file" if self.files == 1 else "files"
        if self.findings:
            count = len(self.findings)
            tail = f"{count} finding{'s' if count != 1 else ''} in {self.files} {noun}"
        else:
            tail = f"clean: {self.files} {noun} checked"
        if self.suppressed:
            tail += f" ({self.suppressed} suppressed)"
        lines.append(tail)
        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        return {
            "version": 1,
            "files": self.files,
            "rules": sorted(self.rules),
            "findings": [finding.to_json() for finding in sorted(self.findings)],
            "suppressed": self.suppressed,
        }


def _iter_python_files(root: Path) -> Iterator[Path]:
    for path in sorted(root.rglob("*.py")):
        if any(part == "__pycache__" or part.startswith(".") for part in path.parts):
            continue
        yield path


def load_sources(paths: Sequence[str | Path]) -> tuple[list[Source], list[Finding]]:
    """Read every ``.py`` file under ``paths``; syntax errors → findings."""
    sources: list[Source] = []
    errors: list[Finding] = []
    seen: set[Path] = set()
    for raw in paths:
        given = Path(raw)
        if not given.exists():
            raise AnalysisError(f"path does not exist: {given}")
        if given.is_dir():
            targets = [(path, path.relative_to(given)) for path in _iter_python_files(given)]
            displays = [str(Path(given.name) / rel) for _, rel in targets]
        elif given.suffix == ".py":
            targets = [(given, given)]
            displays = [str(given)]
        else:
            raise AnalysisError(f"not a Python file or directory: {given}")
        for (path, _), display in zip(targets, displays):
            resolved = path.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            text = path.read_text(encoding="utf-8")
            try:
                sources.append(Source(path, display, text))
            except SyntaxError as error:
                errors.append(
                    Finding(
                        path=display,
                        line=error.lineno or 1,
                        rule=SYNTAX_RULE,
                        message=f"file does not parse: {error.msg}",
                    )
                )
    return sources, errors


def analyze(
    paths: Sequence[str | Path], rules: Sequence[Rule] | None = None
) -> Report:
    """Run ``rules`` (default: the full registry) over ``paths``."""
    if rules is None:
        from . import ALL_RULES

        rules = ALL_RULES
    sources, findings = load_sources(paths)
    project = Project(sources)
    suppressed = 0
    for rule in rules:
        if rule.scope == "project":
            emitted: Iterable[Finding] = rule.check_project(project)
        else:
            emitted = (
                finding for source in sources for finding in rule.check(source)
            )
        for finding in emitted:
            source = project.source_for(finding.path)
            if source is not None and source.suppressed(finding.rule, finding.line):
                suppressed += 1
                continue
            findings.append(finding)
    return Report(
        findings=sorted(findings),
        files=len(sources) + sum(1 for f in findings if f.rule == SYNTAX_RULE),
        suppressed=suppressed,
        rules=[rule.id for rule in rules],
    )
