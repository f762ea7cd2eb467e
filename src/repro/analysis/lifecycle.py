"""Resource lifecycle: every shared resource has a teardown on all paths.

The resources this repo creates — ``SharedMemory`` segments, worker
``Pool``\\ s, executor sessions — outlive a garbage collection (OS-level
segments, child processes), so "the GC will get it" is a leak.  The shm
leak audits and the spawn-leg ``/dev/shm`` check catch leaks
*dynamically* when a test happens to exercise the path; this rule
demands the *syntactic* evidence that the teardown runs on every path.

For each creation of a tracked resource the rule accepts, in the
enclosing scope, any one of:

* the creation is the context expression of a ``with`` statement (or
  the bound name is later used as one);
* the bound name receives a teardown call (``close``/``unlink``/
  ``terminate``/``shutdown``/``stop``/``join``/``cancel``/``detach``/
  ``release``) inside a ``finally`` or ``except`` block;
* the value is returned or yielded (ownership transfers to the caller);
* the value is assigned to an attribute (``self._pool = …`` — the owning
  object's ``close`` is responsible, and gets its own audit);
* the bound name is passed as an argument to another call
  (``atexit.register(seg.unlink)``, ``cls(segment, …)`` — registered or
  transferred).

A creation whose result is discarded, or bound to a local with none of
the above, is flagged.  A straight-line ``pool.close()`` with no
``try``/``finally`` is *not* evidence — an exception between creation
and close leaks, which is exactly the bug class this rule exists for.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .core import Finding, Rule, Source

__all__ = ["ResourceLifecycleRule"]

#: Constructor / factory names whose results own an OS-level resource.
CREATOR_NAMES = frozenset(
    {
        "SharedMemory",
        "Pool",
        "ThreadPoolExecutor",
        "ProcessPoolExecutor",
        "open_session",
        "share",
    }
)

#: ``Class.create(...)`` factories (qualified, to keep ``create`` narrow).
CREATOR_QUALIFIED = frozenset({("SharedCSR", "create")})

TEARDOWN_METHODS = frozenset(
    {
        "close",
        "unlink",
        "terminate",
        "shutdown",
        "stop",
        "join",
        "cancel",
        "detach",
        "release",
    }
)


def _is_creator(call: ast.Call) -> str | None:
    """The resource label if ``call`` constructs a tracked resource."""
    func = call.func
    if isinstance(func, ast.Name) and func.id in CREATOR_NAMES:
        return func.id
    if isinstance(func, ast.Attribute):
        if func.attr in CREATOR_NAMES:
            return func.attr
        if (
            isinstance(func.value, ast.Name)
            and (func.value.id, func.attr) in CREATOR_QUALIFIED
        ):
            return f"{func.value.id}.{func.attr}"
    return None


class _ScopeCollector(ast.NodeVisitor):
    """All function scopes in a module, each with nesting preserved."""

    def __init__(self) -> None:
        self.scopes: list[ast.AST] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.scopes.append(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.scopes.append(node)
        self.generic_visit(node)


def _statements(scope: ast.AST) -> list[ast.stmt]:
    """Statements of ``scope``, not descending into nested functions."""
    seen: list[ast.stmt] = []
    stack = list(getattr(scope, "body", []))
    while stack:
        statement = stack.pop()
        seen.append(statement)
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for child in ast.iter_child_nodes(statement):
            if isinstance(child, ast.stmt):
                stack.append(child)
            elif isinstance(child, ast.ExceptHandler):
                stack.extend(child.body)
    return seen


class _ScopeAudit:
    """Evidence tables for one function (or module) scope."""

    def __init__(self, scope: ast.AST) -> None:
        self.statements = _statements(scope)
        self.with_names: set[str] = set()
        self.cleanup_calls: set[str] = set()  # names torn down in finally/except
        self.escaped: set[str] = set()  # returned / yielded / arg / attr-assigned
        self._collect()

    def _collect(self) -> None:
        for statement in self.statements:
            if isinstance(statement, (ast.With, ast.AsyncWith)):
                for item in statement.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Name):
                        self.with_names.add(expr.id)
            if isinstance(statement, ast.Try):
                for block in (statement.finalbody, statement.handlers):
                    for entry in block:
                        body = (
                            entry.body
                            if isinstance(entry, ast.ExceptHandler)
                            else [entry]
                        )
                        for node in body:
                            self._collect_teardowns(node)
            value = None
            if isinstance(statement, ast.Return):
                value = statement.value
            elif isinstance(statement, ast.Expr) and isinstance(
                statement.value, (ast.Yield, ast.YieldFrom)
            ):
                # a bare `obj.method()` Expr is *not* an escape; only the
                # value leaving through yield / yield from is
                value = statement.value.value
            if value is not None:
                # same func-chain carve-out as call arguments below:
                # `return session` transfers, `return session.run(jobs)`
                # only *uses* the session and still owes a teardown
                self._collect_transfers(value)
            if isinstance(statement, ast.Assign):
                targets_attr = any(
                    isinstance(t, ast.Attribute)
                    or (
                        isinstance(t, (ast.Tuple, ast.List))
                        and any(isinstance(e, ast.Attribute) for e in t.elts)
                    )
                    for t in statement.targets
                )
                if targets_attr and isinstance(statement.value, ast.Name):
                    self.escaped.add(statement.value.id)
        # names handed to any call (registered, wrapped, transferred) —
        # but only as argument *values*: `register(seg)`, `cls(seg.close)`.
        # A name reached through a call's func chain (`seg.run(jobs)`) is
        # the resource being *used*, not handed off, and is no evidence.
        for statement in self.statements:
            for node in ast.walk(statement):
                if isinstance(node, ast.Call):
                    for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                        self._collect_transfers(arg)

    def _collect_transfers(self, node: ast.AST) -> None:
        if isinstance(node, ast.Call):
            for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                self._collect_transfers(arg)
            return  # skip node.func: using a method is not a transfer
        if isinstance(node, ast.Name):
            self.escaped.add(node.id)
        for child in ast.iter_child_nodes(node):
            self._collect_transfers(child)

    def _collect_teardowns(self, node: ast.AST) -> None:
        for child in ast.walk(node):
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in TEARDOWN_METHODS
                and isinstance(child.func.value, ast.Name)
            ):
                self.cleanup_calls.add(child.func.value.id)

    def managed(self, name: str) -> bool:
        return (
            name in self.with_names
            or name in self.cleanup_calls
            or name in self.escaped
        )


class ResourceLifecycleRule(Rule):
    id = "resource-lifecycle"
    summary = (
        "SharedMemory/Pool/session/view creations need a with block, a "
        "try/finally teardown, or an ownership transfer"
    )

    def check(self, source: Source) -> Iterator[Finding]:
        collector = _ScopeCollector()
        collector.visit(source.tree)
        for scope in [source.tree, *collector.scopes]:
            yield from self._check_scope(source, scope)

    def _check_scope(self, source: Source, scope: ast.AST) -> Iterator[Finding]:
        audit = _ScopeAudit(scope)
        for statement in audit.statements:
            # with SharedMemory(...) as seg: / with graph.share() as shared:
            if isinstance(statement, (ast.With, ast.AsyncWith)):
                continue
            if isinstance(statement, ast.Expr) and isinstance(
                statement.value, ast.Call
            ):
                label = _is_creator(statement.value)
                if label is not None:
                    yield source.finding(
                        self.id,
                        statement,
                        f"{label}(...) result is discarded — the resource can "
                        "never be torn down",
                    )
            if isinstance(statement, (ast.Assign, ast.AnnAssign)):
                value = statement.value
                if not isinstance(value, ast.Call):
                    continue
                label = _is_creator(value)
                if label is None:
                    continue
                targets = (
                    statement.targets
                    if isinstance(statement, ast.Assign)
                    else [statement.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name) and not audit.managed(
                        target.id
                    ):
                        yield source.finding(
                            self.id,
                            statement,
                            f"{label}(...) bound to {target.id!r} has no "
                            "with/try-finally teardown and never escapes "
                            "this scope",
                        )

    # `with` context expressions that *are* creator calls never reach the
    # Assign/Expr branches above, so they are accepted implicitly.
