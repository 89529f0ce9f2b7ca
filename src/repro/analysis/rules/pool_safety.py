"""RPR003 — objects crossing the process-pool boundary must be picklable.

``repro.engine.executor`` ships job specs to worker processes.  Pickle
resolves functions and classes *by module-qualified name*, so lambdas,
closures, and classes defined inside functions fail at submit time (or
worse, at result time, where the error is attributed to the wrong
layer).  Job specs additionally rely on being frozen dataclasses:
hashable (for dedup), immutable (so the cache key cannot drift after
hashing), and cheaply picklable.

Two checks:

- arguments submitted to an executor (``*.submit(f, ...)``, pool
  ``map``/``starmap``/``apply_async``) must not be lambdas or
  locally-defined functions/classes;
- subclasses of ``Job`` must be module-level ``@dataclass(frozen=True)``
  (abstract intermediates with an ``ABC`` base are exempt).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.imports import tree_nodes
from repro.analysis.registry import Rule, register
from repro.analysis.rules.determinism import dotted_name

_SUBMIT_ANY = frozenset({"submit"})
_SUBMIT_POOLISH = frozenset({"map", "starmap", "apply_async", "imap", "imap_unordered"})
_POOLISH_TOKENS = ("pool", "executor", "exec")


def _terminal(name: str | None) -> str:
    return name.rsplit(".", 1)[-1] if name else ""


def _local_defs(tree: ast.Module) -> set[str]:
    """Names of functions/classes defined inside another function."""
    local: set[str] = set()

    def walk(node: ast.AST, inside_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if inside_function:
                    local.add(child.name)
                walk(child, True)
            elif isinstance(child, ast.ClassDef):
                if inside_function:
                    local.add(child.name)
                walk(child, inside_function)
            else:
                walk(child, inside_function)

    walk(tree, False)
    return local


def _is_abstract(node: ast.ClassDef) -> bool:
    for base in node.bases:
        if _terminal(dotted_name(base)) in {"ABC", "ABCMeta"}:
            return True
    for kw in node.keywords:
        if kw.arg == "metaclass":
            return True
    return any(
        isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            _terminal(dotted_name(d)) == "abstractmethod" for d in stmt.decorator_list
        )
        for stmt in node.body
    )


def _frozen_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        if not isinstance(deco, ast.Call):
            continue
        if _terminal(dotted_name(deco.func)) != "dataclass":
            continue
        for kw in deco.keywords:
            if (
                kw.arg == "frozen"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
            ):
                return True
    return False


@register
class PoolSafetyRule(Rule):
    id = "RPR003"
    name = "pool-safety"
    severity = Severity.ERROR
    description = (
        "work shipped to the process pool must be module-level and "
        "picklable (no lambdas/closures/local classes); Job subclasses "
        "must be module-level frozen dataclasses"
    )

    def check(self, ctx) -> Iterator[Finding]:
        local_defs = _local_defs(ctx.tree)
        for node in tree_nodes(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_submit(ctx, node, local_defs)
        yield from self._check_job_classes(ctx)

    def _check_submit(self, ctx, node: ast.Call, local_defs: set[str]) -> Iterator[Finding]:
        if not isinstance(node.func, ast.Attribute):
            return
        method = node.func.attr
        if method in _SUBMIT_ANY:
            pass
        elif method in _SUBMIT_POOLISH:
            receiver = (dotted_name(node.func.value) or "").lower()
            if not any(tok in receiver for tok in _POOLISH_TOKENS):
                return
        else:
            return
        for arg in node.args:
            at = (arg.lineno, arg.col_offset + 1)
            if isinstance(arg, ast.Lambda):
                yield self.finding(
                    ctx, *at,
                    f"lambda passed to .{method}(): lambdas cannot be "
                    "pickled into worker processes; use a module-level "
                    "function",
                )
            elif isinstance(arg, ast.Name) and arg.id in local_defs:
                yield self.finding(
                    ctx, *at,
                    f"{arg.id!r} passed to .{method}() is defined inside a "
                    "function; pickle resolves by module-qualified name, so "
                    "move it to module level",
                )

    def _check_job_classes(self, ctx) -> Iterator[Finding]:
        def walk(node: ast.AST, inside_function: bool) -> Iterator[Finding]:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    yield from self._check_one_class(ctx, child, inside_function)
                    yield from walk(child, inside_function)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from walk(child, True)
                else:
                    yield from walk(child, inside_function)

        yield from walk(ctx.tree, False)

    def _check_one_class(
        self, ctx, node: ast.ClassDef, inside_function: bool
    ) -> Iterator[Finding]:
        base_names = {_terminal(dotted_name(b)) for b in node.bases}
        if not any(b == "Job" or (b.endswith("Job") and b != node.name) for b in base_names):
            return
        at = (node.lineno, node.col_offset + 1)
        if inside_function:
            yield self.finding(
                ctx, *at,
                f"Job subclass {node.name!r} is defined inside a function; "
                "worker processes cannot unpickle it — move it to module "
                "level",
            )
            return
        if _is_abstract(node):
            return
        if not _frozen_dataclass(node):
            yield self.finding(
                ctx, *at,
                f"Job subclass {node.name!r} must be @dataclass(frozen=True): "
                "specs are hashed for dedup and must not mutate after "
                "cache-key construction",
            )
