"""RPR007 — never swallow ``KeyboardInterrupt`` / ``BaseException``.

``KeyboardInterrupt`` and ``SystemExit`` deliberately bypass ``except
Exception``; a handler that catches them (explicitly, via
``BaseException``, or via a bare ``except``) and does not re-raise turns
Ctrl-C into a no-op.  In a sweep harness that is a liveness bug: the user
cannot stop a multi-hour run, and the checkpoint/resume machinery never
gets to write its final journal.  Cleanup-then-reraise is the only
acceptable shape for these handlers.

Unlike RPR006 (library code only), this rule also runs on tests — a test
that swallows interrupts hangs the whole CI job when it wedges.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.imports import tree_nodes
from repro.analysis.registry import Rule, register
from repro.analysis.rules.determinism import dotted_name

#: Exception names whose capture also captures interrupts.
_INTERRUPT_CAPTURING = frozenset({"KeyboardInterrupt", "BaseException"})


def _reraises(node: ast.ExceptHandler) -> bool:
    """Whether the handler ends by re-raising the caught exception."""
    return bool(node.body) and (
        isinstance(node.body[-1], ast.Raise) and node.body[-1].exc is None
    )


def _interrupt_names(node: ast.expr | None) -> list[str]:
    if node is None:
        return ["<bare>"]
    exprs = node.elts if isinstance(node, ast.Tuple) else [node]
    out = []
    for expr in exprs:
        name = (dotted_name(expr) or "").rsplit(".", 1)[-1]
        if name in _INTERRUPT_CAPTURING:
            out.append(name)
    return out


@register
class SwallowedInterruptRule(Rule):
    id = "RPR007"
    name = "swallowed-interrupt"
    severity = Severity.ERROR
    description = (
        "handlers that capture KeyboardInterrupt/BaseException (or use a "
        "bare except) must end with a bare re-raise"
    )
    rationale = (
        "KeyboardInterrupt and SystemExit intentionally derive from "
        "BaseException so that 'except Exception' lets them through.  A "
        "handler that captures them without re-raising makes the process "
        "unkillable from the keyboard and suppresses interpreter "
        "shutdown — in a long-running sweep the user loses Ctrl-C, and "
        "crash-recovery paths (checkpoint journals, atomic-write "
        "cleanups) are silently skipped instead of unwinding.  Cleanup "
        "handlers must end with a bare 'raise'."
    )
    example = (
        "try:\n"
        "    os.replace(tmp, path)\n"
        "except BaseException:\n"
        "    os.unlink(tmp)   # RPR007: interrupt swallowed — add 'raise'\n"
    )

    def check(self, ctx) -> Iterator[Finding]:
        for node in tree_nodes(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if _reraises(node):
                continue
            for name in _interrupt_names(node.type):
                what = (
                    "bare except:" if name == "<bare>" else f"except {name}:"
                )
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset + 1,
                    f"{what} captures KeyboardInterrupt/SystemExit and never "
                    "re-raises; end the handler with a bare 'raise' (or "
                    "catch Exception instead)",
                )
