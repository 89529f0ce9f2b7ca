"""RPR006 — no broad ``except Exception`` / bare ``except`` in library code.

A broad catch turns every future bug — typos, unit errors, corrupted
state — into a silently-handled "expected" condition.  The two places
it is legitimately load-bearing in this codebase (executor crash
isolation, store-corruption quarantine) carry inline suppressions that
say so; everything else must name the exceptions it can actually see.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.imports import dotted_name, tree_nodes
from repro.analysis.registry import Rule, register

_BROAD = frozenset({"Exception", "BaseException"})


def _reraises(node: ast.ExceptHandler) -> bool:
    """Whether the handler ends by re-raising the caught exception."""
    return bool(node.body) and (
        isinstance(node.body[-1], ast.Raise) and node.body[-1].exc is None
    )


def _broad_names(node: ast.expr | None) -> list[str]:
    if node is None:
        return ["<bare>"]
    exprs = node.elts if isinstance(node, ast.Tuple) else [node]
    out = []
    for expr in exprs:
        name = (dotted_name(expr) or "").rsplit(".", 1)[-1]
        if name in _BROAD:
            out.append(name)
    return out


@register
class BroadExceptRule(Rule):
    id = "RPR006"
    name = "broad-except"
    severity = Severity.WARNING
    description = (
        "library code must catch concrete exception types; broad catches "
        "need a suppression explaining why they are load-bearing"
    )

    def applies_to(self, ctx) -> bool:
        return not ctx.is_test

    def check(self, ctx) -> Iterator[Finding]:
        for node in tree_nodes(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if _reraises(node):
                # cleanup-then-reraise (e.g. atomic-write temp-file
                # removal) swallows nothing, so broad is fine there.
                continue
            for name in _broad_names(node.type):
                what = (
                    "bare except:" if name == "<bare>" else f"except {name}:"
                )
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset + 1,
                    f"{what} catches everything, including bugs; narrow to "
                    "the concrete exception types this block can actually "
                    "see",
                )
