"""Inline ``# repro: ignore[RULE, ...]`` suppression parsing.

A suppression comment silences the named rules on its own line; a
comment-only line additionally covers the first non-comment line after
its comment block, so a justification can run to several lines:

    x == 0.0  # repro: ignore[RPR004] exact-zero sentinel: set by reset()

    # repro: ignore[RPR005] a branch-predictor bias that happens to
    # equal Ea; not the activation energy.
    bias = 0.9

When the file's AST is available, a suppression attaches to the *whole
statement* whose line span contains it, so it also works on decorator
lines and anywhere inside a multi-line call expression:

    @dataclass(frozen=True)  # repro: ignore[RPR001] dimensionless knob
    class Knobs: ...

    total = combine(
        fit_budget,
        elapsed == 0.0,  # repro: ignore[RPR004] exact reset sentinel
    )

``# repro: ignore`` without a rule list is deliberately NOT supported:
blanket suppressions would hide new rules' findings.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.analysis.findings import Finding
from repro.analysis.imports import tree_nodes

_SUPPRESSION = re.compile(r"#\s*repro:\s*ignore\[([A-Za-z0-9_,\s]+)\]")
_COMMENT_ONLY = re.compile(r"^\s*#")


@dataclass(frozen=True)
class Suppression:
    """One parsed suppression comment.

    Attributes:
        line: the line the comment sits on (1-based).
        rules: rule ids it silences.
        covers_next: True for comment-only lines, which also silence
            the first non-comment line after their comment block.
    """

    line: int
    rules: frozenset[str]
    covers_next: bool


@dataclass
class SuppressionIndex:
    """All suppressions of one file, with match bookkeeping."""

    suppressions: list[Suppression] = field(default_factory=list)
    _by_line: dict[int, set[str]] = field(default_factory=dict)

    def covers(self, finding: Finding) -> bool:
        """Whether ``finding`` is silenced by an inline suppression."""
        rules = self._by_line.get(finding.line)
        return rules is not None and finding.rule in rules

    def lines_for(self, rule_id: str) -> set[int]:
        """Source lines on which ``rule_id`` is suppressed."""
        return {ln for ln, rules in self._by_line.items() if rule_id in rules}

    def as_payload(self) -> dict[str, list[str]]:
        """JSON form of the line -> rules map (for the harvest cache)."""
        return {str(line): sorted(rules) for line, rules in self._by_line.items()}

    @classmethod
    def from_payload(cls, payload: dict[str, list[str]]) -> "SuppressionIndex":
        return cls(_by_line={int(line): set(rules) for line, rules in payload.items()})


def _statement_spans(tree: ast.Module) -> list[tuple[int, int]]:
    """(start, end) line span of every statement, 1-based inclusive.

    For a compound statement the span is the *header only* — decorators
    through the line before the first body statement — so a suppression
    on a decorator or inside a multi-line ``def`` signature covers the
    whole header without swallowing the entire body.  Simple statements
    span all their physical lines (multi-line calls included).
    """
    spans: list[tuple[int, int]] = []
    for node in tree_nodes(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = node.lineno
        decorators = getattr(node, "decorator_list", None)
        if decorators:
            start = min(start, *(d.lineno for d in decorators))
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            end = max(start, body[0].lineno - 1)
        else:
            end = node.end_lineno or node.lineno
        spans.append((start, end))
    return spans


def _smallest_span(
    spans: list[tuple[int, int]], line: int
) -> tuple[int, int] | None:
    best: tuple[int, int] | None = None
    for start, end in spans:
        if start <= line <= end:
            if best is None or end - start < best[1] - best[0]:
                best = (start, end)
    return best


def parse_suppressions(
    source_lines: list[str], tree: ast.Module | None = None
) -> SuppressionIndex:
    """Scan physical source lines for suppression comments.

    This is a line-level scan, not a tokenizer: a ``# repro: ignore``
    inside a string literal would count.  That false positive is
    harmless (it can only ever silence, and only within its own
    statement) and keeps parsing robust on files the AST cannot digest.

    Args:
        source_lines: the file's physical lines.
        tree: optional parsed module; when given, each suppression
            covers the full line span of the smallest statement it sits
            in (decorator lines, multi-line calls), not just its own
            physical line.
    """
    index = SuppressionIndex()
    spans = _statement_spans(tree) if tree is not None else []

    def cover(anchor: int, rules: frozenset[str]) -> None:
        span = _smallest_span(spans, anchor)
        first, last = span if span is not None else (anchor, anchor)
        for line in range(first, last + 1):
            index._by_line.setdefault(line, set()).update(rules)

    for i, text in enumerate(source_lines, start=1):
        match = _SUPPRESSION.search(text)
        if match is None:
            continue
        rules = frozenset(
            token.strip() for token in match.group(1).split(",") if token.strip()
        )
        if not rules:
            continue
        covers_next = bool(_COMMENT_ONLY.match(text))
        index.suppressions.append(
            Suppression(line=i, rules=rules, covers_next=covers_next)
        )
        cover(i, rules)
        if covers_next:
            # Skip the rest of the comment block: the suppression
            # attaches to the code line it is documenting.
            target = i + 1
            while target <= len(source_lines) and _COMMENT_ONLY.match(
                source_lines[target - 1]
            ):
                target += 1
            cover(target, rules)
    return index
