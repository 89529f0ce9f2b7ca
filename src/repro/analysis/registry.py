"""Rule base class and registry.

Rules self-register at import time via the :func:`register` decorator;
:func:`all_rules` imports the bundled rule modules on first use so the
registry is populated without the caller having to know the module
names.
"""

from __future__ import annotations

import abc
import fnmatch
import re
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

from repro.analysis.findings import Finding, Severity
from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.concurrency import ProjectSnapshot
    from repro.analysis.engine import FileContext

_RULE_ID = re.compile(r"^RPR\d{3}$")


class AnalysisError(ReproError):
    """Raised for analyzer misuse (unknown rule ids, bad configuration)."""


class Rule(abc.ABC):
    """One static-analysis rule.

    Class attributes:
        id: ``RPRnnn`` identifier used in findings, suppressions, and
            SARIF rule metadata.
        name: short kebab-case name (``unit-suffix``).
        severity: default severity for this rule's findings.
        description: one-line rationale shown in ``--list-rules`` and
            emitted as SARIF rule metadata.
        rationale: longer prose shown by ``--explain``: why the rule
            exists and what bug class it prevents.
        example: a short violating snippet (with a comment pointing at
            the problem) shown by ``--explain``.
    """

    id: str = ""
    name: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""
    rationale: str = ""
    example: str = ""
    #: ``"file"`` rules see one :class:`FileContext` at a time;
    #: ``"project"`` rules (see :class:`ProjectRule`) see the merged
    #: call-graph snapshot and run once per analysis.
    scope: str = "file"

    @abc.abstractmethod
    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        """Yield findings for one parsed file."""

    def applies_to(self, ctx: "FileContext") -> bool:
        """Whether this rule runs on ``ctx`` at all (path scoping)."""
        return True

    def finding(
        self,
        ctx: "FileContext",
        line: int,
        col: int,
        message: str,
        severity: Severity | None = None,
        context: str = "",
    ) -> Finding:
        """Build a finding anchored at ``line``/``col`` of ``ctx``."""
        return Finding(
            rule=self.id,
            path=ctx.rel_path,
            line=line,
            col=col,
            message=message,
            severity=severity or self.severity,
            snippet=ctx.line_text(line).strip(),
            context=context,
        )

    def explain(self) -> str:
        """Human-readable rule documentation for ``--explain``."""
        parts = [f"{self.id} ({self.name}) [{self.severity.value}]"]
        parts.append(f"  {self.description}")
        if self.rationale:
            parts.append("")
            for line in self.rationale.strip().splitlines():
                parts.append(f"  {line}".rstrip())
        if self.example:
            parts.append("")
            parts.append("  example:")
            for line in self.example.strip("\n").splitlines():
                parts.append(f"    {line}".rstrip())
        parts.append("")
        parts.append(
            f"  suppress with: # repro: ignore[{self.id}] <justification>"
        )
        parts.append(
            "  (on the offending line, or on its own line directly above)"
        )
        return "\n".join(parts)


class ProjectRule(Rule):
    """A rule that reasons over the whole project at once.

    Project rules run once per analysis against the merged call-graph
    snapshot (interprocedural facts: coloring, lock domains, escape
    classes) instead of once per file.  They still emit ordinary
    :class:`Finding` objects anchored in specific files, so emitters
    and suppressions treat them identically.
    """

    scope = "project"

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        """Project rules contribute nothing to the per-file pass."""
        return iter(())

    @abc.abstractmethod
    def check_project(self, snapshot: "ProjectSnapshot") -> Iterator[Finding]:
        """Yield findings for one project snapshot."""

    def finding_at(
        self,
        snapshot: "ProjectSnapshot",
        rel_path: str,
        line: int,
        col: int,
        message: str,
        severity: Severity | None = None,
        context: str = "",
    ) -> Finding:
        """Build a finding anchored at ``rel_path:line`` of the snapshot."""
        return Finding(
            rule=self.id,
            path=rel_path,
            line=line,
            col=col,
            message=message,
            severity=severity or self.severity,
            snippet=snapshot.snippet(rel_path, line),
            context=context,
        )


_REGISTRY: dict[str, Rule] = {}
_BUNDLED_LOADED = False


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and register a rule."""
    rule = cls()
    if not _RULE_ID.match(rule.id):
        raise AnalysisError(f"rule id {rule.id!r} does not match RPRnnn")
    if rule.id in _REGISTRY:
        raise AnalysisError(f"duplicate rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return cls


def _load_bundled() -> None:
    global _BUNDLED_LOADED
    if _BUNDLED_LOADED:
        return
    _BUNDLED_LOADED = True
    import repro.analysis.rules  # noqa: F401  (registers on import)


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, ordered by id."""
    _load_bundled()
    return tuple(_REGISTRY[rid] for rid in sorted(_REGISTRY))


def get_rule(rule_id: str) -> Rule:
    """Look up one rule by id.

    Raises:
        AnalysisError: if the id is not registered.
    """
    _load_bundled()
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise AnalysisError(f"unknown rule id {rule_id!r}") from None


def select_rules(
    select: Iterable[str] | None = None, ignore: Iterable[str] | None = None
) -> tuple[Rule, ...]:
    """The active rule set after ``--select`` / ``--ignore`` filtering.

    Raises:
        AnalysisError: if any named rule id is unknown.
    """
    rules = all_rules()
    if select is not None:
        wanted = {get_rule(rid).id for rid in select}
        rules = tuple(r for r in rules if r.id in wanted)
    if ignore is not None:
        unwanted = {get_rule(rid).id for rid in ignore}
        rules = tuple(r for r in rules if r.id not in unwanted)
    return rules


def expand_rule_patterns(patterns: Iterable[str]) -> list[str]:
    """Expand ``--rules`` globs (``RPR2xx``, ``RPR20?``, ``RPR*``) to ids.

    ``x``/``X`` are wildcard digits (the conventional family spelling);
    since rule ids contain no letter beyond the ``RPR`` prefix, both are
    translated to ``?`` before fnmatch.  Exact ids pass through.

    Raises:
        AnalysisError: if a pattern matches no registered rule.
    """
    ids = [rule.id for rule in all_rules()]
    out: set[str] = set()
    for pattern in patterns:
        translated = pattern.replace("x", "?").replace("X", "?")
        matched = [rid for rid in ids if fnmatch.fnmatchcase(rid, translated)]
        if not matched:
            raise AnalysisError(
                f"rule pattern {pattern!r} matches no registered rule"
            )
        out.update(matched)
    return sorted(out)
