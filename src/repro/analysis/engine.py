"""The analysis driver: one serial pass, cached by content.

:class:`Analyzer` reads every target file once, hashes its bytes, and
splits the run into four layers cached in the engine's content-addressed
:class:`~repro.engine.store.ResultStore` (``<root>/.repro-cache/analysis``
unless ``cache_dir`` names another directory):

1. **Harvest** (per file, keyed by path + content hash): import edges,
   unit signatures, call-graph facts and the suppression map.  A warm
   run rebuilds the import graph and the signature table without
   parsing an unchanged file.
2. **Rule results** (per file, keyed by content hash + rule ids +
   :data:`RULESET_VERSION` + determinism-scope flags + signature-table
   digest): the file rules' findings and suppressed findings.
3. **Call-graph pass** (one entry, keyed by every non-test file's
   call-graph facts and suppression map + the signature digest): the
   interprocedural concurrency findings (RPR2xx).
4. **Range pass**: per-file interval facts (keyed by content hash) and
   one project entry keyed by those facts + the suppression maps + the
   signature digest, which covers the declared ``PHYSICAL_RANGES``
   table.  This backs RPR302.

A file is parsed only when one of its layers misses, and then only once:
the same tree serves its harvest, its rules and its interval facts.
Because the signature digest is part of every rule-result key, an edit
that changes a function's *signature* re-checks the whole tree (the
cross-module rules may change anywhere), while a body-only edit
re-checks exactly one file.

Files that cannot be read or parsed produce an ``RPR000`` finding rather
than aborting the run.
"""

from __future__ import annotations

import ast
import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.callgraph import CALLGRAPH_VERSION, harvest_callgraph
from repro.analysis.concurrency import ProjectSnapshot, run_project_rules
from repro.analysis.dataflow import analyze_units
from repro.analysis.findings import AnalysisResult, Finding, Severity
from repro.analysis.imports import (
    ImportGraph,
    imported_modules,
    module_name_for,
    rel_posix,
)
from repro.analysis.intervals import (
    INTERVALS_VERSION,
    analyze_intervals,
    harvest_interval_facts,
    run_range_pass,
)
from repro.analysis.registry import Rule, select_rules
from repro.analysis.suppressions import SuppressionIndex, parse_suppressions
from repro.analysis.unitsig import (
    EMPTY_TABLE,
    SignatureTable,
    harvest_signatures,
)
from repro.engine.jobs import content_hash
from repro.engine.store import ResultStore

#: Modules whose import closure the determinism rule polices: everything
#: that can influence a job spec's content hash or its worker-side
#: recomputation.
DETERMINISM_ROOTS = ("repro.engine.jobs",)

#: Default cache location, relative to the analysis root.
DEFAULT_CACHE_DIR = ".repro-cache/analysis"

#: Bump when the harvest payload shape or semantics change.
#: v4: test files carry no call-graph facts (they never enter the graph).
HARVEST_VERSION = 4

#: Bump whenever any rule's logic changes in a way that can alter its
#: findings; cached verdicts from older rule code then read as misses.
#: (Adding/removing rules needs no bump — the active rule ids are part
#: of every cache key.)
#: v3: RPR001 honours a docstring-declared dimensionless parameter;
#: RPR302 accepts a zero default for an accumulator that the function
#: itself validates as non-negative.
RULESET_VERSION = 3

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "venv", "build", "dist", ".eggs"}


@dataclass
class ProjectContext:
    """Whole-run state shared by every file's analysis."""

    determinism_scope: set[str] = field(default_factory=set)
    #: True when none of DETERMINISM_ROOTS exist among the analyzed
    #: files; reachability is then unknowable and reachability-scoped
    #: rules fall back to checking everything (fixture/sandbox mode).
    determinism_scope_is_global: bool = False
    #: Cross-module unit signatures for the dataflow rules (RPR101-103).
    unit_signatures: SignatureTable = field(default=EMPTY_TABLE)


@dataclass
class FileContext:
    """One parsed file plus everything a rule needs to inspect it."""

    path: Path
    rel_path: str
    source: str
    lines: list[str]
    tree: ast.Module
    module: str | None
    project: ProjectContext
    suppressions: SuppressionIndex

    @property
    def is_test(self) -> bool:
        """Heuristic: test files get looser treatment from src-only rules."""
        return is_test_path(self.rel_path)

    @property
    def in_determinism_scope(self) -> bool:
        if self.project.determinism_scope_is_global:
            return not self.is_test
        return (
            self.module is not None
            and self.module in self.project.determinism_scope
        )

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def unit_diagnostics(self):
        """Unit-dataflow diagnostics for this file, computed once.

        All three flow rules (RPR101-103) consume the same pass; the
        first caller pays for the interpretation, the rest filter.
        """
        if self._unit_diags is None:
            self._unit_diags = analyze_units(
                self.tree, self.project.unit_signatures, self.module
            )
        return self._unit_diags

    def interval_diagnostics(self):
        """Interval-domain diagnostics for this file, computed once.

        The numeric-safety and loop rules (RPR301/303/310) share one
        interpretation the same way the unit rules share theirs.
        """
        if self._interval_diags is None:
            self._interval_diags = analyze_intervals(
                self.tree, self.project.unit_signatures, self.module
            )
        return self._interval_diags

    _unit_diags: list | None = field(default=None, repr=False)
    _interval_diags: list | None = field(default=None, repr=False)


def is_test_path(rel_path: str) -> bool:
    """Whether a repo-relative posix path names a test/bench file.

    Test files never enter the call graph or the range pass — their
    fixtures break concurrency and range discipline on purpose.
    """
    parts = rel_path.split("/")
    return (
        "tests" in parts
        or "test" in parts
        or parts[-1].startswith(("test_", "bench_"))
        or parts[-1].endswith("_test.py")
    )


def collect_files(paths: list[Path]) -> list[Path]:
    """Expand files/directories into a sorted, deduplicated ``.py`` list."""
    out: set[Path] = set()
    for path in paths:
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in candidate.parts):
                    out.add(candidate)
        elif path.suffix == ".py":
            out.add(path)
    return sorted(out)


def rule_result_key(
    rel_path: str,
    digest: str,
    rule_ids: list[str],
    in_scope: bool,
    scope_global: bool,
    sig_hash: str,
) -> str:
    """Store key of one file's rule results: every input that can change them."""
    return content_hash(
        {
            "kind": "analysis_rules",
            "v": RULESET_VERSION,
            "path": rel_path,
            "content": digest,
            "rules": rule_ids,
            "in_scope": in_scope,
            "scope_global": scope_global,
            "signatures": sig_hash,
        }
    )


def _finding_payload(finding: Finding, with_path: bool = False) -> dict:
    payload = {
        "rule": finding.rule,
        "line": finding.line,
        "col": finding.col,
        "message": finding.message,
        "severity": finding.severity.value,
        "snippet": finding.snippet,
        "context": finding.context,
    }
    if with_path:
        payload["path"] = finding.path
    return payload


def _finding_from_payload(rel_path: str, payload: dict) -> Finding:
    return Finding(
        rule=payload["rule"],
        path=rel_path,
        line=payload["line"],
        col=payload["col"],
        message=payload["message"],
        severity=Severity(payload["severity"]),
        snippet=payload.get("snippet", ""),
        context=payload.get("context", ""),
    )


def _unreadable(rel_path: str, line: int, message: str) -> Finding:
    return Finding(
        rule="RPR000",
        path=rel_path,
        line=line,
        col=1,
        message=message,
        severity=Severity.ERROR,
    )


class _SourceFile:
    """One target file as read this run; its tree is parsed at most once."""

    def __init__(self, path: Path, rel: str, raw: bytes) -> None:
        self.path = path
        self.rel = rel
        self.digest = hashlib.sha256(raw).hexdigest()
        self.module = module_name_for(rel)
        self.is_test = is_test_path(rel)
        # Decoded from the same bytes the digest covers, so a concurrent
        # edit can never pair one revision's hash with another's text.
        try:
            self.source: str | None = raw.decode("utf-8")
            self.decode_error = ""
        except UnicodeDecodeError as exc:
            self.source = None
            self.decode_error = str(exc)
        self.harvest: dict = {}
        self.parsed = False
        self._tree: ast.Module | None = None
        self._lines: list[str] | None = None

    @property
    def lines(self) -> list[str]:
        if self._lines is None:
            self._lines = self.source.splitlines()
        return self._lines

    @property
    def tree(self) -> ast.Module:
        if self._tree is None:
            self._tree = ast.parse(self.source, filename=str(self.path))
            self.parsed = True
        return self._tree

    @property
    def suppressions(self) -> SuppressionIndex:
        return SuppressionIndex.from_payload(self.harvest["suppress"])

    def compute_harvest(self) -> dict:
        """This file's harvest payload (parses the tree)."""
        if self.source is None:
            return {"ok": False, "error": self.decode_error, "line": 1}
        try:
            tree = self.tree
        except (SyntaxError, ValueError) as exc:
            return {
                "ok": False,
                "error": str(exc),
                "line": getattr(exc, "lineno", None) or 1,
            }
        module = self.module
        payload = {
            "ok": True,
            "imports": sorted(imported_modules(tree, module)) if module else [],
            "signatures": harvest_signatures(tree, module),
            "suppress": parse_suppressions(self.lines, tree).as_payload(),
        }
        if not self.is_test:
            payload["callgraph"] = harvest_callgraph(tree, module)
        return payload


class Analyzer:
    """Runs a rule set over a file tree.

    Args:
        root: directory findings' paths are reported relative to
            (normally the repo root).
        select: optional rule-id allowlist.
        ignore: optional rule-id denylist.
        cache_dir: result-store directory (created on demand); defaults
            to ``root / DEFAULT_CACHE_DIR``.
        report_only: optional set of repo-relative posix paths; when
            given, the whole tree is still analyzed (project passes need
            global facts) but only findings anchored in these files are
            reported.  This is the ``--changed`` mode.
    """

    def __init__(
        self,
        root: Path | str = ".",
        select: list[str] | None = None,
        ignore: list[str] | None = None,
        cache_dir: Path | str | None = None,
        report_only: set[str] | None = None,
    ) -> None:
        self.root = Path(root)
        self.rules = select_rules(select, ignore)
        self.cache_dir = (
            Path(cache_dir) if cache_dir is not None
            else self.root / DEFAULT_CACHE_DIR
        )
        self.report_only = report_only
        self.store = ResultStore(self.cache_dir)

    def analyze_paths(self, paths: list[Path | str]) -> AnalysisResult:
        """Analyze files and directories; returns every finding."""
        files = collect_files([Path(p) for p in paths])
        result = AnalysisResult(files_scanned=len(files))

        sources: list[_SourceFile] = []
        harvest_hits = harvest_misses = 0
        for path in files:
            rel = rel_posix(path, self.root)
            try:
                src = _SourceFile(path, rel, path.read_bytes())
            except OSError as exc:
                result.parse_errors += 1
                result.findings.append(
                    _unreadable(rel, 1, f"file could not be read: {exc}")
                )
                continue
            key = content_hash(
                {
                    "kind": "analysis_harvest",
                    "v": HARVEST_VERSION,
                    "path": rel,
                    "content": src.digest,
                }
            )
            cached = self.store.get(key)
            if cached is None:
                harvest_misses += 1
                src.harvest = src.compute_harvest()
                self.store.put(key, "analysis_harvest", src.harvest)
            else:
                harvest_hits += 1
                src.harvest = cached
            if not src.harvest["ok"]:
                result.parse_errors += 1
                result.findings.append(
                    _unreadable(
                        rel,
                        src.harvest.get("line") or 1,
                        f"file could not be parsed: {src.harvest['error']}",
                    )
                )
                continue
            sources.append(src)

        graph = ImportGraph(
            edges={
                src.module: set(src.harvest["imports"])
                for src in sources
                if src.module
            }
        )
        scope = graph.reachable_from(DETERMINISM_ROOTS)
        table = SignatureTable.merge([src.harvest["signatures"] for src in sources])
        sig_hash = content_hash(table.as_payload())
        project = ProjectContext(
            determinism_scope=scope,
            determinism_scope_is_global=not scope,
            unit_signatures=table,
        )

        file_rules = tuple(r for r in self.rules if r.scope == "file")
        project_rules = tuple(r for r in self.rules if r.scope == "project")
        interval_rules = tuple(r for r in self.rules if r.scope == "intervals")
        analyzed, cached_files = self._file_pass(
            file_rules, sources, project, sig_hash, result
        )

        checked = [src for src in sources if not src.is_test]
        callgraph_status = "skipped"
        callgraph_pass_s = 0.0
        if project_rules:
            start = time.perf_counter()
            callgraph_status = self._callgraph_pass(
                project_rules, checked, sig_hash, result
            )
            callgraph_pass_s = time.perf_counter() - start

        range_status = "skipped"
        range_pass_s = 0.0
        intervals_hits = intervals_misses = 0
        if interval_rules:
            start = time.perf_counter()
            range_status, intervals_hits, intervals_misses = self._range_pass(
                interval_rules, checked, table, sig_hash, result
            )
            range_pass_s = time.perf_counter() - start

        result.findings.sort(key=Finding.sort_key)
        result.suppressed.sort(key=Finding.sort_key)
        result.stats = {
            "files": len(files),
            "parsed": sum(src.parsed for src in sources),
            "analyzed": analyzed,
            "cached": cached_files,
            "harvest_hits": harvest_hits,
            "harvest_misses": harvest_misses,
            "callgraph_rules": len(project_rules),
            "callgraph_pass": callgraph_status,
            "callgraph_pass_s": round(callgraph_pass_s, 4),
            "range_rules": len(interval_rules),
            "range_pass": range_status,
            "range_pass_s": round(range_pass_s, 4),
            "intervals_hits": intervals_hits,
            "intervals_misses": intervals_misses,
            "store": self.store.stats.as_dict(),
        }
        return self._filter_report(result)

    # ---- per-file rules ------------------------------------------------

    def _file_pass(
        self,
        file_rules: tuple[Rule, ...],
        sources: list[_SourceFile],
        project: ProjectContext,
        sig_hash: str,
        result: AnalysisResult,
    ) -> tuple[int, int]:
        """Run (or replay) every file's rules; returns (analyzed, cached)."""
        rule_ids = [rule.id for rule in file_rules]
        scope = project.determinism_scope
        analyzed = cached = 0
        for src in sources:
            key = rule_result_key(
                src.rel,
                src.digest,
                rule_ids,
                bool(src.module and src.module in scope),
                project.determinism_scope_is_global,
                sig_hash,
            )
            payload = self.store.get(key)
            if payload is None:
                analyzed += 1
                payload = self._check_file(src, project, file_rules)
                self.store.put(key, "analysis_rules", payload)
            else:
                cached += 1
            for entry in payload["findings"]:
                result.findings.append(_finding_from_payload(src.rel, entry))
            for entry in payload["suppressed"]:
                result.suppressed.append(_finding_from_payload(src.rel, entry))
        return analyzed, cached

    @staticmethod
    def _check_file(
        src: _SourceFile, project: ProjectContext, rules: tuple[Rule, ...]
    ) -> dict:
        """Run the file rules over one file; JSON-ready finding records."""
        findings: list[dict] = []
        suppressed: list[dict] = []
        if not rules:  # a project-rules-only run: nothing to parse for
            return {"findings": findings, "suppressed": suppressed}
        ctx = FileContext(
            path=src.path,
            rel_path=src.rel,
            source=src.source,
            lines=src.lines,
            tree=src.tree,
            module=src.module,
            project=project,
            suppressions=src.suppressions,
        )
        for rule in rules:
            if not rule.applies_to(ctx):
                continue
            for finding in rule.check(ctx):
                bucket = suppressed if ctx.suppressions.covers(finding) else findings
                bucket.append(_finding_payload(finding))
        return {"findings": findings, "suppressed": suppressed}

    # ---- project passes ------------------------------------------------

    def _replay_or_compute(self, key: str, kind: str, compute, result) -> str:
        """Replay a cached project pass, or compute and store it.

        ``compute`` returns ``(findings, suppressed)``; returns the
        layer's status, ``"cached"`` or ``"computed"``.
        """
        cached = self.store.get(key)
        if cached is not None:
            for entry in cached["findings"]:
                result.findings.append(_finding_from_payload(entry["path"], entry))
            for entry in cached["suppressed"]:
                result.suppressed.append(_finding_from_payload(entry["path"], entry))
            return "cached"
        findings, suppressed = compute()
        self.store.put(
            key,
            kind,
            {
                "findings": [_finding_payload(f, with_path=True) for f in findings],
                "suppressed": [_finding_payload(f, with_path=True) for f in suppressed],
            },
        )
        result.findings.extend(findings)
        result.suppressed.extend(suppressed)
        return "computed"

    def _callgraph_pass(
        self,
        project_rules: tuple[Rule, ...],
        checked: list[_SourceFile],
        sig_hash: str,
        result: AnalysisResult,
    ) -> str:
        """Run (or replay) the interprocedural pass; returns its status.

        A warm unchanged tree replays the cached findings without
        building the graph; a body edit changes one file's facts and
        recomputes the pass from the (all cached) harvests; a signature
        edit flips ``sig_hash`` and so invalidates this layer together
        with every per-file result.
        """
        key = content_hash(
            {
                "kind": "analysis_callgraph_pass",
                "hv": HARVEST_VERSION,
                "cgv": CALLGRAPH_VERSION,
                "rv": RULESET_VERSION,
                "rules": [rule.id for rule in project_rules],
                "cg": content_hash(
                    {
                        src.rel: {
                            "callgraph": src.harvest["callgraph"],
                            "suppress": src.harvest["suppress"],
                        }
                        for src in checked
                    }
                ),
                "sig": sig_hash,
            }
        )

        def compute():
            snapshot = ProjectSnapshot.build(
                harvests={
                    src.rel: (src.module, src.harvest["callgraph"])
                    for src in checked
                },
                lines={src.rel: src.lines for src in checked},
                suppress={src.rel: src.suppressions for src in checked},
            )
            return run_project_rules(project_rules, snapshot)

        return self._replay_or_compute(
            key, "analysis_callgraph_pass", compute, result
        )

    def _range_pass(
        self,
        interval_rules: tuple[Rule, ...],
        checked: list[_SourceFile],
        table: SignatureTable,
        sig_hash: str,
        result: AnalysisResult,
    ) -> tuple[str, int, int]:
        """Run (or replay) the project range check.

        Returns ``(status, interval-facts hits, interval-facts misses)``.
        The pass is keyed by every non-test file's interval facts *and*
        suppression map, plus the signature-table digest — which covers
        the declared physical-range table, so editing an envelope in
        ``constants.PHYSICAL_RANGES`` recomputes it.
        """
        hits = misses = 0
        facts_by_path: dict[str, dict] = {}
        for src in checked:
            key = content_hash(
                {
                    "kind": "analysis_intervals",
                    "v": INTERVALS_VERSION,
                    "path": src.rel,
                    "content": src.digest,
                }
            )
            facts = self.store.get(key)
            if facts is None:
                misses += 1
                facts = harvest_interval_facts(src.tree, src.module, src.lines)
                self.store.put(key, "analysis_intervals", facts)
            else:
                hits += 1
            facts_by_path[src.rel] = facts
        key = content_hash(
            {
                "kind": "analysis_range_pass",
                "hv": HARVEST_VERSION,
                "iv": INTERVALS_VERSION,
                "rv": RULESET_VERSION,
                "rules": [rule.id for rule in interval_rules],
                "facts": content_hash(
                    {
                        src.rel: {
                            "facts": facts_by_path[src.rel],
                            "suppress": src.harvest["suppress"],
                        }
                        for src in checked
                    }
                ),
                "sig": sig_hash,
            }
        )

        def compute():
            rule = next((r for r in interval_rules if r.id == "RPR302"), None)
            findings: list[Finding] = []
            suppressed: list[Finding] = []
            if rule is None:
                return findings, suppressed
            suppressions = {src.rel: src.suppressions for src in checked}
            for p in run_range_pass(facts_by_path, table):
                finding = Finding(
                    rule=rule.id,
                    path=p["path"],
                    line=p["line"],
                    col=p["col"],
                    message=p["message"],
                    severity=rule.severity,
                    snippet=p.get("snippet", ""),
                    context=p.get("context", ""),
                )
                covered = suppressions[finding.path].covers(finding)
                (suppressed if covered else findings).append(finding)
            return findings, suppressed

        status = self._replay_or_compute(
            key, "analysis_range_pass", compute, result
        )
        return status, hits, misses

    def _filter_report(self, result: AnalysisResult) -> AnalysisResult:
        """Drop findings outside ``report_only``, when set (--changed)."""
        if self.report_only is None:
            return result
        result.findings = [
            f for f in result.findings if f.path in self.report_only
        ]
        result.suppressed = [
            f for f in result.suppressed if f.path in self.report_only
        ]
        return result
