"""The analysis driver: one serial pass, cached by content.

:class:`Analyzer` reads every target file once, hashes its bytes, and
splits the run into three layers cached in the engine's
content-addressed :class:`~repro.engine.store.ResultStore`
(``<root>/.repro-cache/analysis`` unless ``cache_dir`` names another
directory):

1. **Harvest** (per file, keyed by path + content hash): unit
   signatures, call-graph facts and the suppression map.  A warm run
   rebuilds the signature table without parsing an unchanged file.
2. **Rule results** (per file, keyed by content hash + rule ids +
   :data:`RULESET_VERSION` + signature-table digest): the file rules'
   findings and suppressed findings.
3. **Call-graph pass** (one entry, keyed by every non-test file's
   call-graph facts and suppression map + the signature digest): the
   interprocedural concurrency findings (RPR201).

A file is parsed only when one of its layers misses, and then only once:
the same tree serves its harvest and its rules.  Because the signature
digest (which covers the declared ``PHYSICAL_RANGES`` table) is part of
every rule-result key, an edit that changes a function's *signature* or
an envelope re-checks the whole tree (the interval pass seeds values
from them anywhere), while a body-only edit re-checks exactly one file.

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
from repro.analysis.findings import AnalysisResult, Finding, Severity
from repro.analysis.imports import module_name_for, rel_posix
from repro.analysis.intervals import analyze_intervals
from repro.analysis.registry import Rule, select_rules
from repro.analysis.suppressions import SuppressionIndex, parse_suppressions
from repro.analysis.unitsig import (
    EMPTY_TABLE,
    SignatureTable,
    harvest_signatures,
)
from repro.engine.jobs import content_hash
from repro.engine.store import ResultStore

#: Default cache location, relative to the analysis root.
DEFAULT_CACHE_DIR = ".repro-cache/analysis"

#: Bump when the harvest payload shape or semantics change.
#: v4: test files carry no call-graph facts (they never enter the graph).
#: v5: no import edges; call-graph facts at CALLGRAPH_VERSION 2.
#: v6: no async flag, no task/callback wrapper targets (CALLGRAPH_VERSION 3).
HARVEST_VERSION = 6

#: Bump whenever any rule's logic changes in a way that can alter its
#: findings; cached verdicts from older rule code then read as misses.
#: (Adding/removing rules needs no bump — the active rule ids are part
#: of every cache key.)
#: v3: RPR001 honours a docstring-declared dimensionless parameter.
#: v4: nine rules, each with a corpus defect; the key has no import
#: scope.
RULESET_VERSION = 4

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "venv", "build", "dist", ".eggs"}


@dataclass
class ProjectContext:
    """Whole-run state shared by every file's analysis."""

    #: Cross-module unit signatures, values and declared ranges that
    #: seed the interval pass (RPR301/303).
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

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def interval_diagnostics(self):
        """Interval-domain diagnostics for this file, computed once.

        The numeric-safety rules (RPR301/303) share one interpretation;
        the first caller pays for it, the other filters.
        """
        if self._interval_diags is None:
            self._interval_diags = analyze_intervals(
                self.tree, self.project.unit_signatures, self.module
            )
        return self._interval_diags

    _interval_diags: list | None = field(default=None, repr=False)


def is_test_path(rel_path: str) -> bool:
    """Whether a repo-relative posix path names a test/bench file.

    Test files never enter the call graph — their fixtures break
    concurrency discipline on purpose.
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

        table = SignatureTable.merge([src.harvest["signatures"] for src in sources])
        sig_hash = content_hash(table.as_payload())
        project = ProjectContext(unit_signatures=table)

        file_rules = tuple(r for r in self.rules if r.scope == "file")
        project_rules = tuple(r for r in self.rules if r.scope == "project")
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
        analyzed = cached = 0
        for src in sources:
            key = rule_result_key(src.rel, src.digest, rule_ids, sig_hash)
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
