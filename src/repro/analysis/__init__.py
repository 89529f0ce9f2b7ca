"""Physics-aware static analysis for the repro codebase.

An AST-based rule suite that enforces the invariants the type system
cannot see: unit-suffix naming (RPR001), no raw float equality
(RPR004), single-spelling paper constants (RPR005), no broad excepts
(RPR006), no unlocked shared writes on thread-reachable paths
(RPR201), and the numeric-safety and hot-path family (RPR301, RPR303,
RPR311, RPR312).  Every rule has a real defect of this repository in
the regression corpus (``tests/analysis_corpus``).  Run it as
``python -m repro analyze``; every unsuppressed finding fails the run.

Library entry points::

    from repro.analysis import Analyzer

    result = Analyzer(root=".").analyze_paths(["src", "tests"])
    for finding in result.findings:
        print(finding.render())
"""

from repro.analysis.emitters import to_json, to_sarif, to_text
from repro.analysis.engine import Analyzer, FileContext
from repro.analysis.findings import AnalysisResult, Finding, Severity
from repro.analysis.registry import (
    AnalysisError,
    Rule,
    all_rules,
    get_rule,
    register,
    select_rules,
)
from repro.analysis.suppressions import parse_suppressions

__all__ = [
    "AnalysisError",
    "AnalysisResult",
    "Analyzer",
    "FileContext",
    "Finding",
    "Rule",
    "Severity",
    "all_rules",
    "get_rule",
    "parse_suppressions",
    "register",
    "select_rules",
    "to_json",
    "to_sarif",
    "to_text",
]
