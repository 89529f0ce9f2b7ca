"""Finding emitters: human text, machine JSON, and SARIF 2.1.0.

SARIF output targets the subset GitHub code scanning ingests: tool
driver metadata with per-rule descriptions, one ``result`` per finding
with a physical location, and a stable ``partialFingerprints`` entry so
re-runs update rather than duplicate alerts.
"""

from __future__ import annotations

from repro.analysis.findings import AnalysisResult, Finding
from repro.analysis.registry import Rule

SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
TOOL_NAME = "repro-analyze"
TOOL_URI = "https://github.com/anthropics/repro"  # placeholder project URI


def _finding_dict(finding: Finding) -> dict:
    return {
        "rule": finding.rule,
        "path": finding.path,
        "line": finding.line,
        "col": finding.col,
        "severity": finding.severity.value,
        "message": finding.message,
        "fingerprint": finding.fingerprint,
    }


def to_json(result: AnalysisResult) -> dict:
    """JSON-ready dict of one analysis run."""
    return {
        "version": 1,
        "tool": TOOL_NAME,
        "summary": {
            "files_scanned": result.files_scanned,
            "findings": len(result.findings),
            "suppressed": len(result.suppressed),
            "parse_errors": result.parse_errors,
            "by_rule": result.counts_by_rule(),
            "clean": result.clean,
        },
        "findings": [_finding_dict(f) for f in result.findings],
    }


def to_sarif(result: AnalysisResult, rules: tuple[Rule, ...]) -> dict:
    """SARIF 2.1.0 log of one analysis run (unsuppressed findings only)."""
    rule_meta = [
        {
            "id": rule.id,
            "name": rule.name,
            "shortDescription": {"text": rule.description},
            "defaultConfiguration": {"level": rule.severity.sarif_level},
        }
        for rule in rules
    ]
    rule_index = {rule.id: i for i, rule in enumerate(rules)}
    results = []
    for finding in result.findings:
        entry = {
            "ruleId": finding.rule,
            "level": finding.severity.sarif_level,
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path,
                            "uriBaseId": "%SRCROOT%",
                        },
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col,
                        },
                    }
                }
            ],
            "partialFingerprints": {"reproAnalyze/v1": finding.fingerprint},
        }
        if finding.rule in rule_index:
            entry["ruleIndex"] = rule_index[finding.rule]
        results.append(entry)
    return {
        "$schema": SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "informationUri": TOOL_URI,
                        "rules": rule_meta,
                    }
                },
                "results": results,
                "columnKind": "unicodeCodePoints",
            }
        ],
    }


def to_text(result: AnalysisResult, verbose: bool = False) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [f.render() for f in result.findings]
    if verbose and result.suppressed:
        lines.append("")
        lines.append("suppressed (justified inline):")
        lines.extend(f"  {f.render()}" for f in result.suppressed)
    summary = (
        f"{result.files_scanned} files scanned: "
        f"{len(result.findings)} finding(s), "
        f"{len(result.suppressed)} suppressed"
    )
    if result.counts_by_rule():
        per_rule = ", ".join(
            f"{rule}={n}" for rule, n in result.counts_by_rule().items()
        )
        summary += f" [{per_rule}]"
    lines.append("")
    lines.append(summary)
    return "\n".join(lines).lstrip("\n")
