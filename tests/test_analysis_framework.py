"""Framework tests: suppressions, fingerprints, emitters."""

import json

from repro.analysis import (
    AnalysisResult,
    Finding,
    Severity,
    all_rules,
    parse_suppressions,
    to_json,
    to_sarif,
    to_text,
)


def finding(rule="RPR004", path="src/mod.py", line=3, snippet="x == 1.5"):
    return Finding(
        rule=rule,
        path=path,
        line=line,
        col=1,
        message="raw float comparison",
        severity=Severity.ERROR,
        snippet=snippet,
    )


class TestSuppressions:
    def test_same_line_suppression_covers_its_line(self):
        index = parse_suppressions(
            ["x = 1", "y == 0.0  # repro: ignore[RPR004] exact sentinel"]
        )
        assert index.covers(finding(line=2))
        assert not index.covers(finding(line=1))

    def test_wrong_rule_id_does_not_cover(self):
        index = parse_suppressions(["y == 0.0  # repro: ignore[RPR001]"])
        assert not index.covers(finding(rule="RPR004", line=1))

    def test_comment_block_covers_first_code_line_after_it(self):
        index = parse_suppressions([
            "# repro: ignore[RPR006] registered at import time and",
            "# picklable by name in the worker process.",
            "pool.submit(worker, job)",
            "pool.submit(other, job)",
        ])
        assert index.covers(finding(rule="RPR006", line=3))
        assert not index.covers(finding(rule="RPR006", line=4))

    def test_multiple_rules_in_one_comment(self):
        index = parse_suppressions(["x  # repro: ignore[RPR001, RPR004]"])
        assert index.covers(finding(rule="RPR001", line=1))
        assert index.covers(finding(rule="RPR004", line=1))

    def test_blanket_ignore_without_rule_list_is_not_parsed(self):
        index = parse_suppressions(["y == 0.0  # repro: ignore"])
        assert index.suppressions == []
        assert not index.covers(finding(line=1))


class TestStatementSpans:
    """With the AST, a suppression covers its whole statement's span."""

    @staticmethod
    def parse(source):
        import ast
        import textwrap

        text = textwrap.dedent(source).strip("\n")
        return parse_suppressions(text.splitlines(), ast.parse(text))

    def test_decorator_line_covers_the_def_header(self):
        index = self.parse("""
            @dataclass(frozen=True)  # repro: ignore[RPR006] dynamic job
            class OddJob:
                field: int = 1
        """)
        assert index.covers(finding(rule="RPR006", line=1))
        assert index.covers(finding(rule="RPR006", line=2))
        # Header only: the class body is not swallowed.
        assert not index.covers(finding(rule="RPR006", line=3))

    def test_multiline_call_covers_every_physical_line(self):
        index = self.parse("""
            total = combine(
                fit_budget,
                mttf_hours,  # repro: ignore[RPR301] unit mix is the point
            )
            after = 1
        """)
        for line in (1, 2, 3, 4):
            assert index.covers(finding(rule="RPR301", line=line))
        assert not index.covers(finding(rule="RPR301", line=5))

    def test_smallest_enclosing_statement_wins(self):
        # Inside a function body, a suppression attaches to its own
        # statement, not the whole enclosing def.
        index = self.parse("""
            def f():
                a == 0.0  # repro: ignore[RPR004] sentinel
                b == 1.0
        """)
        assert index.covers(finding(line=2))
        assert not index.covers(finding(line=3))

    def test_comment_block_above_decorator_covers_the_header(self):
        index = self.parse("""
            # repro: ignore[RPR006] constructed dynamically on purpose
            @dataclass(frozen=True)
            class OddJob:
                field: int = 1
        """)
        assert index.covers(finding(rule="RPR006", line=2))
        assert index.covers(finding(rule="RPR006", line=3))
        assert not index.covers(finding(rule="RPR006", line=4))

    def test_without_a_tree_only_the_comment_line_is_covered(self):
        lines = [
            "total = combine(",
            "    fit_budget,",
            "    mttf_hours,  # repro: ignore[RPR301] unit mix",
            ")",
        ]
        index = parse_suppressions(lines)
        assert index.covers(finding(rule="RPR301", line=3))
        assert not index.covers(finding(rule="RPR301", line=1))


class TestFingerprints:
    def test_stable_under_line_moves_and_whitespace(self):
        a = finding(line=3, snippet="x  ==  1.5")
        b = finding(line=90, snippet="x == 1.5")
        assert a.fingerprint == b.fingerprint

    def test_distinguishes_rule_path_and_snippet(self):
        base = finding()
        assert finding(rule="RPR001").fingerprint != base.fingerprint
        assert finding(path="src/other.py").fingerprint != base.fingerprint
        assert finding(snippet="y == 2.5").fingerprint != base.fingerprint


class TestEmitters:
    def result(self):
        return AnalysisResult(findings=[finding()], files_scanned=1)

    def test_json_report_shape(self):
        report = to_json(self.result())
        assert report["summary"]["findings"] == 1
        assert report["summary"]["by_rule"] == {"RPR004": 1}
        assert report["summary"]["clean"] is False
        entry = report["findings"][0]
        assert entry["rule"] == "RPR004"
        assert entry["path"] == "src/mod.py"
        assert entry["fingerprint"] == finding().fingerprint
        json.dumps(report)  # must be serialisable as-is

    def test_sarif_report_shape(self):
        sarif = to_sarif(self.result(), all_rules())
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        driver = run["tool"]["driver"]
        rule_ids = {r["id"] for r in driver["rules"]}
        assert {"RPR001", "RPR004", "RPR005", "RPR006", "RPR201"} <= rule_ids
        sarif_result = run["results"][0]
        assert sarif_result["ruleId"] == "RPR004"
        assert sarif_result["level"] == "error"
        location = sarif_result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/mod.py"
        assert location["region"]["startLine"] == 3
        assert sarif_result["partialFingerprints"]["reproAnalyze/v1"] == (
            finding().fingerprint
        )
        json.dumps(sarif)

    def test_text_report_mentions_finding_and_summary(self):
        report = to_text(self.result(), verbose=False)
        assert "src/mod.py:3:1 RPR004" in report
        assert "1 finding(s)" in report
