"""The analyzer's cache layers: hits, invalidation, parse-once.

Every test runs the real :class:`Analyzer` with its cache in the
fixture tree, so cold and warm runs go through the engine's
content-addressed result store exactly as ``repro analyze`` does.
"""

import textwrap

import pytest

from repro.analysis import Analyzer
from repro.analysis.engine import RULESET_VERSION, rule_result_key

CLEAN = """
    def total(core_power_w: float, cache_power_w: float) -> float:
        return core_power_w + cache_power_w
"""

DIRTY = """
    def at_limit(peak_temperature_k: float) -> bool:
        return peak_temperature_k == 358.15
"""

CLEAN_WITH_NEW_SIGNATURE = """
    def total(core_power_w: float, cache_power_w: float) -> float:
        return core_power_w + cache_power_w

    def derate(mttf_hours: float) -> float:
        return mttf_hours
"""


def write_tree(root, files):
    for rel, text in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text), encoding="utf-8")


def analyze(root, select=None):
    analyzer = Analyzer(root=root, select=select, cache_dir=root / ".cache")
    return analyzer.analyze_paths([root / "src"])


def full(findings):
    return [
        (f.rule, f.path, f.line, f.col, f.message, f.snippet, f.context)
        for f in findings
    ]


@pytest.fixture
def tree(tmp_path):
    write_tree(tmp_path, {
        "src/alpha.py": CLEAN,
        "src/beta.py": DIRTY,
        "src/gamma.py": """
            TARGET_FIT = 4000.0

            def budget() -> float:
                return TARGET_FIT
        """,
    })
    return tmp_path


class TestWarmRuns:
    def test_cold_run_analyzes_everything(self, tree):
        result = analyze(tree)
        assert result.stats["files"] == 3
        assert result.stats["parsed"] == 3
        assert result.stats["analyzed"] == 3
        assert result.stats["cached"] == 0
        assert result.stats["harvest_hits"] == 0

    def test_warm_run_is_fully_cached(self, tree):
        cold = analyze(tree)
        warm = analyze(tree)
        assert warm.stats["cached"] == 3
        assert warm.stats["analyzed"] == 0
        assert warm.stats["harvest_hits"] == 3
        assert warm.stats["parsed"] == 0
        assert [f.fingerprint for f in warm.findings] == [
            f.fingerprint for f in cold.findings
        ]

    def test_findings_survive_the_cache(self, tree):
        cold = analyze(tree, select=["RPR004"])
        warm = analyze(tree, select=["RPR004"])
        assert [f.rule for f in cold.findings] == ["RPR004"]
        assert [(f.rule, f.path, f.line, f.message) for f in warm.findings] == [
            (f.rule, f.path, f.line, f.message) for f in cold.findings
        ]

    def test_cold_and_warm_runs_agree(self, tree):
        write_tree(tree, {
            "src/delta.py": """
                def check(x):
                    return x == 1.5  # repro: ignore[RPR004] fixture
            """,
        })
        cold = analyze(tree)
        warm = analyze(tree)
        assert warm.stats["parsed"] == 0
        assert cold.findings and cold.suppressed
        assert full(warm.findings) == full(cold.findings)
        assert full(warm.suppressed) == full(cold.suppressed)


class TestInvalidation:
    def test_body_edit_reanalyzes_exactly_one_file(self, tree):
        analyze(tree)
        # Same signatures (names, params, constants), different body.
        write_tree(tree, {
            "src/alpha.py": """
                def total(core_power_w: float, cache_power_w: float) -> float:
                    combined_w = core_power_w + cache_power_w
                    return combined_w
            """,
        })
        result = analyze(tree)
        assert result.stats["analyzed"] == 1
        assert result.stats["cached"] == 2
        assert result.stats["harvest_hits"] == 2
        assert result.stats["parsed"] == 1

    def test_signature_edit_reanalyzes_the_tree(self, tree):
        analyze(tree)
        # A new function changes the project-wide signature table, so
        # every file's rule-result key changes (cross-module rules may
        # fire anywhere).
        write_tree(tree, {"src/alpha.py": CLEAN_WITH_NEW_SIGNATURE})
        result = analyze(tree)
        assert result.stats["analyzed"] == 3
        assert result.stats["cached"] == 0
        assert result.stats["harvest_hits"] == 2
        # Each file is parsed once, though only one missed its harvest.
        assert result.stats["parsed"] == 3

    def test_rule_selection_is_part_of_the_key(self, tree):
        analyze(tree, select=["RPR004"])
        other = analyze(tree, select=["RPR001"])
        assert other.stats["analyzed"] == 3
        again = analyze(tree, select=["RPR004"])
        assert again.stats["cached"] == 3

    def test_envelope_edit_reanalyzes_the_tree(self, tmp_path):
        # Declared envelopes seed the interval pass and ride in the
        # signature digest: opening the lower bound of "hours" makes
        # the division reachable-by-zero in an untouched file.
        write_tree(tmp_path, {
            "src/ranges.py": """
                PHYSICAL_RANGES = {"hours": [0.0, None, True]}
            """,
            "src/rate.py": """
                def rate(mttf_hours: float) -> float:
                    return 1.0 / mttf_hours
            """,
        })
        assert analyze(tmp_path, select=["RPR301"]).findings == []
        write_tree(tmp_path, {
            "src/ranges.py": """
                PHYSICAL_RANGES = {"hours": [0.0, None]}
            """,
        })
        result = analyze(tmp_path, select=["RPR301"])
        assert result.stats["analyzed"] == 2
        assert [(f.rule, f.path) for f in result.findings] == [
            ("RPR301", "src/rate.py")
        ]

    def test_parse_error_is_reported_cold_and_warm(self, tree):
        write_tree(tree, {"src/broken.py": "def oops(:\n"})
        for _ in range(2):
            result = analyze(tree)
            broken = [f for f in result.findings if f.path == "src/broken.py"]
            assert [f.rule for f in broken] == ["RPR000"]
        # The second run served the (failed) harvest from the store.
        assert result.stats["harvest_hits"] == 4


class TestRuleResultKeys:
    def kwargs(self, **overrides):
        base = dict(
            rel_path="src/mod.py",
            digest="abc123",
            rule_ids=["RPR001", "RPR004"],
            sig_hash="sig456",
        )
        base.update(overrides)
        return base

    def test_every_declared_input_perturbs_the_key(self, monkeypatch):
        base = rule_result_key(**self.kwargs())
        variants = [
            rule_result_key(**self.kwargs(rel_path="src/other.py")),
            rule_result_key(**self.kwargs(digest="def789")),
            rule_result_key(**self.kwargs(rule_ids=["RPR001"])),
            rule_result_key(**self.kwargs(sig_hash="sig999")),
        ]
        monkeypatch.setattr(
            "repro.analysis.engine.RULESET_VERSION", RULESET_VERSION + 1
        )
        variants.append(rule_result_key(**self.kwargs()))
        keys = {base} | set(variants)
        assert len(keys) == len(variants) + 1


RACY = """
    from concurrent.futures import ThreadPoolExecutor


    class Memo:
        def __init__(self):
            self.grid = {}

        def put(self, key, value):
            self.grid[key] = value


    class Service:
        def __init__(self):
            self.memo = Memo()
            self.pool = ThreadPoolExecutor(4)

        def work(self, key):
            self.memo.put(key, key * 2)

        def dispatch(self, key):
            self.pool.submit(self.work, key)
"""

RACY_LOCKED = """
    import threading
    from concurrent.futures import ThreadPoolExecutor


    class Memo:
        def __init__(self):
            self.grid = {}
            self.lock = threading.Lock()

        def put(self, key, value):
            with self.lock:
                self.grid[key] = value


    class Service:
        def __init__(self):
            self.memo = Memo()
            self.pool = ThreadPoolExecutor(4)

        def work(self, key):
            self.memo.put(key, key * 2)

        def dispatch(self, key):
            self.pool.submit(self.work, key)
"""


class TestCallGraphLayer:
    """The interprocedural pass caches as one store entry keyed on the
    merged call-graph facts; file edits only recompute it when those
    facts (or the signature table) actually change."""

    def tree(self, tmp_path):
        write_tree(tmp_path, {
            "src/svc.py": RACY,
            "src/alpha.py": CLEAN,
        })
        return tmp_path

    def test_findings_replay_from_the_cached_pass(self, tmp_path):
        tree = self.tree(tmp_path)
        cold = analyze(tree, select=["RPR201"])
        assert cold.stats["callgraph_pass"] == "computed"
        assert [f.rule for f in cold.findings] == ["RPR201"]
        warm = analyze(tree, select=["RPR201"])
        assert warm.stats["callgraph_pass"] == "cached"
        assert warm.stats["analyzed"] == 0
        assert [(f.path, f.line, f.message) for f in warm.findings] == [
            (f.path, f.line, f.message) for f in cold.findings
        ]

    def test_body_edit_reanalyzes_one_file_and_keeps_the_pass(self, tmp_path):
        tree = self.tree(tmp_path)
        analyze(tree, select=["RPR201"])
        # Rewrite a body without touching signatures, calls, or writes:
        # the per-file layer re-runs for that file alone and the merged
        # call-graph facts hash to the same key.
        write_tree(tree, {
            "src/alpha.py": """
                def total(core_power_w: float, cache_power_w: float) -> float:
                    return cache_power_w + core_power_w
            """,
        })
        result = analyze(tree, select=["RPR201"])
        assert result.stats["analyzed"] == 1
        assert result.stats["cached"] == 1
        assert result.stats["callgraph_pass"] == "cached"

    def test_call_fact_edit_recomputes_the_pass(self, tmp_path):
        tree = self.tree(tmp_path)
        analyze(tree, select=["RPR201"])
        # Locking the write changes svc.py's harvested call-graph facts,
        # so the pass key misses and the finding disappears.
        write_tree(tree, {"src/svc.py": RACY_LOCKED})
        result = analyze(tree, select=["RPR201"])
        assert result.stats["callgraph_pass"] == "computed"
        assert result.findings == []

    def test_signature_edit_invalidates_the_pass(self, tmp_path):
        tree = self.tree(tmp_path)
        analyze(tree, select=["RPR201"])
        # A new public function in an unrelated module changes the
        # project signature table; the pass key includes it, so the
        # interprocedural layer recomputes even though svc.py is
        # untouched.
        write_tree(tree, {"src/alpha.py": CLEAN_WITH_NEW_SIGNATURE})
        result = analyze(tree, select=["RPR201"])
        assert result.stats["callgraph_pass"] == "computed"
        assert [f.rule for f in result.findings] == ["RPR201"]

    def test_file_only_selection_skips_the_pass(self, tmp_path):
        tree = self.tree(tmp_path)
        result = analyze(tree, select=["RPR004"])
        assert result.stats["callgraph_rules"] == 0
        assert result.stats["callgraph_pass"] == "skipped"
