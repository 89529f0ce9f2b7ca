"""RPR201 fixture tests: positive, suppressed, and cross-module.

The concurrency rule gets a true-positive fixture, a fixture that
silences the finding with ``# repro: ignore[RPR201]``, and a fixture
whose racy write is only reachable through a cross-module call chain.  Fixtures run through the real
in-process :class:`Analyzer` so harvesting, graph merging, coloring,
and suppression all run exactly as ``python -m repro analyze`` would.
"""

import textwrap

from repro.analysis import Analyzer


def run(tmp_path, files, select=None):
    """Write ``files`` (rel-path -> source) and analyze the tree."""
    for rel, text in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text), encoding="utf-8")
    return Analyzer(root=tmp_path, select=select).analyze_paths([tmp_path])


def rules_hit(result):
    return [f.rule for f in result.findings]


#: A service whose worker threads mutate an unlocked dict — the exact
#: shape of the Platform grid-memo bug this rule family was built for.
RACY_SERVICE = """
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

LOCKED_SERVICE = """
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


class TestSharedStateWithoutLock:
    def test_unlocked_write_on_thread_path_fires(self, tmp_path):
        result = run(
            tmp_path, {"src/svc.py": RACY_SERVICE}, select=["RPR201"]
        )
        assert rules_hit(result) == ["RPR201"]
        finding = result.findings[0]
        assert "grid" in finding.message
        # The message carries the interprocedural chain to the write.
        assert "Service.work -> Memo.put" in finding.message

    def test_consistent_lock_domain_is_clean(self, tmp_path):
        result = run(
            tmp_path, {"src/svc.py": LOCKED_SERVICE}, select=["RPR201"]
        )
        assert result.findings == []

    def test_per_call_local_objects_are_not_shared(self, tmp_path):
        # The mutated object is constructed inside the threaded call, so
        # no two threads ever see the same instance.
        result = run(tmp_path, {
            "src/svc.py": """
                from concurrent.futures import ThreadPoolExecutor


                class Scratch:
                    def __init__(self):
                        self.rows = {}

                    def put(self, key):
                        self.rows[key] = key


                class Service:
                    def __init__(self):
                        self.pool = ThreadPoolExecutor(4)

                    def work(self, key):
                        scratch = Scratch()
                        scratch.put(key)

                    def dispatch(self, key):
                        self.pool.submit(self.work, key)
            """,
        }, select=["RPR201"])
        assert result.findings == []

    def test_cross_module_chain_is_tracked(self, tmp_path):
        result = run(tmp_path, {
            "src/store.py": """
                class Memo:
                    def __init__(self):
                        self.grid = {}

                    def put(self, key, value):
                        self.grid[key] = value
            """,
            "src/svc.py": """
                from concurrent.futures import ThreadPoolExecutor

                from store import Memo


                class Service:
                    def __init__(self):
                        self.memo = Memo()
                        self.pool = ThreadPoolExecutor(4)

                    def work(self, key):
                        self.memo.put(key, key * 2)

                    def dispatch(self, key):
                        self.pool.submit(self.work, key)
            """,
        }, select=["RPR201"])
        assert rules_hit(result) == ["RPR201"]
        assert result.findings[0].path == "src/store.py"

    def test_suppression_comment_silences_it(self, tmp_path):
        suppressed = RACY_SERVICE.replace(
            "self.grid[key] = value",
            "self.grid[key] = value  # repro: ignore[RPR201] single-writer",
        )
        result = run(
            tmp_path, {"src/svc.py": suppressed}, select=["RPR201"]
        )
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["RPR201"]


class TestRuleFamilyGlob:
    def test_rules_glob_expands_to_the_family(self, tmp_path):
        from repro.analysis.registry import expand_rule_patterns

        assert expand_rule_patterns(["RPR2xx"]) == ["RPR201"]
        assert expand_rule_patterns(["RPR3*"]) == [
            "RPR301", "RPR303", "RPR311", "RPR312",
        ]

    def test_unknown_pattern_is_an_error(self):
        import pytest

        from repro.analysis.registry import AnalysisError, expand_rule_patterns

        with pytest.raises(AnalysisError):
            expand_rule_patterns(["RPR9xx"])
