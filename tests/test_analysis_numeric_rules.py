"""Fixture tests for the interval-domain and hot-path rules (RPR301-312).

Same harness idiom as ``test_analysis_rules``: throwaway trees under
``tmp_path``, one true positive and one clean (or suppressed) negative
per rule.  Paths under ``src/repro/kernels`` (etc.) make the module
*hot* for the performance rules; the interval pass seeds parameters
from a ``PHYSICAL_RANGES`` table in the fixture tree itself.
"""

import textwrap

from repro.analysis import Analyzer


RANGES = """
    MIN_TEMPERATURE_K = 200.0
    MAX_TEMPERATURE_K = 500.0
    PHYSICAL_RANGES = {
        "K": [MIN_TEMPERATURE_K, MAX_TEMPERATURE_K],
        "V": [0.5, 1.6],
        "W": [0.0, None],
        "hours": [0.0, None, True],
    }
"""


def run(tmp_path, files, select=None):
    for rel, text in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text), encoding="utf-8")
    return Analyzer(root=tmp_path, select=select).analyze_paths([tmp_path])


def rules_hit(result):
    return [f.rule for f in result.findings]


class TestReachableDomainError:
    def test_division_by_provable_zero(self, tmp_path):
        result = run(tmp_path, {
            "src/repro/core/mod.py": """
                def share(total_w: float) -> float:
                    scale = 0.0
                    return total_w / scale
            """,
        }, select=["RPR301"])
        assert rules_hit(result) == ["RPR301"]
        assert "zero" in result.findings[0].message

    def test_log_of_nonpositive(self, tmp_path):
        result = run(tmp_path, {
            "src/repro/core/mod.py": """
                import math

                def decay(rate: float) -> float:
                    floor = -2.0
                    return math.log(floor)
            """,
        }, select=["RPR301"])
        assert rules_hit(result) == ["RPR301"]

    def test_sqrt_of_negative(self, tmp_path):
        result = run(tmp_path, {
            "src/repro/core/mod.py": """
                import math

                def rms(x: float) -> float:
                    bias = -1.0
                    return math.sqrt(bias)
            """,
        }, select=["RPR301"])
        assert rules_hit(result) == ["RPR301"]

    def test_guarded_division_is_clean(self, tmp_path):
        result = run(tmp_path, {
            "src/repro/core/mod.py": """
                def share(total_w: float, scale: float) -> float:
                    if scale <= 0.0:
                        raise ValueError("scale must be positive")
                    return total_w / scale
            """,
        }, select=["RPR301"])
        assert result.findings == []

    def test_suppression(self, tmp_path):
        result = run(tmp_path, {
            "src/repro/core/mod.py": """
                def share(total_w: float) -> float:
                    scale = 0.0
                    # repro: ignore[RPR301] fixture: exercised suppression
                    return total_w / scale
            """,
        }, select=["RPR301"])
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["RPR301"]


class TestDeclaredRange:
    """Declared envelopes seed parameters, widened by literal defaults."""

    def test_zero_default_accumulator_is_clean(self, tmp_path):
        # The WearState shape: elapsed hours start at zero, and only a
        # divisor needs the strictly positive envelope.
        result = run(tmp_path, {
            "src/repro/constants.py": RANGES,
            "src/repro/core/mod.py": """
                class Tally:
                    def __init__(self, hours: float = 0.0) -> None:
                        if hours < 0.0:
                            raise ValueError("hours must be non-negative")
                        self.hours = hours
            """,
        }, select=["RPR301"])
        assert result.findings == []

    def test_zero_default_that_reaches_a_division_fires(self, tmp_path):
        # The default widens the parameter's seed to [0, inf], so the
        # division it reaches is reported where it happens.
        result = run(tmp_path, {
            "src/repro/constants.py": RANGES,
            "src/repro/core/mod.py": """
                def rate(count: float, hours: float = 0.0) -> float:
                    return count / hours

                def safe_rate(count: float, hours: float) -> float:
                    return count / hours
            """,
        }, select=["RPR301"])
        assert rules_hit(result) == ["RPR301"]
        assert result.findings[0].line == 3


class TestUncheckedNanFlow:
    def test_unguarded_exp_in_hot_module(self, tmp_path):
        result = run(tmp_path, {
            "src/repro/kernels/mod.py": """
                import numpy as np

                def heat(x):
                    return np.exp(x)
            """,
        }, select=["RPR303"])
        assert rules_hit(result) == ["RPR303"]

    def test_finite_check_guards_it(self, tmp_path):
        result = run(tmp_path, {
            "src/repro/kernels/mod.py": """
                import numpy as np

                def heat(x):
                    out = np.exp(x)
                    if not np.isfinite(out).all():
                        raise ValueError("overflow")
                    return out
            """,
        }, select=["RPR303"])
        assert result.findings == []

    def test_cold_module_is_exempt(self, tmp_path):
        result = run(tmp_path, {
            "src/repro/harness/mod.py": """
                import numpy as np

                def heat(x):
                    return np.exp(x)
            """,
        }, select=["RPR303"])
        assert result.findings == []


class TestScalarMathCall:
    def test_math_exp_in_hot_module(self, tmp_path):
        result = run(tmp_path, {
            "src/repro/thermal/mod.py": """
                import math

                def heat(x: float) -> float:
                    return math.exp(x)
            """,
        }, select=["RPR311"])
        assert rules_hit(result) == ["RPR311"]
        assert "np.exp" in result.findings[0].message

    def test_ufunc_less_math_call_is_clean(self, tmp_path):
        result = run(tmp_path, {
            "src/repro/thermal/mod.py": """
                import math

                def frac(x: float) -> float:
                    return math.fmod(x, 2.0)
            """,
        }, select=["RPR311"])
        assert result.findings == []

    def test_cold_module_is_exempt(self, tmp_path):
        result = run(tmp_path, {
            "src/repro/config/mod.py": """
                import math

                def heat(x: float) -> float:
                    return math.exp(x)
            """,
        }, select=["RPR311"])
        assert result.findings == []


class TestRedundantArrayCopy:
    def test_array_of_fresh_array(self, tmp_path):
        result = run(tmp_path, {
            "src/repro/power/mod.py": """
                import numpy as np

                def zeros(n: int):
                    return np.array(np.zeros(n))
            """,
        }, select=["RPR312"])
        assert rules_hit(result) == ["RPR312"]

    def test_reduction_over_concatenation(self, tmp_path):
        result = run(tmp_path, {
            "src/repro/power/mod.py": """
                import numpy as np

                def all_finite(a, b):
                    return np.isfinite(np.concatenate([a, b])).all()
            """,
        }, select=["RPR312"])
        assert rules_hit(result) == ["RPR312"]

    def test_int_dtype_true_divided(self, tmp_path):
        result = run(tmp_path, {
            "src/repro/power/mod.py": """
                import numpy as np

                def halves(n: int):
                    counts = np.zeros(n, dtype=np.int64)
                    return counts / 2.0
            """,
        }, select=["RPR312"])
        assert rules_hit(result) == ["RPR312"]

    def test_copy_with_dtype_change_is_clean(self, tmp_path):
        result = run(tmp_path, {
            "src/repro/power/mod.py": """
                import numpy as np

                def as_float(xs):
                    return np.array(np.asarray(xs), dtype=float)
            """,
        }, select=["RPR312"])
        assert result.findings == []


class TestFingerprintStability:
    """Project-scope fingerprints must survive pure line moves."""

    def test_rpr201_fingerprint_survives_line_moves(self, tmp_path):
        racy = """
            from concurrent.futures import ThreadPoolExecutor


            class Memo:
                def __init__(self):
                    self.grid = {}
                    self.pool = ThreadPoolExecutor(4)

                def put(self, key):
                    self.grid[key] = key

                def dispatch(self, key):
                    self.pool.submit(self.put, key)
        """

        def fingerprints(body):
            result = run(tmp_path, {"src/repro/serve/mod.py": body},
                         select=["RPR201"])
            return {f.fingerprint: f.line for f in result.findings}

        original = fingerprints(racy)
        moved = fingerprints(
            "# an interleaved comment moving the write down\n\n"
            + textwrap.dedent(racy)
        )
        assert original
        assert set(original) == set(moved)
        assert list(original.values()) != list(moved.values())
