"""Fixture tests for the interval-domain rules (RPR301-312).

Same harness idiom as ``test_analysis_rules``: throwaway trees under
``tmp_path``, one true positive and one clean (or suppressed) negative
per rule.  Paths under ``src/repro/kernels`` (etc.) make the module
*hot* for the performance rules; the declared-range rule reads a
``PHYSICAL_RANGES`` table from the fixture tree itself.
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
    def test_out_of_range_constant(self, tmp_path):
        result = run(tmp_path, {
            "src/repro/constants.py": RANGES,
            "src/repro/core/mod.py": """
                START_TEMPERATURE_K = 50.0
            """,
        }, select=["RPR302"])
        assert rules_hit(result) == ["RPR302"]
        assert result.findings[0].context == "const:START_TEMPERATURE_K"

    def test_out_of_range_default(self, tmp_path):
        result = run(tmp_path, {
            "src/repro/constants.py": RANGES,
            "src/repro/core/mod.py": """
                def solve(temperature_k: float = 900.0) -> float:
                    return temperature_k
            """,
        }, select=["RPR302"])
        assert rules_hit(result) == ["RPR302"]

    def test_out_of_range_cross_module_argument(self, tmp_path):
        result = run(tmp_path, {
            "src/repro/constants.py": RANGES,
            "src/repro/core/mod_a.py": """
                def solve(temperature_k: float) -> float:
                    return temperature_k
            """,
            "src/repro/core/mod_b.py": """
                from repro.core import mod_a

                def drive() -> float:
                    return mod_a.solve(900.0)
            """,
        }, select=["RPR302"])
        assert rules_hit(result) == ["RPR302"]
        assert result.findings[0].path.endswith("mod_b.py")

    def test_in_range_values_are_clean(self, tmp_path):
        result = run(tmp_path, {
            "src/repro/constants.py": RANGES,
            "src/repro/core/mod.py": """
                START_TEMPERATURE_K = 318.0

                def solve(temperature_k: float = 358.0) -> float:
                    return temperature_k
            """,
        }, select=["RPR302"])
        assert result.findings == []

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
        }, select=["RPR301", "RPR302"])
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
        }, select=["RPR301", "RPR302"])
        assert rules_hit(result) == ["RPR301"]
        assert result.findings[0].line == 3

    def test_zero_duration_argument_still_fires(self, tmp_path):
        # Values crossing a call boundary keep the strict envelope: the
        # callee's interval pass cannot see them.
        result = run(tmp_path, {
            "src/repro/constants.py": RANGES,
            "src/repro/core/mod_a.py": """
                def per_hour(count: float, hours: float) -> float:
                    return count / hours
            """,
            "src/repro/core/mod_b.py": """
                from repro.core import mod_a

                def drive() -> float:
                    return mod_a.per_hour(3.0, hours=0.0)
            """,
        }, select=["RPR302"])
        assert rules_hit(result) == ["RPR302"]
        assert result.findings[0].path.endswith("mod_b.py")

    def test_suppression(self, tmp_path):
        result = run(tmp_path, {
            "src/repro/constants.py": RANGES,
            "src/repro/core/mod.py": """
                TOLERANCE_K = 0.01  # repro: ignore[RPR302] delta, not abs
            """,
        }, select=["RPR302"])
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["RPR302"]


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


class TestArrayRowLoop:
    def test_loop_over_array_rows(self, tmp_path):
        result = run(tmp_path, {
            "src/repro/kernels/mod.py": """
                import numpy as np

                def total(xs):
                    arr = np.asarray(xs)
                    out = 0.0
                    for row in arr:
                        out = out + float(row.sum())
                    return out
            """,
        }, select=["RPR310"])
        assert rules_hit(result) == ["RPR310"]

    def test_plain_list_loop_is_clean(self, tmp_path):
        result = run(tmp_path, {
            "src/repro/kernels/mod.py": """
                def total(xs: list) -> float:
                    out = 0.0
                    for x in xs:
                        out = out + x
                    return out
            """,
        }, select=["RPR310"])
        assert result.findings == []

    def test_suppression(self, tmp_path):
        result = run(tmp_path, {
            "src/repro/kernels/mod.py": """
                import numpy as np

                def total(xs):
                    arr = np.asarray(xs)
                    out = 0.0
                    # repro: ignore[RPR310] fixture: documented fallback
                    for row in arr:
                        out = out + float(row.sum())
                    return out
            """,
        }, select=["RPR310"])
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["RPR310"]


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

    def _range_fingerprints(self, tmp_path, body):
        result = run(tmp_path, {
            "src/repro/constants.py": RANGES,
            "src/repro/core/mod.py": body,
        }, select=["RPR302"])
        return {f.fingerprint: f.line for f in result.findings}

    def test_rpr302_fingerprint_survives_line_moves(self, tmp_path):
        original = self._range_fingerprints(tmp_path, """
            START_TEMPERATURE_K = 50.0
        """)
        moved = self._range_fingerprints(tmp_path, """
            # a new leading comment block
            # that shifts every following line
            HELPER_NOTE = "padding"

            START_TEMPERATURE_K = 50.0
        """)
        assert set(original) == set(moved)
        assert list(original.values()) != list(moved.values())

    def test_rpr204_fingerprint_survives_line_moves(self, tmp_path):
        def fingerprints(body):
            result = run(tmp_path, {
                "src/repro/serve/mod.py": body,
            }, select=["RPR204"])
            return {f.fingerprint: f.line for f in result.findings}

        original = fingerprints("""
            import asyncio

            async def shutdown(drain):
                asyncio.create_task(drain())
        """)
        moved = fingerprints("""
            import asyncio

            # an interleaved comment moving the call site down

            async def shutdown(drain):

                asyncio.create_task(drain())
        """)
        assert set(original) == set(moved)
        assert list(original.values()) != list(moved.values())
