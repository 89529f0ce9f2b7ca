"""Per-rule fixture tests: one true positive and one clean negative each.

Fixtures are written into a throwaway tree under ``tmp_path``; paths
under ``src/`` analyse as source files, paths under ``tests/`` analyse
as test files (the rules' ``applies_to`` split).
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


class TestUnitSuffix:
    def test_flags_suffixless_parameter_and_attribute(self, tmp_path):
        result = run(tmp_path, {
            "src/mod.py": """
                class Config:
                    voltage: float = 1.0

                def solve(temperature: float):
                    return temperature
            """,
        }, select=["RPR001"])
        assert rules_hit(result) == ["RPR001", "RPR001"]
        messages = " ".join(f.message for f in result.findings)
        assert "voltage" in messages and "temperature" in messages

    def test_accepts_suffixed_and_non_numeric_names(self, tmp_path):
        result = run(tmp_path, {
            "src/mod.py": """
                class Config:
                    voltage_v: float = 1.0
                    power: "PowerBreakdown" = None
                    scales_with_power: bool = True
                    frequency_ratio: float = 0.5

                def solve(temperature_k: float, power_w_by_block: dict[str, float]):
                    return temperature_k
            """,
        }, select=["RPR001"])
        assert result.findings == []

    def test_kelvin_keyword_with_celsius_literal_warns(self, tmp_path):
        result = run(tmp_path, {
            "src/mod.py": """
                def use(solve):
                    solve(temperature_k=85.0)
            """,
        }, select=["RPR001"])
        assert rules_hit(result) == ["RPR001"]
        assert "Celsius" in result.findings[0].message

    def test_kelvin_keyword_with_kelvin_literal_is_clean(self, tmp_path):
        result = run(tmp_path, {
            "src/mod.py": """
                def use(solve):
                    solve(temperature_k=358.0)
            """,
        }, select=["RPR001"])
        assert result.findings == []

    def test_skips_test_files(self, tmp_path):
        result = run(tmp_path, {
            "tests/test_mod.py": """
                def check(temperature: float):
                    return temperature
            """,
        }, select=["RPR001"])
        assert result.findings == []

    def test_docstring_declared_dimensionless_parameter_is_exempt(self, tmp_path):
        # The annealing-temperature shape of AdversarySearch.search: the
        # Args entry declares it a fraction, so it is not a kelvin value.
        result = run(tmp_path, {
            "src/mod.py": """
                def search(*, anneal_steps: int = 200, temperature: float = 0.05):
                    \"\"\"Anneal.

                    Args:
                        anneal_steps: Metropolis mutation steps.
                        temperature: initial acceptance temperature, as a
                            fraction of the incumbent objective.
                    \"\"\"
                    return temperature
            """,
        }, select=["RPR001"])
        assert result.findings == []

    def test_undocumented_or_other_params_still_fire(self, tmp_path):
        # The exemption is per parameter: a sibling whose entry declares
        # no dimensionless unit, and the same name without a docstring,
        # are still checked.
        result = run(tmp_path, {
            "src/mod.py": """
                def cool(temperature: float, voltage: float):
                    \"\"\"Cool down.

                    Args:
                        temperature: die temperature.
                        voltage: supply, as a fraction of nominal.
                    \"\"\"
                    return temperature

                def heat(temperature: float):
                    return temperature
            """,
        }, select=["RPR001"])
        assert [f.line for f in result.findings] == [2, 11]
        assert all("temperature" in f.message for f in result.findings)


class TestFloatEquality:
    def test_flags_float_literal_and_inf_comparisons(self, tmp_path):
        result = run(tmp_path, {
            "src/mod.py": """
                import math

                def check(x):
                    return x == 1.5 or x != math.inf
            """,
        }, select=["RPR004"])
        assert rules_hit(result) == ["RPR004", "RPR004"]

    def test_suggests_isinf_for_inf_comparisons(self, tmp_path):
        result = run(tmp_path, {
            "src/mod.py": """
                import math

                def check(x):
                    return x == math.inf
            """,
        }, select=["RPR004"])
        assert "isinf" in result.findings[0].message

    def test_int_and_string_equality_are_clean(self, tmp_path):
        result = run(tmp_path, {
            "src/mod.py": """
                def check(x, s):
                    return x == 1 and s == "done" and x is None
            """,
        }, select=["RPR004"])
        assert result.findings == []

    def test_applies_inside_test_files_too(self, tmp_path):
        result = run(tmp_path, {
            "tests/test_mod.py": """
                def test_check():
                    assert compute() == 0.5
            """,
        }, select=["RPR004"])
        assert rules_hit(result) == ["RPR004"]


class TestConstantsAudit:
    def test_flags_duplicated_paper_constants(self, tmp_path):
        result = run(tmp_path, {
            "src/mod.py": """
                EA = 0.9
                COFFIN_MANSON = 2.35
            """,
        }, select=["RPR005"])
        assert rules_hit(result) == ["RPR005", "RPR005"]

    def test_other_literals_and_canonical_file_are_clean(self, tmp_path):
        result = run(tmp_path, {
            "src/mod.py": """
                HALF = 0.5
            """,
            "src/repro/constants.py": """
                EM_ACTIVATION_ENERGY_EV = 0.9
            """,
            "tests/test_mod.py": """
                def test_ea():
                    assert abs(ea() - 0.9) < 1e-12
            """,
        }, select=["RPR005"])
        assert result.findings == []


class TestBroadExcept:
    def test_flags_bare_and_exception_handlers(self, tmp_path):
        result = run(tmp_path, {
            "src/mod.py": """
                def load(path):
                    try:
                        return open(path)
                    except Exception:
                        return None

                def probe(path):
                    try:
                        return open(path)
                    except:
                        return None
            """,
        }, select=["RPR006"])
        assert rules_hit(result) == ["RPR006", "RPR006"]

    def test_narrow_and_reraising_handlers_are_clean(self, tmp_path):
        result = run(tmp_path, {
            "src/mod.py": """
                def load(path, log):
                    try:
                        return open(path)
                    except OSError:
                        return None

                def cleanup(path, log):
                    try:
                        return open(path)
                    except BaseException:
                        log.flush()
                        raise
            """,
        }, select=["RPR006"])
        assert result.findings == []


class TestParseErrors:
    def test_unparsable_file_yields_rpr000(self, tmp_path):
        result = run(tmp_path, {
            "src/broken.py": """
                def oops(:
            """,
        })
        assert rules_hit(result) == ["RPR000"]
        assert result.parse_errors == 1
        assert not result.clean
