"""Unit inference and signature harvesting (``repro.analysis.unitsig``).

Names carry units by the RPR001 suffix convention; the harvested
signatures, constant values and declared ``PHYSICAL_RANGES`` seed the
interval pass behind RPR301/RPR303.
"""

import textwrap

from repro.analysis.unitsig import (
    DIMENSIONLESS,
    FIT,
    KELVIN,
    harvest_signatures,
    unit_from_name,
)


class TestNameInference:
    def test_suffix_convention(self):
        assert unit_from_name("peak_temperature_k") is KELVIN
        assert unit_from_name("total_fit") is FIT
        assert unit_from_name("frequency_ratio") is DIMENSIONLESS

    def test_meta_tokens_defer_to_preceding_token(self):
        assert unit_from_name("fit_target") is FIT
        assert unit_from_name("fit_budget_total") is FIT

    def test_per_compounds_and_unknowns_are_none(self):
        assert unit_from_name("boltzmann_ev_per_k") is None
        assert unit_from_name("payload") is None

    def test_relative_prefix_is_dimensionless(self):
        assert unit_from_name("relative_mttf") is DIMENSIONLESS
        assert unit_from_name("rel_fit") is DIMENSIONLESS

    def test_by_container_suffix_is_stripped(self):
        assert unit_from_name("power_w_by_block").name == "W"


class TestHarvest:
    def test_constant_values_and_declared_ranges(self):
        import ast

        tree = ast.parse(textwrap.dedent("""
            MIN_TEMPERATURE_K = 200.0
            TARGET_FIT = 4000.0
            PHYSICAL_RANGES = {
                "K": [MIN_TEMPERATURE_K, 500.0],
                "hours": [0.0, None, True],
            }
        """))
        harvest = harvest_signatures(tree, "mod")
        assert harvest["values"] == {
            "MIN_TEMPERATURE_K": 200.0, "TARGET_FIT": 4000.0,
        }
        assert harvest["ranges"] == {
            "K": [200.0, 500.0, False],
            "hours": [0.0, None, True],
        }

    def test_function_and_method_signatures(self):
        import ast

        tree = ast.parse(textwrap.dedent("""
            def mttf_hours(temperature_k: float) -> float:
                return temperature_k

            class Model:
                def fit_at(self, voltage_v: float) -> float:
                    return voltage_v
        """))
        harvest = harvest_signatures(tree, "mod")
        sig = harvest["functions"]["mod.mttf_hours"]
        assert sig["params"] == [["temperature_k", "K"]]
        assert sig["return"] == "hours"
        assert harvest["functions"]["mod.Model.fit_at"]["params"] == [
            ["voltage_v", "V"]
        ]
