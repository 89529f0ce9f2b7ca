"""Tests for the Wattch-style power model (its array forms)."""

import math

import numpy as np
import pytest

from repro.config.dvs import DEFAULT_VF_CURVE, OperatingPoint
from repro.config.microarch import BASE_MICROARCH, MicroarchConfig
from repro.config.technology import DEFAULT_TECHNOLOGY, STRUCTURE_NAMES, STRUCTURES
from repro.errors import ConfigurationError
from repro.power.dynamic import CLOCK_GATE_FLOOR, DynamicPowerModel
from repro.power.leakage import LeakagePowerModel
from repro.power.model import PowerModel
from tests.conftest import power_breakdown, uniform_activity, uniform_temps

NOMINAL = DEFAULT_VF_CURVE.nominal


def powered(config: MicroarchConfig) -> np.ndarray:
    return np.array([config.powered_fraction(n) for n in STRUCTURE_NAMES])


def ratios(op: OperatingPoint) -> tuple[float, float]:
    return (
        op.voltage_v / DEFAULT_TECHNOLOGY.vdd_nominal_v,
        op.frequency_hz / DEFAULT_TECHNOLOGY.frequency_nominal_hz,
    )


class TestDynamicPower:
    def setup_method(self):
        self.model = DynamicPowerModel(DEFAULT_TECHNOLOGY)

    def power(self, activity, config=BASE_MICROARCH, op=NOMINAL) -> dict:
        v_ratio, f_ratio = ratios(op)
        watts = self.model.power_w(
            np.asarray(activity, dtype=float), v_ratio, f_ratio, powered(config)
        )
        return dict(zip(STRUCTURE_NAMES, watts.tolist()))

    def uniform(self, value, config=BASE_MICROARCH, op=NOMINAL) -> dict:
        return self.power([value] * len(STRUCTURE_NAMES), config, op)

    def test_idle_structure_draws_gate_floor(self):
        powers = self.uniform(0.0)
        for spec in STRUCTURES:
            assert powers[spec.name] == pytest.approx(CLOCK_GATE_FLOOR * spec.peak_dynamic_w)

    def test_full_activity_draws_peak(self):
        powers = self.uniform(1.0)
        for spec in STRUCTURES:
            assert powers[spec.name] == pytest.approx(spec.peak_dynamic_w)

    def test_power_linear_in_activity(self):
        lo, hi, mid = self.uniform(0.2), self.uniform(0.6), self.uniform(0.4)
        for name in lo:
            assert mid[name] == pytest.approx((lo[name] + hi[name]) / 2)

    def test_v_squared_f_scaling(self):
        half = self.uniform(0.5, op=OperatingPoint(2.0e9, 0.5))
        nominal = self.uniform(0.5)
        for name in half:
            assert half[name] == pytest.approx(nominal[name] * 0.25 * 0.5)

    def test_near_cubic_frequency_dependence_along_dvs_curve(self):
        curve = DEFAULT_VF_CURVE

        def total(f):
            return sum(self.uniform(0.5, op=curve.operating_point(f)).values())

        exponent = (math.log(total(5.0e9)) - math.log(total(2.5e9))) / math.log(2.0)
        assert 1.3 < exponent < 3.0

    def test_powered_down_units_draw_nothing(self):
        shrunk = MicroarchConfig(window_size=64, n_ialu=3, n_fpu=2)
        full = self.uniform(0.5)
        part = self.uniform(0.5, config=shrunk)
        assert part["window"] == pytest.approx(full["window"] * 0.5)
        assert part["ialu"] == pytest.approx(full["ialu"] * 0.5)
        assert part["fpu"] == pytest.approx(full["fpu"] * 0.5)
        assert part["l1d"] == pytest.approx(full["l1d"])

    def test_missing_activity_rejected(self):
        with pytest.raises(ConfigurationError, match="one factor per structure"):
            self.power([0.5])

    def test_out_of_range_activity_rejected(self):
        bad = uniform_activity(0.5)
        bad["fpu"] = 1.5
        with pytest.raises(ConfigurationError):
            self.power([bad[n] for n in STRUCTURE_NAMES])

    def test_invalid_gate_floor_rejected(self):
        with pytest.raises(ConfigurationError):
            DynamicPowerModel(DEFAULT_TECHNOLOGY, gate_floor=1.5)


class TestLeakagePower:
    def setup_method(self):
        self.model = LeakagePowerModel(DEFAULT_TECHNOLOGY)

    def power(self, temperature_k, config=BASE_MICROARCH, op=NOMINAL) -> dict:
        v_ratio, _ = ratios(op)
        watts = self.model.power_w(
            np.full(len(STRUCTURE_NAMES), temperature_k), powered(config), v_ratio
        )
        return dict(zip(STRUCTURE_NAMES, watts.tolist()))

    def density(self, temperature_k) -> float:
        spec = STRUCTURES[0]
        return self.power(temperature_k)[spec.name] / spec.area_mm2

    def test_reference_density(self):
        assert self.density(383.0) == pytest.approx(0.5)

    def test_exponential_temperature_dependence(self):
        # Heo et al.: P(T) = P_ref * exp(0.017 (T - T_ref)).
        assert self.density(393.0) == pytest.approx(0.5 * math.exp(0.17))
        assert self.density(353.0) == pytest.approx(0.5 * math.exp(-0.51))

    def test_total_leakage_at_reference_is_half_watt_per_mm2(self):
        assert sum(self.power(383.0).values()) == pytest.approx(0.5 * 20.2, rel=1e-6)

    def test_leakage_proportional_to_area(self):
        powers = self.power(383.0)
        for spec in STRUCTURES:
            assert powers[spec.name] == pytest.approx(0.5 * spec.area_mm2)

    def test_powered_down_slices_do_not_leak(self):
        full = self.power(360.0)
        part = self.power(360.0, config=MicroarchConfig(n_fpu=1))
        assert part["fpu"] == pytest.approx(full["fpu"] * 0.25)

    def test_leakage_scales_with_voltage(self):
        full = self.power(360.0)
        lowered = self.power(360.0, op=OperatingPoint(3.0e9, 0.9))
        for name in full:
            assert lowered[name] == pytest.approx(full[name] * 0.9)

    def test_implausible_temperature_rejected(self):
        with pytest.raises(ValueError, match="outside plausible range"):
            self.power(1000.0)


class TestPowerModel:
    def setup_method(self):
        self.model = PowerModel()

    def breakdown(self, activity, temperature_k, temps=None):
        temps = temps or uniform_temps(temperature_k)
        return power_breakdown(
            self.model, uniform_activity(activity), BASE_MICROARCH, NOMINAL, temps
        )

    def test_breakdown_totals(self):
        b = self.breakdown(0.5, 360.0)
        assert b.total_w == pytest.approx(b.total_dynamic_w + b.total_leakage_w)
        assert b.total_w == pytest.approx(sum(b.totals().values()))

    def test_structure_total(self):
        b = self.breakdown(0.5, 360.0)
        assert b.structure_total("fpu") == pytest.approx(b.dynamic["fpu"] + b.leakage["fpu"])

    def test_hotter_die_leaks_more(self):
        cool = self.breakdown(0.3, 340.0)
        hot = self.breakdown(0.3, 390.0)
        assert hot.total_leakage_w > cool.total_leakage_w
        assert hot.total_dynamic_w == pytest.approx(cool.total_dynamic_w)

    def test_per_structure_temperatures_respected(self):
        temps = uniform_temps(340.0)
        temps["fpu"] = 400.0
        b = self.breakdown(0.3, None, temps)
        # FPU leaks disproportionately given its hot spot.
        fpu_density = b.leakage["fpu"] / 3.2
        l1d_density = b.leakage["l1d"] / 4.0
        assert fpu_density > l1d_density * 2
