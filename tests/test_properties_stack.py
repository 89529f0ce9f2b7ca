"""Property-based tests over the assembled stack's newer layers.

Complements test_properties.py with invariants on the thermal network,
power model, lifetime distributions, sensors, and reporting — the pieces
added after the first property pass.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.config.dvs import DEFAULT_VF_CURVE, OperatingPoint
from repro.config.microarch import BASE_MICROARCH
from repro.config.technology import STRUCTURE_NAMES
from repro.constants import AMBIENT_TEMPERATURE_K
from repro.lifetime.distributions import (
    ExponentialLifetime,
    LognormalLifetime,
    WeibullLifetime,
    series_system_mttf,
    sofr_series_mttf,
)
from repro.harness.reporting import format_series, format_table
from repro.power.model import PowerModel
from repro.thermal.floorplan import build_default_floorplan
from repro.thermal.rc_network import ThermalRCNetwork
from repro.thermal.solver import SteadyStateSolver

_FLOORPLAN = build_default_floorplan()
_NETWORK = ThermalRCNetwork(_FLOORPLAN)
_SOLVER = SteadyStateSolver(_NETWORK)
_POWER = PowerModel()

power_vectors = st.lists(
    st.floats(min_value=0.0, max_value=8.0),
    min_size=len(STRUCTURE_NAMES),
    max_size=len(STRUCTURE_NAMES),
)


def as_power(values):
    return dict(zip(STRUCTURE_NAMES, values))


class TestThermalProperties:
    @settings(deadline=None, max_examples=30)
    @given(power_vectors)
    def test_temperatures_at_or_above_ambient(self, values):
        temps = _SOLVER.solve(as_power(values))
        assert all(t >= AMBIENT_TEMPERATURE_K - 1e-9 for t in temps.values())

    @settings(deadline=None, max_examples=30)
    @given(power_vectors, power_vectors)
    def test_superposition(self, a, b):
        """The RC network is linear: T(a+b) - T_amb == rises of a plus b."""
        t_a = _SOLVER.solve(as_power(a))
        t_b = _SOLVER.solve(as_power(b))
        t_ab = _SOLVER.solve(as_power([x + y for x, y in zip(a, b)]))
        for name in STRUCTURE_NAMES:
            rise = (t_a[name] - AMBIENT_TEMPERATURE_K) + (t_b[name] - AMBIENT_TEMPERATURE_K)
            assert t_ab[name] - AMBIENT_TEMPERATURE_K == pytest.approx(rise, abs=1e-6)

    @settings(deadline=None, max_examples=30)
    @given(power_vectors, st.sampled_from(list(STRUCTURE_NAMES)))
    def test_monotone_in_any_block_power(self, values, hot_block):
        base = _SOLVER.solve(as_power(values))
        bumped_values = dict(as_power(values))
        bumped_values[hot_block] += 5.0
        bumped = _SOLVER.solve(bumped_values)
        for name in STRUCTURE_NAMES:
            assert bumped[name] >= base[name] - 1e-9

    @settings(deadline=None, max_examples=20)
    @given(power_vectors)
    def test_energy_balance(self, values):
        full = _SOLVER.solve_full(as_power(values))
        sink = float(full[_NETWORK.sink_index])
        flow = (sink - AMBIENT_TEMPERATURE_K) / _NETWORK.params.r_convection_k_per_w
        assert flow == pytest.approx(sum(values), abs=1e-6)


class TestPowerProperties:
    activities = st.lists(
        st.floats(min_value=0.0, max_value=1.0),
        min_size=len(STRUCTURE_NAMES),
        max_size=len(STRUCTURE_NAMES),
    )

    @settings(deadline=None, max_examples=40)
    @given(activities, st.floats(min_value=2.5e9, max_value=5.0e9))
    def test_power_positive_and_finite(self, acts, freq):
        op = DEFAULT_VF_CURVE.operating_point(freq)
        b = _POWER.evaluate_uniform(
            dict(zip(STRUCTURE_NAMES, acts)), BASE_MICROARCH, op, 360.0
        )
        assert 0.0 < b.total_w < 500.0
        assert math.isfinite(b.total_w)

    @settings(deadline=None, max_examples=40)
    @given(activities)
    def test_dynamic_power_monotone_in_activity(self, acts):
        op = DEFAULT_VF_CURVE.nominal
        lo = _POWER.evaluate_uniform(
            dict(zip(STRUCTURE_NAMES, acts)), BASE_MICROARCH, op, 360.0
        )
        hi_acts = [min(1.0, a + 0.1) for a in acts]
        hi = _POWER.evaluate_uniform(
            dict(zip(STRUCTURE_NAMES, hi_acts)), BASE_MICROARCH, op, 360.0
        )
        assert hi.total_dynamic_w >= lo.total_dynamic_w - 1e-12

    @settings(deadline=None, max_examples=40)
    @given(st.floats(min_value=330.0, max_value=420.0), st.floats(min_value=1.0, max_value=60.0))
    def test_leakage_monotone_in_temperature(self, t, delta):
        op = DEFAULT_VF_CURVE.nominal
        acts = {name: 0.3 for name in STRUCTURE_NAMES}
        cool = _POWER.evaluate_uniform(acts, BASE_MICROARCH, op, t)
        hot = _POWER.evaluate_uniform(acts, BASE_MICROARCH, op, min(440.0, t + delta))
        assert hot.total_leakage_w >= cool.total_leakage_w


class TestLifetimeProperties:
    mttf_lists = st.lists(
        st.floats(min_value=10.0, max_value=1e6), min_size=1, max_size=12
    )

    @settings(deadline=None, max_examples=25)
    @given(mttf_lists)
    def test_sofr_below_weakest_component(self, mttfs):
        assert sofr_series_mttf(mttfs) <= min(mttfs) + 1e-9

    @settings(deadline=None, max_examples=15)
    @given(mttf_lists)
    def test_mc_system_never_outlives_weakest_mean_by_much(self, mttfs):
        """The series system's MTTF cannot exceed the weakest component's
        own mean lifetime (its min with anything is <= itself)."""
        result = series_system_mttf(mttfs, WeibullLifetime(3.0), n_samples=4000)
        assert result.mttf_hours <= min(mttfs) * 1.05

    @settings(deadline=None, max_examples=10)
    @given(
        mttf_lists,
        st.sampled_from(["exp", "weibull", "lognormal"]),
    )
    def test_mc_result_positive(self, mttfs, kind):
        dist = {
            "exp": ExponentialLifetime(),
            "weibull": WeibullLifetime(2.0),
            "lognormal": LognormalLifetime(0.5),
        }[kind]
        result = series_system_mttf(mttfs, dist, n_samples=2000)
        assert result.mttf_hours > 0.0


class TestReportingProperties:
    cells = st.lists(
        st.lists(
            st.one_of(st.integers(-1000, 1000), st.floats(-1e3, 1e3), st.text(max_size=12)),
            min_size=2,
            max_size=2,
        ),
        min_size=0,
        max_size=8,
    )

    @settings(deadline=None, max_examples=40)
    @given(cells)
    def test_table_always_aligned(self, rows):
        text = format_table(["a", "b"], rows)
        lines = text.splitlines()
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # every row padded to the same width

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.floats(0, 10), min_size=1, max_size=6))
    def test_series_render_round_trip_counts(self, ys):
        text = format_series("x", list(range(len(ys))), {"y": ys})
        # One header + one separator + one line per x value.
        assert len(text.splitlines()) == 2 + len(ys)


class TestSensorProperties:
    temps = st.lists(
        st.floats(min_value=320.0, max_value=415.0),
        min_size=len(STRUCTURE_NAMES),
        max_size=len(STRUCTURE_NAMES),
    )
    acts = st.lists(
        st.floats(min_value=0.0, max_value=1.0),
        min_size=len(STRUCTURE_NAMES),
        max_size=len(STRUCTURE_NAMES),
    )

    @settings(deadline=None, max_examples=30)
    @given(temps, acts)
    def test_quantization_error_bounded(self, ts, ps):
        from repro.core.sensors import SensorBank
        from repro.harness.platform import Interval
        from repro.power.model import PowerBreakdown

        zero = {name: 0.0 for name in STRUCTURE_NAMES}
        interval = Interval(
            weight=1.0,
            temperatures=dict(zip(STRUCTURE_NAMES, ts)),
            activity=dict(zip(STRUCTURE_NAMES, ps)),
            power=PowerBreakdown(dynamic=zero, leakage=zero),
            op=OperatingPoint(4.0e9, 1.0),
            config=BASE_MICROARCH,
        )
        readings = SensorBank().sample(interval)
        for name in STRUCTURE_NAMES:
            assert abs(readings.temperatures[name] - interval.temperatures[name]) <= 0.5 + 1e-9
            assert abs(
                readings.activity_factors()[name] - interval.activity[name]
            ) <= 1e-5
