"""The batched evaluation kernel and the unified decision API.

Covers:
- the golden cases of ``tests/golden/physics.json`` (bitwise kernel
  outputs, 1e-12 agreement with the frozen dict-walking reference) and
  scalar RAMP equal to batch RAMP bit for bit;
- residual properties of converged evaluations over Hypothesis-drawn
  schedules: the sink solves the time-weighted average power, the
  pinned-sink system balances, and leakage matches the returned
  temperatures within the convergence bound;
- per-row convergence masking and the ThermalError that names the
  diverging candidates;
- the ``evaluate_mixed`` crash paths (zero-phase run, zero-duration
  phase) turned into clear ``ValueError``s;
- the shared :class:`repro.core.decision.Decision` base and the
  keyword-only oracle API with its deprecation shims.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config.dvs import DEFAULT_VF_CURVE
from repro.config.microarch import BASE_MICROARCH
from repro.config.technology import STRUCTURE_NAMES
from repro.core.decision import Decision
from repro.core.drm import AdaptationMode, DRMDecision
from repro.core.dtm import DTMDecision
from repro.errors import ThermalError
from repro.kernels.batch import STRUCTURE_INDEX, TEMP_TOLERANCE_K
from repro.workloads.suite import workload_by_name
from tests.test_physics_golden import (
    CASES,
    FIT_T_QUAL_K,
    RTOL,
    case_inputs,
    check_case,
    load_golden,
)


def assert_converged_residuals(platform, batch) -> None:
    """Check a converged batch against the equations it solved.

    - pass one: the sink is the steady solve of the time-weighted
      average node power;
    - pass two: with the sink pinned, every block row of ``G·T = P +
      injection`` balances to solver precision (the spreader, which the
      batch does not return, is recovered from its own row);
    - the stored leakage is leakage(T) at temperatures within the
      0.01 K convergence bound of the returned ones.
    """
    network = platform.network
    g = network.conductance
    n_blocks, spreader, sink = network.n_blocks, network.spreader_index, network.sink_index
    node_of = np.array([network.block_names.index(n) for n in STRUCTURE_NAMES])
    n_cand, n_phases, _ = batch.temperatures_k.shape

    node_p = np.zeros((n_cand, n_phases, g.shape[0]))
    node_p[:, :, node_of] = batch.dynamic_w + batch.leakage_w
    w = batch.weights / batch.weights.sum(axis=1, keepdims=True)
    avg_p = (node_p * w[:, :, None]).sum(axis=1)
    full = platform.solver.solve_many((avg_p + network.ambient_injection).T)
    assert np.allclose(full[sink], batch.sink_temperature_k, rtol=1e-12, atol=0.0)

    temps = np.zeros_like(node_p)
    temps[:, :, node_of] = batch.temperatures_k
    temps[:, :, sink] = batch.sink_temperature_k[:, None]
    rhs = node_p + network.ambient_injection
    others = np.arange(g.shape[0]) != spreader
    temps[:, :, spreader] = (
        rhs[:, :, spreader] - temps[:, :, others] @ g[spreader, others]
    ) / g[spreader, spreader]
    blocks = slice(0, n_blocks)
    residual = temps @ g[blocks].T - rhs[:, :, blocks]
    scale = np.abs(temps) @ np.abs(g[blocks]).T
    assert np.all(np.abs(residual) <= 1e-12 * scale)

    tech = platform.technology
    leakage_now = platform.power_model.leakage.power_w(
        batch.temperatures_k,
        np.array([batch.run.config.powered_fraction(n) for n in STRUCTURE_NAMES]),
        (batch.voltage_v / tech.vdd_nominal_v)[:, :, None],
    )
    bound = math.expm1(tech.leakage_temp_coefficient_per_k * TEMP_TOLERANCE_K)
    assert np.all(np.abs(leakage_now - batch.leakage_w) <= bound * batch.leakage_w)


class TestStructureIndex:
    def test_canonical_order_is_dense_and_stable(self):
        positions = sorted(STRUCTURE_INDEX.values())
        assert positions == list(range(len(STRUCTURE_INDEX)))

    def test_batch_axes_follow_the_index(self, platform, mpgdec_run):
        batch = platform.evaluate_batch(
            mpgdec_run, [DEFAULT_VF_CURVE.nominal]
        )
        ev = batch.evaluation(0)
        for name, s in STRUCTURE_INDEX.items():
            assert ev.intervals[0].temperatures[name] == pytest.approx(
                float(batch.temperatures_k[0, 0, s])
            )


class TestBatchedScalarEquivalence:
    """The golden cases: kernel outputs bit for bit, the frozen
    dict-walking reference to 1e-12, scalar RAMP equal to batch RAMP."""

    @pytest.fixture(scope="class")
    def golden(self):
        return load_golden()

    def _check(self, name, golden, oracle, test_cache):
        run, candidates = case_inputs(name, test_cache)
        batch = oracle.platform.evaluate_batch(run, candidates)
        check_case(name, golden, batch, oracle.ramp_for(FIT_T_QUAL_K))
        assert_converged_residuals(oracle.platform, batch)

    def test_dvs_grid_matches_reference(self, golden, oracle, test_cache):
        self._check("dvs_grid", golden, oracle, test_cache)

    def test_throttled_config_matches_reference(self, golden, oracle, test_cache):
        self._check("throttled", golden, oracle, test_cache)

    def test_mixed_schedules_match_reference(self, golden, oracle, test_cache):
        self._check("mixed", golden, oracle, test_cache)

    def test_batched_fit_matches_scalar_ramp(self, oracle, test_cache):
        ramp = oracle.ramp_for(FIT_T_QUAL_K)
        order = [(m.name, n) for m in ramp.mechanisms for n in STRUCTURE_NAMES]
        for name in CASES:
            run, candidates = case_inputs(name, test_cache)
            batch = oracle.platform.evaluate_batch(run, candidates)
            fits = ramp.application_fit_batch(batch)
            fields = ramp.application_fit_fields_batch(batch)
            for i in range(batch.n_candidates):
                scalar = ramp.application_reliability(batch.evaluation(i))
                assert scalar.total_fit == fits[i]
                assert list(scalar.account.entries) == order
                assert list(scalar.account.entries.values()) == fields[i].ravel().tolist()

    def test_wrappers_are_single_row_views(self, platform, twolf_run):
        op = DEFAULT_VF_CURVE.nominal
        via_wrapper = platform.evaluate(twolf_run, op)
        via_batch = platform.evaluate_batch(twolf_run, [op]).evaluation(0)
        assert via_wrapper == via_batch

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_random_schedules_property(self, data, platform, mpgdec_run):
        curve = DEFAULT_VF_CURVE
        n = len(mpgdec_run.phases)
        freq = st.floats(
            min_value=curve.f_min_hz, max_value=curve.f_max_hz
        )
        schedules = data.draw(
            st.lists(
                st.tuples(*[freq] * n).map(
                    lambda fs: tuple(curve.operating_point(f) for f in fs)
                ),
                min_size=1,
                max_size=6,
            )
        )
        batch = platform.evaluate_batch(mpgdec_run, schedules)
        assert batch.salvage is None
        assert_converged_residuals(platform, batch)


class TestConvergenceMasking:
    def test_rows_converge_at_their_own_pace(self, platform, mpgdec_run):
        grid = DEFAULT_VF_CURVE.grid(11)
        batch = platform.evaluate_batch(mpgdec_run, grid)
        assert batch.iterations.min() >= 1
        # The grid spans 2.5-5 GHz: hot rows need more iterations than
        # cool ones, which is what the per-row mask exists for.
        assert batch.iterations.max() >= batch.iterations.min()

    def test_nonconvergence_names_the_candidates(self, platform, mpgdec_run):
        grid = DEFAULT_VF_CURVE.grid(5)
        with pytest.raises(ThermalError, match=r"candidate\(s\) \["):
            platform.evaluate_batch(
                mpgdec_run, grid, max_iters=1, salvage=False
            )


class TestCrashPaths:
    def test_zero_phase_run_raises_value_error(self, platform, mpgdec_run):
        from repro.cpu.simulator import WorkloadRun

        empty = WorkloadRun(
            profile=mpgdec_run.profile,
            config=mpgdec_run.config,
            phases=(),
        )
        with pytest.raises(ValueError, match="no phases"):
            platform.evaluate_mixed(empty, [])
        with pytest.raises(ValueError, match="no phases"):
            platform.evaluate_batch(empty, [DEFAULT_VF_CURVE.nominal])

    def test_schedule_length_mismatch_raises(self, platform, mpgdec_run):
        with pytest.raises(ValueError, match="one operating point per"):
            platform.evaluate_mixed(mpgdec_run, [DEFAULT_VF_CURVE.nominal])

    def test_zero_duration_phase_raises_value_error(
        self, platform, mpgdec_run
    ):
        class _ZeroStats:
            cpi_core = 1.0
            cpi_mem = 0.0
            instructions = 0
            activity = dict(mpgdec_run.phases[0].stats.activity)

        class _ZeroPhase:
            stats = _ZeroStats()

        class _ZeroRun:
            profile = mpgdec_run.profile
            config = mpgdec_run.config
            phases = (_ZeroPhase(),)

        with pytest.raises(ValueError, match="positive duration"):
            platform.evaluate_batch(_ZeroRun(), [DEFAULT_VF_CURVE.nominal])

    def test_empty_candidate_grid_raises(self, platform, mpgdec_run):
        with pytest.raises(ValueError, match="candidate grid is empty"):
            platform.evaluate_batch(mpgdec_run, [])


class TestDecisionAPI:
    def test_oracle_decisions_share_the_base(self, oracle, dtm_oracle):
        profile = workload_by_name("twolf")
        drm = oracle.best(profile, t_qual_k=370.0, mode=AdaptationMode.DVS)
        dtm = dtm_oracle.best(profile, t_limit_k=400.0)
        assert isinstance(drm, Decision)
        assert isinstance(dtm, Decision)
        assert drm.profile_name == dtm.profile_name == profile.name

    def test_dtm_fit_is_nan_by_contract(self, dtm_oracle):
        decision = dtm_oracle.best(
            workload_by_name("twolf"), t_limit_k=400.0
        )
        assert math.isnan(decision.fit)

    def test_dtm_meets_limit_alias_is_gone(self, dtm_oracle):
        decision = dtm_oracle.best(
            workload_by_name("twolf"), t_limit_k=400.0
        )
        assert not hasattr(decision, "meets_limit")
        assert decision.meets_target

    def test_positional_forms_rejected(self, oracle, dtm_oracle):
        profile = workload_by_name("twolf")
        with pytest.raises(TypeError, match="positional"):
            oracle.best(profile, 370.0, AdaptationMode.DVS)
        with pytest.raises(TypeError, match="positional"):
            dtm_oracle.best(profile, 400.0)

    def test_missing_keyword_raises_type_error(self, oracle, dtm_oracle):
        profile = workload_by_name("twolf")
        with pytest.raises(TypeError, match="t_qual_k"):
            oracle.best(profile)
        with pytest.raises(TypeError, match="t_limit_k"):
            dtm_oracle.best(profile)

    def test_decision_records_stay_frozen(self):
        decision = DRMDecision(
            profile_name="twolf",
            t_qual_k=370.0,
            mode=AdaptationMode.DVS,
            config=BASE_MICROARCH,
            op=DEFAULT_VF_CURVE.nominal,
            performance=1.0,
            fit=1000.0,
            meets_target=True,
        )
        with pytest.raises(AttributeError):
            decision.performance = 2.0

    def test_dtm_decision_constructs_with_meets_target(self):
        decision = DTMDecision(
            profile_name="art",
            t_limit_k=360.0,
            op=DEFAULT_VF_CURVE.nominal,
            performance=0.93,
            peak_temperature_k=359.2,
            meets_target=True,
        )
        assert decision.meets_target


class TestOracleBatchedSelection:
    """The rewired oracles must pick exactly what the scalar loops did."""

    def test_drm_selection_matches_manual_scan(self, oracle):
        profile = workload_by_name("twolf")
        decision = oracle.best(
            profile, t_qual_k=370.0, mode=AdaptationMode.DVS
        )
        ramp = oracle.ramp_for(370.0)
        best_perf, best_op = -np.inf, None
        for _, op in oracle.candidates(AdaptationMode.DVS):
            perf, reliability, _ = oracle.evaluate_candidate(
                profile, BASE_MICROARCH, op, ramp
            )
            if reliability.meets_target and perf > best_perf:
                best_perf, best_op = perf, op
        assert decision.op == best_op
        assert decision.performance == pytest.approx(best_perf, rel=RTOL)

    def test_dtm_selection_matches_manual_scan(self, dtm_oracle):
        profile = workload_by_name("MPGdec")
        decision = dtm_oracle.best(profile, t_limit_k=365.0)
        run = dtm_oracle.cache.run(profile, BASE_MICROARCH)
        base = dtm_oracle._base_evaluation(profile)
        best_perf, best_op = -np.inf, None
        for op in dtm_oracle.vf_curve.grid(dtm_oracle.dvs_steps):
            ev = dtm_oracle.platform.evaluate(run, op)
            if (
                ev.peak_temperature_k <= 365.0 + 1e-9
                and ev.ips / base.ips > best_perf
            ):
                best_perf, best_op = ev.ips / base.ips, op
        assert best_op is not None, "pick a T_limit the grid can meet"
        assert decision.op == best_op
        assert decision.performance == pytest.approx(best_perf, rel=RTOL)
