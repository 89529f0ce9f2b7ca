"""Unit tests for the cumulative wear state and damage model."""

import numpy as np
import pytest

from repro.config.technology import STRUCTURE_NAMES
from repro.errors import LifetimeError, ReliabilityError
from repro.kernels.wear import accrue
from repro.lifetime import MECHANISM_NAMES, DamageModel, WearState

SHAPE = (len(MECHANISM_NAMES), len(STRUCTURE_NAMES))


def uniform_rates(value: float = 1e-6) -> np.ndarray:
    return np.full(SHAPE, value)


class TestDamageModel:
    def test_defaults_are_sofr_consistent(self):
        model = DamageModel()
        # Stored defaults read back unchanged, so == is exact.
        assert model.fail_threshold == 1.0  # repro: ignore[RPR004] stored default
        assert model.asymmetry_coefficient == 0.0  # repro: ignore[RPR004] stored default

    @pytest.mark.parametrize("threshold", [0.0, -0.5, float("nan"), float("inf")])
    def test_rejects_bad_threshold(self, threshold):
        with pytest.raises(LifetimeError):
            DamageModel(fail_threshold=threshold)

    @pytest.mark.parametrize("coefficient", [-0.1, float("nan")])
    def test_rejects_bad_asymmetry(self, coefficient):
        with pytest.raises(LifetimeError):
            DamageModel(asymmetry_coefficient=coefficient)


class TestWearState:
    def test_fresh_is_zero(self):
        state = WearState.fresh()
        assert state.damage.shape == SHAPE
        # A fresh state holds literal zeros; sums and maxima of zeros are exact.
        assert state.total == 0.0  # repro: ignore[RPR004] sum of literal zeros
        assert state.peak == 0.0  # repro: ignore[RPR004] max of literal zeros
        assert state.hours == 0.0  # repro: ignore[RPR004] stored literal zero
        assert state.epochs == 0
        assert not state.failed()

    def test_accrue_adds_rate_times_hours(self):
        # Powers of two keep the arithmetic exact, so == is meaningful.
        state = WearState.fresh()
        state.accrue(uniform_rates(2.0**-20), 128.0)
        assert np.all(state.damage == 2.0**-13)
        assert state.hours == 128.0  # repro: ignore[RPR004] 0 + 128, a power of two
        assert state.epochs == 1
        state.accrue(uniform_rates(2.0**-21), 64.0)
        assert np.all(state.damage == 2.0**-13 + 2.0**-15)
        assert state.epochs == 2

    def test_reset_structure_zeros_one_column(self):
        state = WearState.fresh()
        state.accrue(uniform_rates(2.0**-20), 128.0)
        state.reset_structure("fpu")
        column = STRUCTURE_NAMES.index("fpu")
        # repro: ignore[RPR004] reset writes literal zeros into the column
        assert np.all(state.damage[:, column] == 0.0)
        others = np.delete(state.damage, column, axis=1)
        assert np.all(others == 2.0**-13)

    def test_reset_unknown_structure_rejected(self):
        with pytest.raises(LifetimeError):
            WearState.fresh().reset_structure("flux_capacitor")

    def test_binding_cell_and_peak(self):
        damage = np.zeros(SHAPE)
        damage[1, 3] = 0.7
        state = WearState(damage)
        mech, struct, worst = state.binding_cell()
        assert mech == MECHANISM_NAMES[1]
        assert struct == STRUCTURE_NAMES[3]
        # The stored 0.7 is read back, not recomputed, so == is exact.
        assert worst == 0.7  # repro: ignore[RPR004] stored value read back
        assert state.peak == 0.7  # repro: ignore[RPR004] stored value read back
        assert state.failed(threshold=0.5)
        assert not state.failed(threshold=0.9)

    def test_axis_sums_in_canonical_order(self):
        state = WearState.fresh()
        state.accrue(uniform_rates(1e-6), 10.0)
        by_struct = state.by_structure()
        by_mech = state.by_mechanism()
        assert tuple(by_struct) == tuple(STRUCTURE_NAMES)
        assert tuple(by_mech) == MECHANISM_NAMES
        assert sum(by_struct.values()) == pytest.approx(state.total)
        assert sum(by_mech.values()) == pytest.approx(state.total)

    def test_copy_is_independent(self):
        state = WearState.fresh()
        state.accrue(uniform_rates(), 10.0)
        clone = state.copy()
        clone.accrue(uniform_rates(), 10.0)
        assert state.epochs == 1
        assert clone.epochs == 2
        assert clone.total > state.total

    def test_payload_roundtrip_is_bitwise(self):
        state = WearState.fresh()
        rng = np.random.default_rng(5)
        for _ in range(7):
            state.accrue(rng.uniform(0.0, 1e-5, SHAPE), rng.uniform(1.0, 500.0))
        restored = WearState.from_payload(state.as_payload())
        assert np.array_equal(restored.damage, state.damage)
        assert restored.hours == state.hours
        assert restored.epochs == state.epochs

    def test_payload_survives_json(self):
        import json

        state = WearState.fresh()
        state.accrue(uniform_rates(1.0 / 3.0e9), 7.0 / 3.0)
        wire = json.loads(json.dumps(state.as_payload()))
        restored = WearState.from_payload(wire)
        assert np.array_equal(restored.damage, state.damage)

    def test_from_payload_rejects_wrong_axes(self):
        payload = WearState.fresh().as_payload()
        payload["structures"] = list(reversed(payload["structures"]))
        with pytest.raises(LifetimeError):
            WearState.from_payload(payload)

    def test_from_payload_rejects_malformed(self):
        with pytest.raises(LifetimeError):
            WearState.from_payload({"damage": [[1.0]]})

    def test_constructor_validation(self):
        with pytest.raises(LifetimeError):
            WearState(np.zeros((2, 2)))
        bad = np.zeros(SHAPE)
        bad[0, 0] = -1.0
        with pytest.raises(LifetimeError):
            WearState(bad)
        with pytest.raises(LifetimeError):
            WearState(hours=-1.0)


class TestAccrueKernel:
    def test_pure_fold(self):
        damage = np.zeros(SHAPE)
        out = accrue(damage, uniform_rates(2.0**-20), 8.0)
        assert out is not damage
        assert np.all(damage == 0.0)  # repro: ignore[RPR004] input left as literal zeros
        assert np.all(out == 2.0**-17)

    def test_rejects_negative_rates(self):
        rates = uniform_rates()
        rates[0, 0] = -1e-9
        with pytest.raises(ReliabilityError):
            accrue(np.zeros(SHAPE), rates, 1.0)

    def test_rejects_nonfinite_rates(self):
        rates = uniform_rates()
        rates[1, 1] = np.inf
        with pytest.raises(ReliabilityError):
            accrue(np.zeros(SHAPE), rates, 1.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ReliabilityError):
            accrue(np.zeros(SHAPE), np.zeros((SHAPE[0], SHAPE[1] + 1)), 1.0)

    def test_rejects_bad_hours(self):
        with pytest.raises(ReliabilityError):
            accrue(np.zeros(SHAPE), uniform_rates(), -1.0)
        with pytest.raises(ReliabilityError):
            accrue(np.zeros(SHAPE), uniform_rates(), float("nan"))
