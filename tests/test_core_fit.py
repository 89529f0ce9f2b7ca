"""Tests for FIT accounting and the SOFR model."""

import numpy as np
import pytest

from repro.core.fit import FitAccount, sofr_total_fit, time_averaged_fit
from repro.errors import ReliabilityError


def account(em=100.0, sm=50.0):
    return FitAccount({
        ("EM", "fpu"): em,
        ("EM", "ialu"): em / 2,
        ("SM", "fpu"): sm,
        ("SM", "ialu"): sm / 2,
    })


class TestSofr:
    def test_total_is_plain_sum(self):
        assert account().total == pytest.approx(100 + 50 + 50 + 25)

    def test_sofr_total_fit_helper(self):
        assert sofr_total_fit([1.0, 2.0, 3.0]) == pytest.approx(6.0)

    def test_sofr_rejects_negative(self):
        with pytest.raises(ReliabilityError):
            sofr_total_fit([1.0, -2.0])

    def test_by_mechanism(self):
        by_mech = account().by_mechanism()
        assert by_mech["EM"] == pytest.approx(150.0)
        assert by_mech["SM"] == pytest.approx(75.0)

    def test_by_structure(self):
        by_struct = account().by_structure()
        assert by_struct["fpu"] == pytest.approx(150.0)
        assert by_struct["ialu"] == pytest.approx(75.0)

    def test_dominant_mechanism(self):
        assert account().dominant_mechanism() == "EM"

    def test_negative_entries_rejected(self):
        with pytest.raises(ReliabilityError):
            FitAccount({("EM", "fpu"): -1.0})

    def test_mttf_inverse_of_total(self):
        a = FitAccount({("EM", "fpu"): 4000.0})
        assert a.mttf_hours() == pytest.approx(1e9 / 4000.0)
        assert a.mttf_years() == pytest.approx(1e9 / 4000.0 / 8760.0)

    def test_empty_dominant_raises(self):
        with pytest.raises(ReliabilityError):
            FitAccount({}).dominant_mechanism()


def averaged(fits, weights):
    """:func:`time_averaged_fit` of one candidate and one structure."""
    fit_cps = np.array(fits, dtype=float).reshape(1, -1, 1)
    return float(time_averaged_fit(fit_cps, np.array([weights], dtype=float))[0, 0])


class TestTimeAveraging:
    def test_time_weighted_mean(self):
        assert averaged([100.0, 300.0], [0.75, 0.25]) == pytest.approx(150.0)

    def test_weights_normalised(self):
        assert averaged([100.0, 200.0], [2.0, 2.0]) == pytest.approx(150.0)

    def test_single_account_identity(self):
        fit_cps = np.array([[[100.0, 50.0, 50.0, 25.0]]])
        assert np.array_equal(time_averaged_fit(fit_cps, np.array([[1.0]])), fit_cps[:, 0])

    def test_average_between_extremes(self):
        assert 10.0 < averaged([10.0, 90.0], [0.5, 0.5]) < 90.0

    def test_empty_list_rejected(self):
        with pytest.raises(ReliabilityError):
            time_averaged_fit(np.zeros((1, 0, 1)), np.zeros((1, 0)))

    def test_zero_weights_rejected(self):
        with pytest.raises(ReliabilityError):
            averaged([1.0], [0.0])
