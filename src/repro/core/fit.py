"""FIT accounting and the sum-of-failure-rates (SOFR) model, Section 3.5.

Industry combines per-component, per-mechanism failure rates under two
assumptions: (1) the processor is a series failure system (the first
failing structure kills the chip); (2) each mechanism has a constant
failure rate (exponential lifetimes).  Then the processor failure rate
is the plain sum of the per-structure per-mechanism rates, and
MTTF = 1/λ_total.  The paper's extension — also used here — is averaging
instantaneous FIT values over time with the same underlying assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import fit_to_mttf_hours, fit_to_mttf_years
from repro.errors import ReliabilityError


@dataclass(frozen=True)
class FitAccount:
    """A per-(structure, mechanism) FIT ledger.

    Attributes:
        entries: FIT value keyed by (mechanism name, structure name).
    """

    entries: dict[tuple[str, str], float]

    def __post_init__(self) -> None:
        bad = {k: v for k, v in self.entries.items() if v < 0.0}
        if bad:
            raise ReliabilityError(f"negative FIT entries: {bad}")

    @property
    def total(self) -> float:
        """The SOFR processor FIT: sum over structures and mechanisms."""
        return sum(self.entries.values())

    def by_mechanism(self) -> dict[str, float]:
        """FIT aggregated per failure mechanism."""
        out: dict[str, float] = {}
        for (mech, _), fit in self.entries.items():
            out[mech] = out.get(mech, 0.0) + fit
        return out

    def by_structure(self) -> dict[str, float]:
        """FIT aggregated per structure."""
        out: dict[str, float] = {}
        for (_, struct), fit in self.entries.items():
            out[struct] = out.get(struct, 0.0) + fit
        return out

    def dominant_mechanism(self) -> str:
        """The mechanism contributing the most FIT."""
        per_mech = self.by_mechanism()
        if not per_mech:
            raise ReliabilityError("empty FIT account")
        return max(per_mech, key=per_mech.get)

    def mttf_hours(self) -> float:
        """Processor MTTF implied by the SOFR total."""
        return fit_to_mttf_hours(self.total)

    def mttf_years(self) -> float:
        """Processor MTTF in years."""
        return fit_to_mttf_years(self.total)


def time_averaged_fit(
    fit_cps: np.ndarray, weights_cp: np.ndarray
) -> np.ndarray:
    """Time-weighted average of one mechanism's instantaneous FIT
    (Section 3.6).

    Args:
        fit_cps: instantaneous FIT, ``(candidates, phases, structures)``.
        weights_cp: interval time weights, ``(candidates, phases)``.

    Returns:
        Time-averaged FIT per candidate and structure,
        ``(candidates, structures)``.

    Raises:
        ReliabilityError: if any candidate's weights do not sum to a
            positive value.
    """
    total_w = weights_cp.sum(axis=1)
    if not np.all(total_w > 0.0):
        raise ReliabilityError("weights must sum to a positive value")
    w_norm = weights_cp / total_w[:, None]
    return (fit_cps * w_norm[:, :, None]).sum(axis=1)


def sofr_total_fit(fits: list[float]) -> float:
    """Sum-of-failure-rates combination of independent FIT values.

    Raises:
        ReliabilityError: on negative inputs.
    """
    if any(f < 0.0 for f in fits):
        raise ReliabilityError("FIT values must be non-negative")
    return float(sum(fits))
