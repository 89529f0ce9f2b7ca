"""Physical constants and unit conversions used throughout the library.

Every quantity in this package uses SI-ish engineering units that match the
RAMP paper's conventions:

- temperature: kelvin
- voltage: volts
- frequency: hertz (configuration tables often speak in GHz; convert at the
  boundary)
- power: watts
- area: square millimetres (floorplans and leakage densities are quoted in
  mm^2 in the paper)
- reliability: FIT (failures per 10^9 device-hours) or MTTF in hours
"""

from __future__ import annotations

#: Boltzmann constant in electron-volts per kelvin. The activation energies
#: in the failure models (0.9 eV for electromigration and stress migration,
#: the Wu et al. TDDB fit) are quoted in eV, so k must match.
BOLTZMANN_EV_PER_K = 8.617333262e-5

#: Hours in a (Julian) year, used for MTTF-in-years conversions.
HOURS_PER_YEAR = 8760.0

#: Device-hours per FIT unit: one FIT is one failure per 1e9 device-hours.
FIT_DEVICE_HOURS = 1.0e9

#: Absolute-zero guard: no model in this package is meaningful below this.
MIN_TEMPERATURE_K = 200.0

#: Upper sanity bound for silicon junction temperatures (melting is far
#: higher, but nothing in a working processor should exceed this).
MAX_TEMPERATURE_K = 500.0

#: Ambient air temperature inside the case, assumed by the thermal model
#: (45 C, the HotSpot default).
AMBIENT_TEMPERATURE_K = 318.15

#: Cold end of the large thermal cycles modelled by the Coffin-Manson
#: fatigue mechanism: the powered-off (room-temperature) state the package
#: returns to when the machine powers down or enters standby.
CYCLE_COLD_TEMPERATURE_K = 300.0

#: The paper's reliability qualification target: processors are expected to
#: have an MTTF of around 30 years, i.e. a total failure rate of ~4000 FIT.
TARGET_FIT = 4000.0

#: Black's-equation current-density exponent n for the copper
#: interconnects modelled (Section 3.1; JEDEC JEP122-A via the paper).
EM_CURRENT_DENSITY_EXPONENT = 1.1

#: Electromigration activation energy Ea in eV for copper (Section 3.1).
EM_ACTIVATION_ENERGY_EV = 0.9

#: Stress-migration temperature exponent m for sputtered copper
#: (Section 3.2).
SM_STRESS_EXPONENT = 2.5

#: Stress-migration activation energy Ea in eV (Section 3.2; equal to
#: the electromigration value for the modelled copper, but kept as its
#: own name because the mechanisms are qualified independently).
SM_ACTIVATION_ENERGY_EV = 0.9

#: Coffin-Manson exponent q for the package (thermal cycling,
#: Section 3.4).
TC_COFFIN_MANSON_EXPONENT = 2.35

#: Number of intrinsic failure mechanisms modelled by RAMP.  The FIT budget
#: is split evenly across them during qualification.
N_FAILURE_MECHANISMS = 4

#: Declared physical envelopes that seed the interval-domain analyzer
#: (RPR301/RPR303): a parameter named by the unit-suffix convention
#: enters the pass at its unit's envelope.  Keys are either unit names
#: from the analyzer's lattice (``repro.analysis.unitsig``: "K", "V",
#: "FIT", ...) or bare name tokens for quantities the lattice treats as
#: dimensionless ("probability", "activity").
#: Values are ``[lo, hi]`` (inclusive) or ``[lo, hi, True]`` where the
#: third element marks the lower bound as *strict* (durations and
#: areas are positive, never zero).  ``None`` means unbounded.  Bounds
#: may reference the module-level constants above by name; the
#: analyzer resolves them from this file's AST without importing it.
PHYSICAL_RANGES: dict[str, list] = {
    # Temperatures: the same plausibility envelope validate_temperature
    # enforces at runtime, in both absolute scales.
    "K": [MIN_TEMPERATURE_K, MAX_TEMPERATURE_K],
    "degC": [-73.15, 226.85],
    # Qualified electrical envelopes: DVS never leaves [0.5, 1.6] V and
    # the clock stays between 1 MHz (deep scaling) and 10 GHz.
    "V": [0.5, 1.6],
    "mV": [500.0, 1600.0],
    "Hz": [1.0e6, 1.0e10],
    "kHz": [1.0e3, 1.0e7],
    "MHz": [1.0, 1.0e4],
    "GHz": [1.0e-3, 10.0],
    # Reliability: failure rates and powers are non-negative; activation
    # energies sit well under 10 eV for any silicon mechanism.
    "FIT": [0.0, None],
    "W": [0.0, None],
    "mW": [0.0, None],
    "J": [0.0, None],
    "eV": [0.0, 10.0],
    # Durations and areas are strictly positive (third element: the
    # lower bound is open, so dividing by one is provably safe).
    "hours": [0.0, None, True],
    "years": [0.0, None, True],
    "s": [0.0, None, True],
    "ms": [0.0, None, True],
    "mm2": [0.0, None, True],
    "m2": [0.0, None, True],
    "um2": [0.0, None, True],
    # Name-token envelopes for dimensionless quantities.
    "probability": [0.0, 1.0],
    "activity": [0.0, 1.0],
    "fraction": [0.0, 1.0],
}


def mttf_hours_to_fit(mttf_hours: float) -> float:
    """Convert a mean-time-to-failure in hours to a FIT value.

    FIT is the expected number of failures per 1e9 device-hours, so under
    the constant-failure-rate (exponential lifetime) assumption used by the
    SOFR model, ``FIT = 1e9 / MTTF``.

    Raises:
        ValueError: if ``mttf_hours`` is not strictly positive.
    """
    if mttf_hours <= 0.0:
        raise ValueError(f"MTTF must be positive, got {mttf_hours!r}")
    return FIT_DEVICE_HOURS / mttf_hours


def fit_to_mttf_hours(fit: float) -> float:
    """Convert a FIT value to a mean-time-to-failure in hours.

    Raises:
        ValueError: if ``fit`` is not strictly positive.
    """
    if fit <= 0.0:
        raise ValueError(f"FIT must be positive, got {fit!r}")
    return FIT_DEVICE_HOURS / fit


def mttf_years_to_fit(mttf_years: float) -> float:
    """Convert an MTTF in years to FIT (30 years ~ 3805 FIT)."""
    return mttf_hours_to_fit(mttf_years * HOURS_PER_YEAR)


def fit_to_mttf_years(fit: float) -> float:
    """Convert a FIT value to an MTTF in years."""
    return fit_to_mttf_hours(fit) / HOURS_PER_YEAR


def celsius_to_kelvin(celsius: float) -> float:
    """Convert a temperature from degrees Celsius to kelvin."""
    return celsius + 273.15


def kelvin_to_celsius(kelvin: float) -> float:
    """Convert a temperature from kelvin to degrees Celsius."""
    return kelvin - 273.15


def validate_temperature(kelvin: float, *, what: str = "temperature") -> float:
    """Check a temperature is physically plausible and return it.

    Raises:
        ValueError: if ``kelvin`` falls outside
            [``MIN_TEMPERATURE_K``, ``MAX_TEMPERATURE_K``].
    """
    if not MIN_TEMPERATURE_K <= kelvin <= MAX_TEMPERATURE_K:
        raise ValueError(
            f"{what} {kelvin!r} K outside plausible range "
            f"[{MIN_TEMPERATURE_K}, {MAX_TEMPERATURE_K}]"
        )
    return kelvin
