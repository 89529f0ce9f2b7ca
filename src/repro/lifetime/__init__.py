"""repro.lifetime — cumulative-damage lifetime simulation.

The paper's SOFR algebra (and :mod:`repro.core.ramp`) reduces a run to
one time-averaged FIT number.  This package models lifetime as a
*trajectory* instead:

- :mod:`repro.lifetime.damage` — per-(mechanism, structure) Miner's-rule
  wear state with bitwise JSON round-tripping;
- :mod:`repro.lifetime.simulator` — integrates
  :class:`~repro.workloads.generator.MissionSchedule` histories through
  the batch kernel's vectorized FIT fields, closed-loop against the
  wear-aware degradation ladder, checkpointed into the telemetry stream
  with SIGKILL-resume bit-identity;
- :mod:`repro.lifetime.adversary` — seeded random/greedy/annealed search
  for wear-maximizing schedules the controller must survive;
- :mod:`repro.lifetime.distributions` — the static lifetime
  distributions and Monte Carlo series-system solver.

Quickstart::

    sim = LifetimeSimulator(platform=platform, cache=cache, ramp=ramp,
                            telemetry_root="telemetry/")
    schedule = random_mission(apps=["gzip", "twolf"],
                              frequencies=[3.0e9, 4.0e9],
                              n_epochs=365, epoch_hours=24.0, seed=7)
    result = sim.simulate(schedule, controller=WearAwareController(...))
    print(result.state.by_structure(), result.end_of_life)

See ``docs/LIFETIME.md`` for the damage models, the controller ladder,
the adversary search, and the checkpoint format.
"""

from repro.lifetime.damage import MECHANISM_NAMES, DamageModel, WearState
from repro.lifetime.distributions import (
    ExponentialLifetime,
    LifetimeDistribution,
    LognormalLifetime,
    SeriesSystemResult,
    WeibullLifetime,
    component_mttfs_from_account,
    series_system_mttf,
    sofr_series_mttf,
)

# The simulator and adversary import ``repro.core.controllers``, which
# imports ``repro.core.redundancy``, which imports
# ``repro.lifetime.distributions`` — and so runs this package first.
# Loading them eagerly here would close that cycle, so they load lazily
# (PEP 562).
_LAZY = {
    "AdversaryResult": "repro.lifetime.adversary",
    "AdversarySearch": "repro.lifetime.adversary",
    "OBJECTIVES": "repro.lifetime.adversary",
    "LifetimeResult": "repro.lifetime.simulator",
    "LifetimeSimulator": "repro.lifetime.simulator",
    "MAX_LADDER_RUNGS": "repro.lifetime.simulator",
    "RateTable": "repro.lifetime.simulator",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))

__all__ = [
    "AdversaryResult",
    "AdversarySearch",
    "DamageModel",
    "ExponentialLifetime",
    "LifetimeDistribution",
    "LifetimeResult",
    "LifetimeSimulator",
    "LognormalLifetime",
    "MAX_LADDER_RUNGS",
    "MECHANISM_NAMES",
    "OBJECTIVES",
    "RateTable",
    "SeriesSystemResult",
    "WeibullLifetime",
    "WearState",
    "component_mttfs_from_account",
    "series_system_mttf",
    "sofr_series_mttf",
]
