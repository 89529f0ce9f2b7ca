"""Shared fixtures.

Cycle-level simulation is the expensive part of this stack, so the
fixtures that need simulated runs are session-scoped and use reduced
instruction budgets — large enough for stable statistics, small enough
that the whole suite stays fast.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config.dvs import DEFAULT_VF_CURVE
from repro.config.microarch import BASE_MICROARCH
from repro.config.technology import STRUCTURE_NAMES
from repro.core.drm import DRMOracle
from repro.core.dtm import DTMOracle
from repro.cpu.simulator import CycleSimulator
from repro.harness.platform import Platform
from repro.harness.sweep import SimulationCache
from repro.workloads.suite import workload_by_name

#: Reduced budgets for tests (the library defaults are 24k/4k).
TEST_INSTRUCTIONS = 4_000
TEST_WARMUP = 1_000


@pytest.fixture(scope="session")
def test_cache() -> SimulationCache:
    """A shared simulation cache with small budgets."""
    return SimulationCache(instructions=TEST_INSTRUCTIONS, warmup=TEST_WARMUP, seed=7)


@pytest.fixture(scope="session")
def platform() -> Platform:
    """The default power/thermal platform."""
    return Platform()


@pytest.fixture(scope="session")
def mpgdec_run(test_cache):
    """A hot, high-IPC workload run on the base machine."""
    return test_cache.run(workload_by_name("MPGdec"), BASE_MICROARCH)


@pytest.fixture(scope="session")
def twolf_run(test_cache):
    """A cool, low-IPC workload run on the base machine."""
    return test_cache.run(workload_by_name("twolf"), BASE_MICROARCH)


@pytest.fixture(scope="session")
def mpgdec_eval(platform, mpgdec_run):
    """Platform evaluation of MPGdec at the nominal operating point."""
    return platform.evaluate(mpgdec_run, DEFAULT_VF_CURVE.nominal)


@pytest.fixture(scope="session")
def twolf_eval(platform, twolf_run):
    """Platform evaluation of twolf at the nominal operating point."""
    return platform.evaluate(twolf_run, DEFAULT_VF_CURVE.nominal)


@pytest.fixture(scope="session")
def oracle(platform, test_cache) -> DRMOracle:
    """A DRM oracle with a coarse DVS grid for fast sweeps."""
    return DRMOracle(platform=platform, cache=test_cache, dvs_steps=11)


@pytest.fixture(scope="session")
def dtm_oracle(platform, test_cache) -> DTMOracle:
    """A DTM oracle sharing the DRM oracle's platform and cache."""
    return DTMOracle(platform=platform, cache=test_cache, dvs_steps=11)


@pytest.fixture(scope="session")
def lifetime_ramp(oracle):
    """A qualified RAMP model shared by the lifetime-simulation tests."""
    return oracle.ramp_for(380.0)


@pytest.fixture(scope="session")
def serve_config():
    """Reduced-budget decision-service config shared by the serve tests.

    Small grids and a two-app qualification suite (one integer app, one
    FP app so every failure mechanism has activity to act on) keep the
    oracle searches fast while exercising all four decision kinds.
    """
    from repro.serve import ServiceConfig

    return ServiceConfig(
        dvs_steps=5,
        intra_grid_steps=3,
        instructions=TEST_INSTRUCTIONS,
        warmup=TEST_WARMUP,
        sim_seed=7,
        qual_apps=("gzip", "art"),
        max_batch=16,
        max_delay_s=0.002,
        workers=2,
    )


@pytest.fixture(scope="session")
def serve_service(serve_config):
    """One shared decision service (its caches amortise across tests)."""
    from repro.serve import DecisionService

    service = DecisionService(serve_config)
    yield service
    service.executor.shutdown(wait=False)


@pytest.fixture(scope="session")
def quick_simulator() -> CycleSimulator:
    """A small-budget simulator for direct runs."""
    return CycleSimulator(instructions=TEST_INSTRUCTIONS, warmup=TEST_WARMUP, seed=7)


def uniform_activity(value: float = 0.5) -> dict[str, float]:
    """Per-structure activity dict with one value everywhere."""
    return {name: value for name in STRUCTURE_NAMES}


def uniform_temps(value: float = 360.0) -> dict[str, float]:
    """Per-structure temperature dict with one value everywhere."""
    return {name: value for name in STRUCTURE_NAMES}


def power_breakdown(power_model, activity, config, op, temperatures):
    """A :class:`~repro.power.model.PowerBreakdown` from the models' array
    forms, for per-structure ``activity`` and ``temperatures`` dicts."""
    from repro.power.model import PowerBreakdown

    tech = power_model.technology
    v_ratio = op.voltage_v / tech.vdd_nominal_v
    f_ratio = op.frequency_hz / tech.frequency_nominal_hz
    pf = np.array([config.powered_fraction(n) for n in STRUCTURE_NAMES])
    dynamic = power_model.dynamic.power_w(
        np.array([activity[n] for n in STRUCTURE_NAMES]), v_ratio, f_ratio, pf
    )
    leakage = power_model.leakage.power_w(
        np.array([temperatures[n] for n in STRUCTURE_NAMES]), pf, v_ratio
    )
    return PowerBreakdown(
        dynamic=dict(zip(STRUCTURE_NAMES, dynamic.tolist())),
        leakage=dict(zip(STRUCTURE_NAMES, leakage.tolist())),
    )
