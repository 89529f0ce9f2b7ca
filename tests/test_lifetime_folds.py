"""Golden digests and bitwise properties of the lifetime fold.

``tests/golden/lifetime_folds.json`` pins, at a tiny simulation budget:

- ``open_loop``: six seeded open-loop folds over grid and off-grid
  frequencies, three of them continued from a non-fresh state;
- ``closed_loop``: one closed-loop ``simulate`` under the wear-aware
  controller, checkpointing every 4 epochs (its digest also covers the
  sheds, swaps and end-of-life flag);
- ``adversary``: the best schedule's ``digest()`` of two seeded
  ``AdversarySearch.search`` runs.

Each wear digest is the SHA-256 of the canonical JSON of
``WearState.as_payload()`` (floats serialise exactly via ``repr``).  An
intended change to lifetime output regenerates the file with::

    PYTHONPATH=src python tests/test_lifetime_folds.py

The other tests pin what keeps those outputs exact: a stacked fold is
bitwise the epoch-by-epoch fold around the chunk size, an invalid epoch
anywhere in a stack raises and leaves the state untouched, and a
closed-loop run hashes its schedule once.
"""

from __future__ import annotations

import copy
import hashlib
import json
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.config.dvs import DEFAULT_VF_CURVE
from repro.config.technology import STRUCTURE_NAMES
from repro.core.controllers import WearAwareController
from repro.core.drm import DRMOracle
from repro.core.redundancy import RedundancyPlan
from repro.errors import ReliabilityError
from repro.harness.platform import Platform
from repro.harness.sweep import SimulationCache
from repro.kernels.wear import accrue
from repro.lifetime import AdversarySearch, LifetimeSimulator, WearState
from repro.lifetime.damage import MECHANISM_NAMES
from repro.lifetime.simulator import FOLD_CHUNK_EPOCHS
from repro.workloads import generator
from repro.workloads.generator import MissionEpoch, MissionSchedule
from repro.workloads.suite import workload_by_name

GOLDEN = Path(__file__).resolve().parent / "golden" / "lifetime_folds.json"

INSTRUCTIONS = 3_000
WARMUP = 500
SEED = 7
T_QUAL_K = 380.0
APPS = ("MPGdec", "gzip", "art")
GRID_HZ = tuple(op.frequency_hz for op in DEFAULT_VF_CURVE.grid(11))
OFF_GRID_HZ = (3.31e9, 4.04e9, 4.77e9, 2.2e9, 6.1e9)
HOURS = (24.0, 7.25, 168.0, 0.5, 1000.0)
SHAPE = (len(MECHANISM_NAMES), len(STRUCTURE_NAMES))


def digest(payload) -> str:
    """SHA-256 of canonical JSON (floats serialise exactly via repr)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def schedule(seed: int, n_epochs: int, frequencies) -> MissionSchedule:
    """A seeded schedule drawing app, frequency and hours per epoch."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF01D]))
    return MissionSchedule(
        tuple(
            MissionEpoch(
                APPS[int(rng.integers(len(APPS)))],
                float(frequencies[int(rng.integers(len(frequencies)))]),
                HOURS[int(rng.integers(len(HOURS)))],
            )
            for _ in range(n_epochs)
        )
    )


def make_simulator(**kwargs) -> LifetimeSimulator:
    cache = SimulationCache(instructions=INSTRUCTIONS, warmup=WARMUP, seed=SEED)
    platform = Platform()
    oracle = DRMOracle(
        platform=platform,
        cache=cache,
        dvs_steps=11,
        suite=tuple(workload_by_name(app) for app in APPS),
    )
    return LifetimeSimulator(
        platform=platform, cache=cache, ramp=oracle.ramp_for(T_QUAL_K), **kwargs
    )


def open_loop_digests(simulator: LifetimeSimulator) -> dict[str, str]:
    fold = simulator.open_loop
    grid = fold(schedule(1, 700, GRID_HZ))
    off_grid = fold(schedule(2, 1100, OFF_GRID_HZ))
    mixed = fold(schedule(3, 300, GRID_HZ + OFF_GRID_HZ))
    continued = fold(schedule(4, 513, GRID_HZ), state=fold(schedule(5, 200, GRID_HZ)))
    restored = fold(
        schedule(6, 1025, OFF_GRID_HZ),
        state=WearState.from_payload(off_grid.as_payload()),
    )
    single = fold(schedule(8, 1, OFF_GRID_HZ), state=mixed.copy())
    states = {
        "grid_700": grid,
        "off_grid_1100": off_grid,
        "mixed_300": mixed,
        "continued_200_513": continued,
        "restored_1100_1025": restored,
        "single_after_300": single,
    }
    return {name: digest(state.as_payload()) for name, state in states.items()}


def closed_loop_digest(simulator: LifetimeSimulator) -> str:
    """A mission whose ladder sheds the integer ALUs twice and swaps
    three cold spares, so every rung that changes the config runs."""
    controller = WearAwareController(
        simulator.platform,
        simulator.ramp,
        shed_threshold=0.005,
        fail_threshold=1.0,
        redundancy_plan=RedundancyPlan.for_structures(("l1d", "window", "fpu")),
    )
    result = simulator.simulate(
        schedule(9, 150, GRID_HZ + OFF_GRID_HZ), controller=controller
    )
    return digest(
        {
            "wear": result.state.as_payload(),
            "sheds": list(result.sheds),
            "swaps": list(result.swaps),
            "end_of_life": result.end_of_life,
        }
    )


def adversary_digests(simulator: LifetimeSimulator) -> dict[str, str]:
    out = {}
    for seed, objective in ((11, "total"), (12, "peak")):
        search = AdversarySearch(
            simulator,
            apps=APPS,
            frequencies=GRID_HZ[::2],
            n_epochs=24,
            epoch_hours=24.0,
            seed=seed,
            objective=objective,
        )
        found = search.search(n_random=6, greedy_passes=0, anneal_steps=60)
        out[f"{objective}_seed{seed}"] = found.best_schedule.digest()
    return out


def golden_payload(telemetry_root) -> dict:
    simulator = make_simulator(checkpoint_every=4, telemetry_root=telemetry_root)
    return {
        "budget": [INSTRUCTIONS, WARMUP, SEED],
        "open_loop": open_loop_digests(simulator),
        "closed_loop": closed_loop_digest(simulator),
        "adversary": adversary_digests(simulator),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def simulator() -> LifetimeSimulator:
    return make_simulator()


def test_lifetime_outputs_match_golden(golden, tmp_path):
    assert golden["budget"] == [INSTRUCTIONS, WARMUP, SEED]
    assert len(golden["open_loop"]) == 6
    assert golden_payload(tmp_path) == golden


@pytest.mark.parametrize(
    "n_epochs", [FOLD_CHUNK_EPOCHS - 1, FOLD_CHUNK_EPOCHS, FOLD_CHUNK_EPOCHS + 1]
)
class TestStackedFold:
    def test_stacked_kernel_equals_single_epoch_folds(self, n_epochs):
        rng = np.random.default_rng(n_epochs)
        rates = rng.uniform(0.0, 1e-5, (n_epochs,) + SHAPE)
        hours = rng.uniform(0.1, 500.0, n_epochs).tolist()
        start = rng.uniform(0.0, 0.1, SHAPE)
        stepped = start
        for epoch_rates, epoch_hours in zip(rates, hours):
            stepped = accrue(stepped, epoch_rates, epoch_hours)
        assert np.array_equal(accrue(start, rates, hours), stepped)

    def test_open_loop_equals_single_epoch_accrues(self, simulator, n_epochs):
        mission = schedule(n_epochs, n_epochs, GRID_HZ + OFF_GRID_HZ)
        start = simulator.open_loop(schedule(99, 3, GRID_HZ))
        folded = simulator.open_loop(mission, state=start.copy())
        stepped = start.copy()
        for epoch in mission.epochs:
            stepped.accrue(
                simulator.rate_table.rates_for(
                    epoch.app, simulator.base_config, epoch.frequency_hz
                ),
                epoch.hours,
            )
        assert folded.as_payload() == stepped.as_payload()


class TestInvalidEpochs:
    @pytest.mark.parametrize(
        "bad_hours, message",
        [(-1.0, "got -1.0"), (float("nan"), "got nan"), (float("inf"), "got inf")],
    )
    def test_bad_hours_mid_schedule(self, bad_hours, message):
        state = WearState(np.full(SHAPE, 0.25), hours=10.0, epochs=2)
        before = state.as_payload()
        hours = [24.0] * 9
        hours[4] = bad_hours
        with pytest.raises(ReliabilityError, match=f"finite and >= 0, {message}$"):
            state.fold(np.full((9,) + SHAPE, 1e-6), hours)
        assert state.as_payload() == before

    @pytest.mark.parametrize("bad_rate", [-1e-9, float("nan"), float("inf")])
    def test_bad_rate_mid_schedule(self, bad_rate):
        state = WearState(np.full(SHAPE, 0.25), hours=10.0, epochs=2)
        before = state.as_payload()
        rates = np.full((9,) + SHAPE, 1e-6)
        rates[5, 1, 2] = bad_rate
        with pytest.raises(
            ReliabilityError, match="^wear rates must be finite and non-negative$"
        ):
            state.fold(rates, [24.0] * 9)
        assert state.as_payload() == before

    def test_first_bad_epoch_decides_the_message(self):
        rates = np.full((4,) + SHAPE, 1e-6)
        rates[1, 0, 0] = -1.0
        with pytest.raises(ReliabilityError, match="^wear rates"):
            accrue(np.zeros(SHAPE), rates, [1.0, 1.0, -2.0, 1.0])
        with pytest.raises(ReliabilityError, match="got -2.0$"):
            accrue(np.zeros(SHAPE), rates[2:], [-2.0, 1.0])

    def test_bad_rate_in_open_loop_leaves_state_untouched(self, simulator):
        mission = schedule(21, 40, GRID_HZ)
        poisoned = copy.copy(simulator)
        poisoned.rate_table = copy.copy(simulator.rate_table)
        real = poisoned.rate_table.rates_for
        victim = mission.epochs[17]

        def rates_for(app, config, frequency_hz):
            rates = real(app, config, frequency_hz)
            if (app, frequency_hz) == (victim.app, victim.frequency_hz):
                rates = rates.copy()
                rates[0, 0] = -1.0
            return rates

        poisoned.rate_table.rates_for = rates_for
        state = simulator.open_loop(schedule(22, 5, GRID_HZ))
        before = state.as_payload()
        with pytest.raises(ReliabilityError, match="^wear rates"):
            poisoned.open_loop(mission, state=state)
        assert state.as_payload() == before


def test_closed_loop_hashes_its_schedule_once(simulator, monkeypatch, tmp_path):
    """Spec, resume lookup, every checkpoint and the done record share
    one digest of the immutable schedule."""
    calls = []

    def sha256(blob):
        calls.append(len(blob))
        return hashlib.sha256(blob)

    monkeypatch.setattr(generator, "hashlib", SimpleNamespace(sha256=sha256))
    checkpointing = make_simulator(checkpoint_every=1, telemetry_root=tmp_path)
    mission = schedule(31, 12, GRID_HZ)
    result = checkpointing.simulate(
        mission,
        controller=WearAwareController(checkpointing.platform, checkpointing.ramp),
        resume=True,
    )
    assert result.epochs_run == 12
    assert len(calls) == 1
    assert checkpointing.run_id_for(mission) == result.run_id
    assert len(calls) == 1


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        payload = golden_payload(root)
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
