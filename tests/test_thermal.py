"""Tests for the HotSpot-style thermal substrate."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.config.dvs import DEFAULT_VF_CURVE
from repro.config.technology import STRUCTURE_NAMES
from repro.constants import AMBIENT_TEMPERATURE_K
from repro.errors import ThermalError
from repro.thermal.floorplan import Block, Floorplan, build_default_floorplan
from repro.thermal.rc_network import ThermalParameters, ThermalRCNetwork
from repro.thermal.solver import SteadyStateSolver, TransientSolver


@pytest.fixture(scope="module")
def floorplan():
    return build_default_floorplan()


@pytest.fixture(scope="module")
def network(floorplan):
    return ThermalRCNetwork(floorplan)


@pytest.fixture(scope="module")
def solver(network):
    return SteadyStateSolver(network)


def uniform_power(watts_total: float) -> dict[str, float]:
    per = watts_total / len(STRUCTURE_NAMES)
    return {name: per for name in STRUCTURE_NAMES}


def twin_phase_run(run, instructions):
    """A run whose phases all repeat ``run``'s first phase, with the
    given instruction counts, so only the schedule tells them apart."""
    stats = run.phases[0].stats
    return SimpleNamespace(
        profile=run.profile,
        config=run.config,
        phases=tuple(
            SimpleNamespace(
                phase=run.phases[0].phase,
                stats=SimpleNamespace(
                    cpi_core=stats.cpi_core,
                    cpi_mem=stats.cpi_mem,
                    instructions=n,
                    activity=stats.activity,
                ),
            )
            for n in instructions
        ),
    )


class TestFloorplan:
    def test_all_structures_placed(self, floorplan):
        assert {b.name for b in floorplan} == set(STRUCTURE_NAMES)

    def test_blocks_inside_die(self, floorplan):
        for b in floorplan:
            assert b.x >= -1e-9 and b.y >= -1e-9
            assert b.x + b.width <= floorplan.die_width_mm + 1e-9
            assert b.y + b.height <= floorplan.die_height_mm + 1e-9

    def test_areas_tile_the_die(self, floorplan):
        total = sum(b.area_mm2 for b in floorplan)
        die = floorplan.die_width_mm * floorplan.die_height_mm
        assert total == pytest.approx(die, rel=1e-6)

    def test_areas_proportional_to_specs(self, floorplan):
        from repro.config.technology import structure_by_name

        scale = None
        for b in floorplan:
            ratio = b.area_mm2 / structure_by_name(b.name).area_mm2
            if scale is None:
                scale = ratio
            assert ratio == pytest.approx(scale, rel=1e-6)

    def test_no_overlaps(self, floorplan):
        blocks = list(floorplan)
        for i, a in enumerate(blocks):
            for b in blocks[i + 1 :]:
                x_overlap = min(a.x + a.width, b.x + b.width) - max(a.x, b.x)
                y_overlap = min(a.y + a.height, b.y + b.height) - max(a.y, b.y)
                assert min(x_overlap, y_overlap) <= 1e-9

    def test_every_block_has_a_neighbour(self, floorplan):
        adjacency = floorplan.adjacent_pairs()
        touched = {a.name for a, _, _ in adjacency} | {b.name for _, b, _ in adjacency}
        assert touched == set(STRUCTURE_NAMES)

    def test_shared_edge_symmetry(self):
        a = Block("a", 0, 0, 1, 2)
        b = Block("b", 1, 0.5, 1, 1)
        assert a.shared_edge_with(b) == pytest.approx(1.0)
        assert b.shared_edge_with(a) == pytest.approx(1.0)

    def test_disjoint_blocks_share_nothing(self):
        a = Block("a", 0, 0, 1, 1)
        b = Block("b", 5, 5, 1, 1)
        assert a.shared_edge_with(b) == pytest.approx(0.0)

    def test_lookup(self, floorplan):
        assert floorplan.block("fpu").name == "fpu"
        with pytest.raises(ThermalError):
            floorplan.block("nonexistent")

    def test_duplicate_names_rejected(self):
        blocks = [Block("x", 0, 0, 1, 1), Block("x", 1, 0, 1, 1)]
        with pytest.raises(ThermalError, match="unique"):
            Floorplan(blocks, 2.0, 1.0)

    def test_uncovered_die_rejected(self):
        with pytest.raises(ThermalError, match="cover"):
            Floorplan([Block("x", 0, 0, 1, 1)], 10.0, 10.0)


class TestSteadyState:
    def test_zero_power_sits_at_ambient(self, solver):
        temps = solver.solve(uniform_power(0.0))
        for t in temps.values():
            assert t == pytest.approx(AMBIENT_TEMPERATURE_K, abs=1e-6)

    def test_power_raises_temperature(self, solver):
        temps = solver.solve(uniform_power(20.0))
        assert all(t > AMBIENT_TEMPERATURE_K + 5 for t in temps.values())

    def test_linearity_in_power(self, solver):
        t1 = solver.solve(uniform_power(10.0))
        t2 = solver.solve(uniform_power(20.0))
        for name in t1:
            rise1 = t1[name] - AMBIENT_TEMPERATURE_K
            rise2 = t2[name] - AMBIENT_TEMPERATURE_K
            assert rise2 == pytest.approx(2 * rise1, rel=1e-6)

    def test_hot_block_is_the_powered_one(self, solver):
        power = {name: 0.0 for name in STRUCTURE_NAMES}
        power["fpu"] = 15.0
        temps = solver.solve(power)
        assert max(temps, key=temps.get) == "fpu"

    def test_energy_balance_at_sink(self, solver, network):
        # All injected power must flow to ambient through the sink:
        # (T_sink - T_amb) / R_conv == total power.
        full = solver.solve_full(uniform_power(30.0))
        sink = full[network.sink_index]
        flow = (sink - AMBIENT_TEMPERATURE_K) / network.params.r_convection_k_per_w
        assert flow == pytest.approx(30.0, rel=1e-6)

    def test_fixed_sink_is_respected(self, platform, mpgdec_run):
        # Pass two pins the sink: every die block sits above it.
        batch = platform.evaluate_batch(mpgdec_run, DEFAULT_VF_CURVE.grid(3))
        assert (
            batch.temperatures_k > batch.sink_temperature_k[:, None, None]
        ).all()

    def test_unknown_block_power_rejected(self, network):
        with pytest.raises(ThermalError, match="unknown"):
            network.power_vector({"l3": 5.0})

    def test_negative_power_rejected(self, network):
        with pytest.raises(ThermalError, match="negative"):
            network.power_vector({"fpu": -1.0})

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ThermalError):
            ThermalParameters(r_convection_k_per_w=0.0)


class TestTransient:
    def test_converges_to_steady_state(self, network, solver):
        transient = TransientSolver(network)
        power = uniform_power(25.0)
        final = transient.run(power, duration_s=100_000.0, dt_s=50.0)
        steady = solver.solve_full(power)
        assert np.allclose(final, steady, atol=0.5)

    def test_blocks_respond_faster_than_sink(self, network):
        transient = TransientSolver(network)
        power = uniform_power(25.0)
        after = transient.run(power, duration_s=1.0, dt_s=0.01)
        block_rise = after[0] - AMBIENT_TEMPERATURE_K
        sink_rise = after[network.sink_index] - AMBIENT_TEMPERATURE_K
        assert block_rise > 2 * sink_rise

    def test_monotone_warmup(self, network):
        transient = TransientSolver(network)
        power = uniform_power(25.0)
        t1 = transient.run(power, duration_s=10.0, dt_s=0.1)
        t2 = transient.run(power, duration_s=100.0, dt_s=0.1)
        assert (t2 >= t1 - 1e-9).all()

    def test_invalid_step_rejected(self, network):
        with pytest.raises(ThermalError):
            TransientSolver(network).step(
                np.full(network.n_blocks + 2, 318.0), uniform_power(10.0), dt_s=0.0
            )


SLOW = DEFAULT_VF_CURVE.operating_point(DEFAULT_VF_CURVE.f_min_hz)
FAST = DEFAULT_VF_CURVE.operating_point(DEFAULT_VF_CURVE.f_max_hz)


class TestTwoPassModel:
    """The paper's two-pass heat-sink initialisation, as the batch
    kernel runs it (pass one: sink from the time-weighted average
    power; pass two: each phase with the sink pinned)."""

    def test_sink_temperature_uses_average_power(self, platform, mpgdec_run, solver, network):
        grid = DEFAULT_VF_CURVE.grid(5)
        batch = platform.evaluate_batch(mpgdec_run, [(grid[0], grid[4], grid[2])])
        totals = batch.dynamic_w[0] + batch.leakage_w[0]
        average = (totals * batch.weights[0][:, None]).sum(axis=0)
        full = solver.solve_full(dict(zip(STRUCTURE_NAMES, average)))
        assert batch.sink_temperature_k[0] == pytest.approx(
            full[network.sink_index], rel=1e-9
        )

    def test_phase_temperatures_differ_with_power(self, platform, mpgdec_run):
        run = twin_phase_run(mpgdec_run, (1000, 1000))
        slow, fast = SLOW, FAST
        cool, hot = platform.evaluate_batch(run, [(slow, fast)]).temperatures_k[0]
        assert (hot > cool).all()

    def test_weights_must_be_positive(self, platform, mpgdec_run):
        run = twin_phase_run(mpgdec_run, (1000, 0))
        with pytest.raises(ValueError, match="positive duration"):
            platform.evaluate_batch(run, [DEFAULT_VF_CURVE.nominal])

    def test_hot_phase_hotter_than_its_standalone_steady_state(self, platform, mpgdec_run):
        # The sink carries history: a hot phase measured around a cool
        # average sees a cooler sink than it would alone.
        run = twin_phase_run(mpgdec_run, (9000, 1000))
        slow, fast = SLOW, FAST
        mixed, alone = platform.evaluate_batch(run, [(slow, fast), (fast, fast)]).temperatures_k
        assert (mixed[1] < alone[1]).all()
        assert (
            platform.evaluate_batch(run, [(slow, fast)]).sink_temperature_k[0]
            < platform.evaluate_batch(run, [fast]).sink_temperature_k[0]
        )
