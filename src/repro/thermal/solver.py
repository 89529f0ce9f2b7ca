"""Steady-state and transient solvers for the thermal RC network."""

from __future__ import annotations

import numpy as np

from repro.errors import ThermalError
from repro.thermal.rc_network import ThermalRCNetwork


class SteadyStateSolver:
    """Solves G·T = P + boundary for the equilibrium temperature field.

    The conductance matrix is factorised once and reused across solves,
    which is what makes the DRM sweeps (thousands of thermal evaluations)
    cheap.
    """

    def __init__(self, network: ThermalRCNetwork) -> None:
        self.network = network
        try:
            self._factor = np.linalg.cholesky(network.conductance)
        except np.linalg.LinAlgError as exc:
            raise ThermalError(f"thermal network is not SPD: {exc}") from exc

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        y = np.linalg.solve(self._factor, rhs)
        return np.linalg.solve(self._factor.T, y)

    def solve_many(self, rhs: np.ndarray) -> np.ndarray:
        """Solve against a matrix right-hand side, one column per system.

        The batch kernel's first pass (the long-run heat-sink
        temperature) solves every candidate's average power at once
        this way.  Each column goes through the same factorised
        substitutions as a single-vector :meth:`solve_full`.
        """
        return self._solve(rhs)

    def solve(self, power_w_by_block: dict[str, float]) -> dict[str, float]:
        """Equilibrium block temperatures for a power assignment.

        Returns per-structure temperatures; the spreader and sink nodes
        are available through :meth:`solve_full`.
        """
        return self.network.temperatures_dict(self.solve_full(power_w_by_block))

    def solve_full(self, power_w_by_block: dict[str, float]) -> np.ndarray:
        """Equilibrium temperatures of every node (blocks, spreader, sink)."""
        p = self.network.power_vector(power_w_by_block)
        return self._solve(p + self.network.ambient_injection)


class TransientSolver:
    """Implicit-Euler integrator for C·dT/dt = P + boundary − G·T.

    Unconditionally stable, so large steps (relative to the block time
    constants) remain well behaved — needed because the sink time
    constant is ~5 orders of magnitude above the block ones.
    """

    def __init__(self, network: ThermalRCNetwork) -> None:
        self.network = network

    def step(
        self, temps: np.ndarray, power_w_by_block: dict[str, float], dt_s: float
    ) -> np.ndarray:
        """Advance the temperature state by ``dt_s`` seconds.

        Raises:
            ThermalError: if ``dt_s`` is not positive.
        """
        if dt_s <= 0.0:
            raise ThermalError("time step must be positive")
        net = self.network
        p = net.power_vector(power_w_by_block) + net.ambient_injection
        c_over_dt = np.diag(net.capacitance / dt_s)
        lhs = c_over_dt + net.conductance
        rhs = p + (net.capacitance / dt_s) * temps
        return np.linalg.solve(lhs, rhs)

    def run(
        self,
        power_w_by_block: dict[str, float],
        duration_s: float,
        dt_s: float,
        initial: np.ndarray | None = None,
    ) -> np.ndarray:
        """Integrate a constant power assignment for ``duration_s``.

        Returns the final node-temperature vector.  ``initial`` defaults
        to everything at ambient (a cold start).
        """
        net = self.network
        temps = (
            np.full(net.n_blocks + 2, net.params.ambient_k)
            if initial is None
            else initial.copy()
        )
        steps = max(1, int(round(duration_s / dt_s)))
        for _ in range(steps):
            temps = self.step(temps, power_w_by_block, dt_s)
        return temps
