"""Thermal model (the HotSpot substitute).

A floorplan-driven RC thermal network: every architectural structure is a
block with a vertical conduction path (silicon + thermal interface) to a
copper heat spreader, lateral conduction to its floorplan neighbours, and
a spreader -> heat-sink -> ambient stack.  :class:`SteadyStateSolver`
holds the factorised network; the paper's two-pass heat-sink
initialisation (pass one: the sink's long-run temperature from the
time-weighted average power; pass two: each interval's die temperatures
with the sink pinned there) runs inside the batch kernel
(:mod:`repro.kernels.batch`) over whole candidate grids.  The transient
integrator serves longer-horizon studies.
"""

from repro.thermal.floorplan import Floorplan, Block, build_default_floorplan
from repro.thermal.rc_network import ThermalRCNetwork, ThermalParameters
from repro.thermal.solver import SteadyStateSolver, TransientSolver
from repro.thermal.report import render_floorplan, render_thermal_map

__all__ = [
    "Floorplan",
    "Block",
    "build_default_floorplan",
    "ThermalRCNetwork",
    "ThermalParameters",
    "SteadyStateSolver",
    "TransientSolver",
    "render_floorplan",
    "render_thermal_map",
]
