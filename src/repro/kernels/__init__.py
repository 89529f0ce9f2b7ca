"""Vectorized candidate-grid evaluation kernels.

The oracles evaluate hundreds of candidates per decision, so every
evaluation is a grid (a single operating point is a grid of one):
per-structure quantities become ``(n_candidates, n_phases, n_structures)``
numpy tensors indexed by the canonical structure order of
``repro.config.technology.STRUCTURE_NAMES``, and the leakage/temperature
fixed point iterates over every candidate simultaneously with per-row
convergence masking.

Use :meth:`repro.harness.platform.Platform.evaluate_batch` as the entry
point; :class:`BatchKernel` is the implementation and
:class:`BatchEvaluation` the result record.
"""

from repro.kernels.batch import (
    BatchEvaluation,
    BatchKernel,
    MAX_FIXED_POINT_ITERS,
    STRUCTURE_INDEX,
    TEMP_TOLERANCE_K,
)
from repro.kernels.wear import accrue, duty_asymmetry_factors, wear_rate_fields

__all__ = [
    "BatchEvaluation",
    "BatchKernel",
    "MAX_FIXED_POINT_ITERS",
    "STRUCTURE_INDEX",
    "TEMP_TOLERANCE_K",
    "accrue",
    "duty_asymmetry_factors",
    "wear_rate_fields",
]
