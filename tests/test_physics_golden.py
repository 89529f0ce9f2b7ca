"""Golden values of the physics stack: qualification, Table 2 and the kernel.

``tests/golden/physics.json`` pins, at the test simulation budget:

- ``qualified_constants``: every (mechanism, structure) MTTF constant
  :func:`~repro.core.qualification.calibrate` solves at T_qual 345, 370
  and 400 K (p_qual from the whole suite);
- ``table2``: each suite application's IPC and average power at the
  nominal operating point;
- ``kernel``: the batched evaluation of three candidate sets (the
  MPGdec DVS grid, a throttled twolf configuration and rotated mixed
  schedules): temperatures, sink, ips, average power, iteration counts
  and the RAMP FIT of every candidate at T_qual 370 K;
- ``reference``: the same cases as computed by the dict-walking scalar
  evaluation (power and thermal solved per structure, RAMP per
  interval) that the array kernel replaced.  Its code no longer exists,
  so this section is frozen: regeneration carries it over unchanged.

Floats serialise exactly (JSON numbers use ``repr``).  The first three
sections must match bit for bit; the kernel must agree with the frozen
reference to 1e-12 (relative for temperatures, ips, power totals and
FIT; absolute for weights, activities and per-structure powers).  The
per-case checks run from ``tests/test_kernels_batch.py`` through
:func:`check_case`.  An intended change to physics output regenerates
the first three sections with::

    PYTHONPATH=src python tests/test_physics_golden.py
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.config.dvs import DEFAULT_VF_CURVE
from repro.config.microarch import BASE_MICROARCH, arch_adaptation_space
from repro.core.drm import DRMOracle
from repro.harness.platform import Platform
from repro.harness.sweep import SimulationCache
from repro.workloads.suite import WORKLOAD_SUITE, workload_by_name

GOLDEN = Path(__file__).resolve().parent / "golden" / "physics.json"

INSTRUCTIONS = 4_000
WARMUP = 1_000
SEED = 7
T_QUALS_K = (345.0, 370.0, 400.0)
FIT_T_QUAL_K = 370.0
CASES = ("dvs_grid", "throttled", "mixed")

#: Agreement with the frozen scalar reference.
RTOL = 1e-12


def case_inputs(name: str, cache: SimulationCache):
    """The (run, candidates) pair of one golden case."""
    if name == "dvs_grid":
        return (
            cache.run(workload_by_name("MPGdec"), BASE_MICROARCH),
            DEFAULT_VF_CURVE.grid(11),
        )
    if name == "throttled":
        config = arch_adaptation_space()[-1]
        return cache.run(workload_by_name("twolf"), config), DEFAULT_VF_CURVE.grid(5)
    if name == "mixed":
        run = cache.run(workload_by_name("MPGdec"), BASE_MICROARCH)
        grid = DEFAULT_VF_CURVE.grid(5)
        n = len(run.phases)
        return run, [
            tuple(grid[(i + p) % len(grid)] for p in range(n))
            for i in range(len(grid))
        ]
    raise KeyError(name)


def kernel_fields(batch, ramp) -> dict:
    """The pinned kernel outputs of one batch, as plain lists."""
    return {
        "temperatures_k": batch.temperatures_k.tolist(),
        "sink_temperature_k": batch.sink_temperature_k.tolist(),
        "ips": batch.ips.tolist(),
        "avg_power_w": batch.avg_power_w.tolist(),
        "iterations": batch.iterations.tolist(),
        "fit": ramp.application_fit_batch(batch).tolist(),
    }


def make_oracle(cache: SimulationCache, platform: Platform) -> DRMOracle:
    return DRMOracle(platform=platform, cache=cache, dvs_steps=11)


def qualified_constants(oracle: DRMOracle) -> dict:
    return {
        repr(t): {
            f"{mech}/{structure}": value
            for (mech, structure), value in oracle.ramp_for(t).qualified.constants.items()
        }
        for t in T_QUALS_K
    }


def table2(cache: SimulationCache, platform: Platform) -> dict:
    out = {}
    for profile in WORKLOAD_SUITE:
        run = cache.run(profile)
        evaluation = platform.evaluate(run, DEFAULT_VF_CURVE.nominal)
        out[profile.name] = {"ipc": run.ipc, "avg_power_w": evaluation.avg_power_w}
    return out


def golden_payload(reference: dict) -> dict:
    """Regenerate every live section; ``reference`` is carried over."""
    cache = SimulationCache(instructions=INSTRUCTIONS, warmup=WARMUP, seed=SEED)
    platform = Platform()
    oracle = make_oracle(cache, platform)
    ramp = oracle.ramp_for(FIT_T_QUAL_K)
    kernel = {}
    for name in CASES:
        run, candidates = case_inputs(name, cache)
        kernel[name] = kernel_fields(platform.evaluate_batch(run, candidates), ramp)
    return {
        "budget": [INSTRUCTIONS, WARMUP, SEED],
        "fit_t_qual_k": FIT_T_QUAL_K,
        "qualified_constants": qualified_constants(oracle),
        "table2": table2(cache, platform),
        "kernel": kernel,
        "reference": reference,
    }


def dumps(payload: dict) -> str:
    """Indented JSON with every innermost number list on one line."""
    text = json.dumps(payload, indent=1, sort_keys=True)
    return re.sub(
        r"\[\s+([^\[\]{}\"]*?)\s+\]",
        lambda m: "[" + ", ".join(x.strip() for x in m.group(1).split(",")) + "]",
        text,
    ) + "\n"


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _max_relative(got, want) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape
    return float(np.max(np.abs(got - want) / np.abs(want)))


def _max_absolute(got, want) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape
    return float(np.max(np.abs(got - want)))


def check_case(name: str, golden: dict, batch, ramp) -> None:
    """Assert one case bitwise against ``kernel`` and within
    :data:`RTOL` of the frozen ``reference``."""
    assert kernel_fields(batch, ramp) == golden["kernel"][name]
    ref = golden["reference"][name]
    for field in ("temperatures_k", "sink_temperature_k", "ips", "avg_power_w"):
        assert _max_relative(getattr(batch, field), ref[field]) < RTOL, field
    assert _max_relative(ramp.application_fit_batch(batch), ref["fit"]) < RTOL
    for field in ("weights", "activity", "dynamic_w", "leakage_w"):
        assert _max_absolute(getattr(batch, field), ref[field]) < RTOL, field


# ---- tests --------------------------------------------------------------


def test_golden_layout():
    golden = load_golden()
    assert golden["budget"] == [INSTRUCTIONS, WARMUP, SEED]
    assert golden["fit_t_qual_k"] == FIT_T_QUAL_K
    assert sorted(golden["kernel"]) == sorted(golden["reference"]) == sorted(CASES)


def test_qualified_constants_match_golden(oracle):
    assert qualified_constants(oracle) == load_golden()["qualified_constants"]


def test_table2_matches_golden(test_cache, platform):
    assert table2(test_cache, platform) == load_golden()["table2"]


_SCALAR_GZIP = """
from repro.core.drm import DRMOracle
from repro.harness.sweep import SimulationCache
from repro.workloads.suite import workload_by_name
oracle = DRMOracle(
    cache=SimulationCache(instructions=%d, warmup=%d, seed=%d),
    suite=(workload_by_name("gzip"), workload_by_name("art")),
)
rel = oracle.ramp_for(400.0).application_reliability(
    oracle.base_evaluation(workload_by_name("gzip"))
)
print(repr(rel.total_fit))
print(list(rel.account.entries))
""" % (INSTRUCTIONS, WARMUP, SEED)


def test_scalar_ramp_is_hash_seed_independent():
    """The scalar ledger must not follow set/dict hash order."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", _SCALAR_GZIP],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


if __name__ == "__main__":
    previous = load_golden()["reference"] if GOLDEN.exists() else {}
    GOLDEN.write_text(dumps(golden_payload(previous)))
    print(f"wrote {GOLDEN}")
