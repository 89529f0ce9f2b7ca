"""Golden digests that pin the cycle-level simulator bit for bit.

``tests/golden/workload_runs.json`` holds:

- ``reduced``: a digest of every (application, configuration) run of
  the suite (9 apps x 18 Arch configurations) at a 3,000 + 500
  instruction budget;
- ``full``: the same 162 runs at the default 24,000 + 4,000 budget
  (checked by the slow test);
- ``timelines``: a digest of the per-instruction timeline stamps and
  statistics of each microbenchmark trace on the base machine and on
  the smallest Arch configuration.

A run digest is the SHA-256 of the canonical JSON of
:func:`~repro.engine.store.encode_workload_run`, the same form the
repository benchmark commits in ``perfbench/expected/``.  An intended
change to simulator output regenerates the file with::

    PYTHONPATH=src python tests/test_cpu_golden.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.config.microarch import BASE_MICROARCH, arch_adaptation_space
from repro.cpu.simulator import (
    DEFAULT_INSTRUCTIONS,
    DEFAULT_WARMUP,
    CycleSimulator,
    simulate_with_timeline,
)
from repro.engine.store import encode_workload_run
from repro.workloads import microbench as ub
from repro.workloads.suite import WORKLOAD_SUITE
from repro.workloads.trace import OpClass

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "workload_runs.json"
COLD_EXPECTED = ROOT / "perfbench" / "expected" / "cold_archdvs.json"

REDUCED_INSTRUCTIONS = 3_000
REDUCED_WARMUP = 500
SEED = 42


def digest(payload) -> str:
    """SHA-256 of canonical JSON (floats serialise exactly via repr)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_digests(instructions: int, warmup: int) -> dict[str, str]:
    """``{"app|config": digest}`` over the suite and the Arch space."""
    out = {}
    for config in arch_adaptation_space():
        simulator = CycleSimulator(
            config=config, instructions=instructions, warmup=warmup, seed=SEED
        )
        for profile in WORKLOAD_SUITE:
            run = simulator.run(profile)
            out[f"{profile.name}|{config.describe()}"] = digest(
                encode_workload_run(run)
            )
    return out


def _microbench_traces():
    return (
        ub.alu_throughput(),
        ub.dependency_chain(),
        ub.dependency_chain(op=OpClass.FDIV),
        ub.pointer_chase(),
        ub.stream(),
        ub.branchy(),
        ub.branchy(predictable=True),
        ub.call_heavy(),
    )


def timeline_digests() -> dict[str, str]:
    """``{"trace|config": digest}`` of timeline stamps plus statistics."""
    smallest = min(
        arch_adaptation_space(),
        key=lambda c: (c.window_size, c.n_ialu, c.n_fpu),
    )
    out = {}
    for config in (BASE_MICROARCH, smallest):
        for trace in _microbench_traces():
            stats, tl = simulate_with_timeline(trace, config)
            payload = {
                "stats": {k: v for k, v in asdict(stats).items() if k != "config"},
                "cycles": tl.cycles,
                "fetch": tl.fetch.tolist(),
                "issue": tl.issue.tolist(),
                "complete": tl.complete.tolist(),
                "retire": tl.retire.tolist(),
            }
            out[f"{trace.name}|{config.describe()}"] = digest(payload)
    return out


def golden_payload() -> dict:
    return {
        "seed": SEED,
        "reduced_budget": [REDUCED_INSTRUCTIONS, REDUCED_WARMUP],
        "reduced": run_digests(REDUCED_INSTRUCTIONS, REDUCED_WARMUP),
        "full_budget": [DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP],
        "full": run_digests(DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP),
        "timelines": timeline_digests(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _mismatches(expected: dict, actual: dict) -> list[str]:
    keys = sorted(set(expected) | set(actual))
    return [k for k in keys if expected.get(k) != actual.get(k)]


def test_reduced_budget_runs_match_golden(golden):
    assert golden["reduced_budget"] == [REDUCED_INSTRUCTIONS, REDUCED_WARMUP]
    assert len(golden["reduced"]) == 162
    actual = run_digests(REDUCED_INSTRUCTIONS, REDUCED_WARMUP)
    assert _mismatches(golden["reduced"], actual) == []


def test_microbench_timelines_match_golden(golden):
    assert len(golden["timelines"]) == 16
    assert _mismatches(golden["timelines"], timeline_digests()) == []


def test_full_budget_golden_agrees_with_benchmark_expectations(golden):
    """The committed full-budget digests of MPGdec and art are the ones
    the repository benchmark checks its cold pass against."""
    runs = json.loads(COLD_EXPECTED.read_text())["runs"]
    assert len(runs) == 36
    assert {k: golden["full"][k] for k in runs} == runs


@pytest.mark.slow
def test_full_budget_runs_match_golden(golden):
    assert golden["full_budget"] == [DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP]
    assert len(golden["full"]) == 162
    actual = run_digests(DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP)
    assert _mismatches(golden["full"], actual) == []


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_payload(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
