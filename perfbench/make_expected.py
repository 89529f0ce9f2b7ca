"""Regenerate the expected output digests the workloads check against.

Run from the repository root after an intended change to simulator or
oracle outputs::

    python3 perfbench/make_expected.py [cold_archdvs warm_oracles lifetime_redteam]

Each workload's digests land in ``perfbench/expected/<workload>.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import common  # noqa: E402


def cold_archdvs() -> dict:
    import cold

    work = common.make_work_dir("expected-cold")
    state = cold.setup(work, 0)
    _, decisions, oracle = cold._cold_pass(state, 0)
    run_digests, decision_digests = cold.digests(decisions, oracle)
    return {"runs": run_digests, "decisions": decision_digests}


def warm_oracles() -> dict:
    import warm

    work = common.make_work_dir("expected-warm")
    state = warm.setup(work, 0)
    oracles = warm.Oracles(state["store"])
    return {
        warm.decision_key(kind, app, t_qual): warm.decision_digest(
            kind, oracles.decide(kind, app, t_qual)
        )
        for app in warm.APPS
        for t_qual in warm.T_QUAL_GRID
        for kind in warm.KINDS
    }


def lifetime_redteam() -> dict:
    import lifetime

    return lifetime.expected_digests()


def main(names) -> int:
    import shutil

    makers = {
        "cold_archdvs": cold_archdvs,
        "warm_oracles": warm_oracles,
        "lifetime_redteam": lifetime_redteam,
    }
    common.EXPECTED_DIR.mkdir(exist_ok=True)
    try:
        for name in names or makers:
            payload = makers[name]()
            path = common.EXPECTED_DIR / f"{name}.json"
            path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
            print(f"wrote {path} ({len(payload)} entries)")
    finally:
        shutil.rmtree(common.WORK_ROOT, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
