"""The repository benchmark: one workload per invocation.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold_archdvs --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the workload's timed phase once plain and once with
every layer wrapped in spans, and reports the per-layer metrics.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
every metric by name with its unit, and the run metadata.  The exit
code is 0 only when every output check passed.  See ``README.md`` in
this directory for the workloads and metrics.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

WORKLOADS = {
    "cold_archdvs": "cold",
    "warm_oracles": "warm",
    "serve_fleet": "serve",
    "lifetime_redteam": "lifetime",
}

#: (name, unit) of the end-to-end metrics every workload reports.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("wall_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms", "ms"),
    ("tail_latency_ms", "ms"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH_DIR), str(SRC)]
    loadavg = os.getloadavg()[0]
    workload = importlib.import_module(WORKLOADS[args.workload])
    import common

    import_s = time.perf_counter() - _T_START
    import_cpu_s = time.process_time()
    ticks = common.cpu_ticks()
    work = common.make_work_dir(args.workload)
    try:
        if args.trace:
            state = workload.setup(work / "setup-0", args.seed)
            outcome = workload.traced(state, args.seed, args.seconds)
            units = dict(common.PER_LAYER)
            tracer = outcome.meta.pop("tracer", None)
            if tracer is not None:
                tracer.dump(common.TRACE_OUT / f"{args.workload}-seed{args.seed}.jsonl")
            low, high = common.COVERAGE_RANGE
            coverage = outcome.metrics["trace.coverage"]
            outcome.check(
                low <= coverage <= high,
                f"trace.coverage {coverage:.4f} outside {low}-{high}",
            )
        else:
            # Each set-up is calibrated against reference readings taken
            # just before and after it: from one run to the next the host's
            # speed moves set-up times by half.  A reading does not follow
            # the imports; they count in CPU seconds (interpreter start,
            # imports and the threads they start), steadier than their
            # wall time.
            calibrator = common.Calibrator()
            last = calibrator.reading()
            setup_times, setup_cal = [], []
            for i in range(workload.SETUP_REPEATS):
                t0 = time.perf_counter()
                state = workload.setup(work / f"setup-{i}", args.seed)
                setup_times.append(time.perf_counter() - t0)
                after = calibrator.reading()
                setup_cal.append(setup_times[-1] * calibrator.scale(last, after))
                last = after
            outcome = workload.measure(state, args.seconds, args.seed)
            outcome.metrics["setup_s"] = import_cpu_s + common.median(setup_cal)
            outcome.metrics["peak_rss_mb"] = common.peak_rss_mb()
            outcome.native["raw_setup_s"] = import_s + common.median(setup_times)
            outcome.native["raw_setup_repeats_s"] = setup_times
            outcome.native["import_s"] = import_s
            outcome.native["import_cpu_s"] = import_cpu_s
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            common.WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it

    failed = len(outcome.failures)
    attempted = max(outcome.attempted, failed, 1)
    metadata = common.run_metadata(args.seed, loadavg, ticks)
    metadata.update(outcome.meta)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, value in metadata.items():
        print(f"  meta {key} = {value}")
    for key, value in outcome.native.items():
        print(f"  native {key} = {value}")
    for failure in outcome.failures:
        print(f"  FAILED {failure}")
    print(f"  failed_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    metrics = {}
    for name, unit in units.items():
        value = float(outcome.metrics[name])
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
