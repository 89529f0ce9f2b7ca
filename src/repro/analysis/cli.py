"""The ``python -m repro analyze`` subcommand.

Exit codes follow the usual analyzer contract:

- ``0`` — clean: no unsuppressed findings;
- ``1`` — findings;
- ``2`` — usage error (unknown rule id, missing path, bad args).

Defaults (``paths`` and ``cache_dir``) can be configured in
``pyproject.toml`` under ``[tool.repro.analysis]``; command-line
arguments win over configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.analysis.emitters import to_json, to_sarif, to_text
from repro.analysis.engine import DEFAULT_CACHE_DIR, Analyzer
from repro.analysis.registry import (
    AnalysisError,
    all_rules,
    expand_rule_patterns,
    get_rule,
)

_DEFAULT_PATHS = ["src", "tests"]


def load_config(root: Path) -> dict:
    """``[tool.repro.analysis]`` from ``pyproject.toml``, if readable."""
    pyproject = root / "pyproject.toml"
    if not pyproject.is_file():
        return {}
    try:
        import tomllib
    except ImportError:  # pragma: no cover - python < 3.11
        return {}
    try:
        payload = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    except (OSError, tomllib.TOMLDecodeError):
        return {}
    section = payload.get("tool", {}).get("repro", {}).get("analysis", {})
    return section if isinstance(section, dict) else {}


def add_analyze_parser(sub: argparse._SubParsersAction) -> None:
    """Register the ``analyze`` subcommand on the repro CLI."""
    p = sub.add_parser(
        "analyze",
        help="run the physics-aware static-analysis suite",
        description=(
            "AST-based checks for the repo's silent invariants: unit "
            "suffixes, float equality, paper-constant duplication, "
            "broad excepts, unlocked shared writes on thread-reachable "
            "paths, reachable divide-by-zero/log/sqrt domain errors, "
            "unguarded NaN flow and hot-path array idioms."
        ),
    )
    p.add_argument("paths", nargs="*", default=None,
                   help="files/directories to analyze (default: src tests, "
                        "or [tool.repro.analysis].paths)")
    p.add_argument("--format", choices=["text", "json", "sarif"],
                   default="text", help="output format (default text)")
    p.add_argument("--output", default=None,
                   help="write the report to this file instead of stdout")
    p.add_argument("--select", default=None,
                   help="comma-separated rule ids to run (default: all)")
    p.add_argument("--ignore", default=None,
                   help="comma-separated rule ids to skip")
    p.add_argument("--rules", default=None, metavar="PATTERNS",
                   help="comma-separated rule-id globs to run (e.g. "
                        "RPR2xx, RPR30?, RPR*); x/X match any digit. "
                        "Combines with --select; exit codes unchanged")
    p.add_argument("--list-rules", action="store_true",
                   help="print the registered rules and exit")
    p.add_argument("--explain", default=None, metavar="RULE",
                   help="print one rule's rationale, example, and "
                        "suppression syntax, then exit")
    p.add_argument("--verbose", action="store_true",
                   help="also list suppressed findings")
    p.add_argument("--cache-dir", default=None,
                   help="result-cache directory (default "
                        f"{DEFAULT_CACHE_DIR}, or [tool.repro.analysis]"
                        ".cache_dir)")
    p.add_argument("--stats", action="store_true",
                   help="print cache and timing statistics to stderr")
    p.add_argument("--stats-json", default=None, metavar="FILE",
                   help="also write driver statistics (cache layers, "
                        "timings, files/s) to FILE as JSON")
    p.add_argument("--changed", action="store_true",
                   help="report findings only for files changed vs git "
                        "HEAD (plus untracked); the whole tree is still "
                        "analyzed so project-wide passes stay correct, "
                        "but findings in unchanged files are not "
                        "reported (pre-commit mode)")
    p.set_defaults(func=run_analyze)


def _split_ids(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    return [token.strip() for token in raw.split(",") if token.strip()]


def changed_rel_paths(root: Path) -> set[str] | None:
    """Repo-relative ``.py`` paths changed vs HEAD, plus untracked.

    Returns None when git is unavailable or the root is not a work
    tree (callers fall back to a full run with a warning).
    """
    import subprocess

    try:
        diff = subprocess.run(
            ["git", "diff", "--name-only", "HEAD", "--"],
            cwd=root,
            capture_output=True,
            text=True,
            check=True,
        )
        untracked = subprocess.run(
            ["git", "ls-files", "--others", "--exclude-standard"],
            cwd=root,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return {
        line.strip()
        for line in (diff.stdout + untracked.stdout).splitlines()
        if line.strip().endswith(".py")
    }


def run_analyze(args: argparse.Namespace) -> int:
    """Execute the analyze subcommand; returns the process exit code."""
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  {rule.name:16s} [{rule.severity.value}] "
                  f"{rule.description}")
        return 0
    if args.explain:
        try:
            rule = get_rule(args.explain.strip())
        except AnalysisError as exc:
            print(f"analyze: {exc}", file=sys.stderr)
            return 2
        print(rule.explain())
        return 0

    root = Path.cwd()
    config = load_config(root)
    paths = args.paths or config.get("paths") or _DEFAULT_PATHS
    paths = [Path(p) for p in paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"analyze: no such path: {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2

    cache_dir = root / (
        args.cache_dir or config.get("cache_dir") or DEFAULT_CACHE_DIR
    )

    report_only: set[str] | None = None
    if args.changed:
        report_only = changed_rel_paths(root)
        if report_only is None:
            print(
                "analyze: --changed needs a git work tree; running on "
                "everything",
                file=sys.stderr,
            )
        elif not report_only:
            print("analyze: no changed python files", file=sys.stderr)
            return 0

    started = time.monotonic()
    try:
        select = _split_ids(args.select)
        patterns = _split_ids(args.rules)
        if patterns is not None:
            # Globs expand to exact ids and union with --select, so
            # `--rules RPR2xx` runs the concurrency family standalone.
            select = sorted(set(select or []) | set(
                expand_rule_patterns(patterns)
            ))
        analyzer = Analyzer(
            root=root,
            select=select,
            ignore=_split_ids(args.ignore),
            cache_dir=cache_dir,
            report_only=report_only,
        )
        result = analyzer.analyze_paths(paths)
    except AnalysisError as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 2
    duration_s = time.monotonic() - started

    if args.format == "json":
        report = json.dumps(to_json(result), indent=2)
    elif args.format == "sarif":
        report = json.dumps(to_sarif(result, analyzer.rules), indent=2)
    else:
        report = to_text(result, verbose=args.verbose)

    if args.output:
        Path(args.output).write_text(report + "\n", encoding="utf-8")
        print(f"report written to {args.output}", file=sys.stderr)
    else:
        print(report)

    stats = dict(result.stats)
    files = stats["files"]
    if args.stats:
        line = (
            f"analyze: {files} file(s), "
            f"{stats['parsed']} parsed, "
            f"{stats['analyzed']} analyzed, "
            f"{stats['cached']} cached, "
            f"{duration_s:.2f}s"
            f" (harvest: {stats['harvest_hits']} hit(s), "
            f"{stats['harvest_misses']} miss(es))"
        )
        if duration_s > 0:
            line += f", {files / duration_s:.1f} files/s"
        if stats["callgraph_rules"]:
            line += (
                f" [callgraph: {stats['callgraph_pass']} in "
                f"{stats['callgraph_pass_s']:.3f}s]"
            )
        print(line, file=sys.stderr)

    if args.stats_json:
        stats["duration_s"] = round(duration_s, 4)
        stats["files_per_s"] = (
            round(files / duration_s, 2) if duration_s > 0 else None
        )
        Path(args.stats_json).write_text(
            json.dumps(stats, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    return 0 if result.clean else 1
