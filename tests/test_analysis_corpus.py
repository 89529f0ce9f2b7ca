"""Regression corpus: real defects the analyzer caught, replayed.

Each tree under ``tests/analysis_corpus/`` rebuilds, minimally, the
pre-fix code of a defect this repository shipped and later fixed (its
README names the commit and path every file was cut from).  The files
carry a ``.py.txt`` suffix so the corpus itself is never linted,
collected or analyzed in place; each test copies one tree into
``tmp_path`` as ``.py`` files, analyzes it cold, then again warm from
the same cache, and asserts that the defect is reported under its rule
id both times.

The corpus is the analyzer's rule contract: every registered rule has
at least one real defect here, and a rule with none is not kept.
"""

import shutil
from pathlib import Path

import pytest

from repro.analysis import Analyzer, all_rules

CORPUS = Path(__file__).parent / "analysis_corpus"

#: One row per real defect: (tree, rule id, file, text of the flagged line).
DEFECTS = [
    pytest.param(
        "races", "RPR201", "src/repro/harness/platform.py",
        "self._kernel = BatchKernel(", id="platform-lazy-kernel",
    ),
    pytest.param(
        "races", "RPR201", "src/repro/harness/sweep.py",
        "self._memory[key] = run", id="simulation-cache-memo",
    ),
    pytest.param(
        "races", "RPR201", "src/repro/resilience/faults.py",
        "self.fired.append(record)", id="fault-injector-fired",
    ),
    pytest.param(
        "races", "RPR201", "src/repro/resilience/faults.py",
        "self._once_fired.add((site, key))", id="fault-injector-once",
    ),
    pytest.param(
        "numeric", "RPR301", "src/repro/core/failure/tddb.py",
        "np.broadcast_to(1.0 / mttf", id="tddb-batch-div-zero",
    ),
    pytest.param(
        "numeric", "RPR303", "src/repro/thermal/floorplan.py",
        "width = die * (area / total_area)", id="floorplan-empty-area",
    ),
    pytest.param(
        "numeric", "RPR301", "src/repro/core/ramp.py",
        "/ self.fit_target", id="fit-target-ramp-margin",
    ),
    pytest.param(
        "numeric", "RPR301", "src/repro/core/controllers.py",
        "error = (target - fit) / target", id="fit-target-controller",
    ),
    pytest.param(
        "numeric", "RPR301", "src/repro/core/combined.py",
        "fit / self.fit_target - 1.0", id="fit-target-joint-oracle",
    ),
    pytest.param(
        "hygiene", "RPR004", "src/repro/core/failure/base.py",
        'mttf == float("inf")', id="float-eq-inf",
    ),
    pytest.param(
        "hygiene", "RPR004", "src/repro/core/budget.py",
        "self.elapsed_hours == 0.0", id="float-eq-zero",
    ),
    pytest.param(
        "hygiene", "RPR006", "src/repro/harness/sweep.py",
        "except Exception:", id="broad-except-decode",
    ),
    pytest.param(
        "hygiene", "RPR001", "src/repro/config/technology.py",
        "vdd_nominal: float = 1.0", id="unit-suffix-vdd-nominal",
    ),
    pytest.param(
        "hygiene", "RPR005", "src/repro/core/failure/electromigration.py",
        "current_density_exponent: float = 1.1", id="constants-em-defaults",
    ),
    pytest.param(
        "hotpath", "RPR311", "src/repro/core/failure/electromigration.py",
        "arrhenius = math.exp(", id="scalar-math-exp-em",
    ),
    pytest.param(
        "hotpath", "RPR312", "src/repro/kernels/batch.py",
        "finite = np.isfinite(", id="salvage-concatenate-reduction",
    ),
]


def build(tree: str, root: Path) -> None:
    """Copy one corpus tree into ``root``, restoring the ``.py`` names."""
    base = CORPUS / tree
    for source in base.rglob("*.py.txt"):
        target = root / source.relative_to(base).with_suffix("")
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(source, target)


@pytest.mark.parametrize("tree, rule, path, line_text", DEFECTS)
def test_defect_is_reported_cold_and_warm(tmp_path, tree, rule, path, line_text):
    build(tree, tmp_path)
    cold = Analyzer(root=tmp_path).analyze_paths([tmp_path / "src"])
    warm = Analyzer(root=tmp_path).analyze_paths([tmp_path / "src"])
    assert cold.stats["parsed"] == cold.stats["files"]
    assert warm.stats["parsed"] == 0
    for result in (cold, warm):
        hits = [
            f for f in result.findings
            if (f.rule, f.path) == (rule, path) and line_text in f.snippet
        ]
        assert len(hits) == 1, [f.render() for f in result.findings]


def test_every_registered_rule_has_a_corpus_defect():
    assert {rule.id for rule in all_rules()} == {
        param.values[1] for param in DEFECTS
    }
