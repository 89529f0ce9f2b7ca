"""``python -m repro analyze`` contract: exit codes, formats, modes.

Exit codes: 0 clean, 1 findings, 2 usage error.  Each test runs the
real CLI entry point against a fixture tree, chdir'd so default paths
and the cache resolve inside ``tmp_path``.
"""

import json
import textwrap

import pytest

from repro.cli import main

CLEAN = """
    def solve(temperature_k: float):
        return temperature_k
"""

DIRTY = """
    def check(x):
        return x == 1.5
"""


@pytest.fixture
def project(tmp_path, monkeypatch):
    def build(src=CLEAN, tests="x = 1\n"):
        (tmp_path / "src").mkdir(exist_ok=True)
        (tmp_path / "tests").mkdir(exist_ok=True)
        (tmp_path / "src" / "mod.py").write_text(
            textwrap.dedent(src), encoding="utf-8"
        )
        (tmp_path / "tests" / "test_mod.py").write_text(
            textwrap.dedent(tests), encoding="utf-8"
        )
        monkeypatch.chdir(tmp_path)
        return tmp_path

    return build


class TestExitCodes:
    def test_clean_tree_exits_zero(self, project, capsys):
        project()
        assert main(["analyze"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, project, capsys):
        project(src=DIRTY)
        assert main(["analyze"]) == 1
        assert "RPR004" in capsys.readouterr().out

    def test_missing_path_is_usage_error(self, project, capsys):
        project()
        assert main(["analyze", "no/such/dir"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_unknown_rule_id_is_usage_error(self, project, capsys):
        project()
        assert main(["analyze", "--select", "RPR999"]) == 2
        assert "RPR999" in capsys.readouterr().err

    def test_unknown_flag_raises_systemexit_two(self, project):
        project()
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flag", ["--no-baseline", "--update-baseline", "--no-cache", "--jobs=2"]
    )
    def test_retired_flags_are_usage_errors(self, project, flag):
        project()
        with pytest.raises(SystemExit) as exc:
            main(["analyze", flag])
        assert exc.value.code == 2


class TestOutputs:
    def test_json_format_is_parseable(self, project, capsys):
        project(src=DIRTY)
        assert main(["analyze", "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["findings"] == 1

    def test_sarif_written_to_output_file(self, project, tmp_path):
        project(src=DIRTY)
        out = tmp_path / "report.sarif"
        assert main(["analyze", "--format", "sarif", "--output", str(out)]) == 1
        sarif = json.loads(out.read_text(encoding="utf-8"))
        assert sarif["version"] == "2.1.0"
        assert sarif["runs"][0]["results"][0]["ruleId"] == "RPR004"

    def test_verbose_lists_suppressed_findings(self, project, capsys):
        project(src="""
            def check(x):
                return x == 1.5  # repro: ignore[RPR004] fixture
        """)
        assert main(["analyze"]) == 0
        assert "mod.py" not in capsys.readouterr().out
        assert main(["analyze", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "suppressed (justified inline):" in out
        assert "src/mod.py:3:17 RPR004" in out

    def test_list_rules(self, project, capsys):
        project()
        assert main(["analyze", "--list-rules"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed == [
            "RPR001", "RPR004", "RPR005", "RPR006", "RPR201",
            "RPR301", "RPR303", "RPR311", "RPR312",
        ]

    def test_explain_documents_a_rule(self, project, capsys):
        project()
        assert main(["analyze", "--explain", "RPR301"]) == 0
        text = capsys.readouterr().out
        assert text.startswith("RPR301 (reachable-domain-error)")
        assert "example:" in text
        assert "# repro: ignore[RPR301]" in text

    def test_select_limits_rules(self, project):
        project(src=DIRTY)
        assert main(["analyze", "--select", "RPR001"]) == 0
        assert main(["analyze", "--select", "RPR004"]) == 1

    def test_pyproject_config_paths(self, project):
        root = project(src=CLEAN)
        (root / "extra").mkdir()
        (root / "extra" / "mod.py").write_text(
            textwrap.dedent(DIRTY), encoding="utf-8"
        )
        (root / "pyproject.toml").write_text(
            '[tool.repro.analysis]\npaths = ["extra"]\n', encoding="utf-8"
        )
        assert main(["analyze"]) == 1


def _git(root, *args):
    import subprocess

    subprocess.run(
        ["git", "-c", "user.email=t@example.com", "-c", "user.name=t",
         *args],
        cwd=root, check=True, capture_output=True,
    )


class TestChangedMode:
    def test_reports_only_changed_files(self, project, capsys):
        root = project(src=DIRTY)
        (root / "src" / "other.py").write_text(
            textwrap.dedent(CLEAN), encoding="utf-8"
        )
        _git(root, "init", "-q")
        _git(root, "add", "-A")
        _git(root, "commit", "-qm", "seed")
        # The committed finding in mod.py is not reported; a fresh
        # finding in the edited file is.
        (root / "src" / "other.py").write_text(
            textwrap.dedent(DIRTY), encoding="utf-8"
        )
        assert main(["analyze", "--changed"]) == 1
        out = capsys.readouterr().out
        assert "other.py" in out
        assert "mod.py" not in out

    def test_no_changes_short_circuits_clean(self, project, capsys):
        root = project(src=DIRTY)
        _git(root, "init", "-q")
        _git(root, "add", "-A")
        _git(root, "commit", "-qm", "seed")
        assert main(["analyze", "--changed"]) == 0
        assert "no changed python files" in capsys.readouterr().err

    def test_untracked_files_count_as_changed(self, project, capsys):
        root = project(src=CLEAN)
        _git(root, "init", "-q")
        _git(root, "add", "-A")
        _git(root, "commit", "-qm", "seed")
        (root / "src" / "fresh.py").write_text(
            textwrap.dedent(DIRTY), encoding="utf-8"
        )
        assert main(["analyze", "--changed"]) == 1
        assert "fresh.py" in capsys.readouterr().out

    def test_outside_git_falls_back_to_full_run(self, project, capsys):
        project(src=DIRTY)
        assert main(["analyze", "--changed"]) == 1
        assert "running on everything" in capsys.readouterr().err


class TestStatsJson:
    def test_stats_json_written(self, project, tmp_path):
        project()
        out = tmp_path / "stats.json"
        assert main(["analyze", "--stats-json", str(out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["duration_s"] >= 0.0
        assert payload["files"] == payload["parsed"] == 2

    def test_warm_run_reports_cache_layers(self, project, tmp_path):
        project()
        out = tmp_path / "stats.json"
        assert main(["analyze", "--stats-json", str(out)]) == 0
        assert main(["analyze", "--stats-json", str(out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["cached"] == payload["files"]
        assert payload["harvest_hits"] == payload["files"]
        assert payload["parsed"] == 0
