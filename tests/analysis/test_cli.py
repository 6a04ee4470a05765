"""CLI contract: exit codes, JSON schema, rule selection, and the
``python -m repro.analysis`` entry point."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

DIRTY = """\
import time


def stamp():
    return time.time()
"""

CLEAN = """\
def stamp(clock):
    return clock.now
"""


@pytest.fixture
def tree(tmp_path, monkeypatch):
    """A tiny analyzable tree with one DET001 violation; cwd moved there
    so the relative ``src`` root and the default cache resolve inside it."""
    pkg = tmp_path / "src" / "repro" / "sim"
    pkg.mkdir(parents=True)
    (pkg / "fixture.py").write_text(DIRTY, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestExitCodes:
    def test_report_only_run_exits_zero(self, tree, capsys):
        assert main(["src"]) == 0
        out = capsys.readouterr().out
        assert "DET001" in out
        assert "1 finding(s)" in out

    def test_strict_run_fails_on_findings(self, tree, capsys):
        assert main(["src", "--strict"]) == 1

    def test_strict_run_passes_on_clean_tree(self, tree, capsys):
        (tree / "src" / "repro" / "sim" / "fixture.py").write_text(
            CLEAN, encoding="utf-8"
        )
        assert main(["src", "--strict"]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_unknown_rule_id_is_usage_error(self, tree, capsys):
        assert main(["src", "--select", "NOPE999"]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, tree, capsys):
        assert main(["no/such/dir", "--strict"]) == 2

    def test_stray_baseline_file_does_not_hide_findings(self, tree, capsys):
        # a finding list in the old grandfathering format, left in the
        # working directory, is not an input: --strict still fails
        assert main(["src", "--format", "json"]) == 0
        findings = json.loads(capsys.readouterr().out)["findings"]
        entries = [
            {"rule": f["rule"], "path": f["path"], "message": f["message"],
             "count": 1}
            for f in findings
        ]
        assert [e["rule"] for e in entries] == ["DET001"]
        Path("analysis-baseline.json").write_text(
            json.dumps({"version": 1, "findings": entries}), encoding="utf-8"
        )
        assert main(["src", "--strict"]) == 1
        assert "DET001" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [
        ["--baseline", "x"], ["--no-baseline"], ["--write-baseline"],
        ["--exclude", "x"],
    ])
    def test_removed_flags_are_usage_errors(self, tree, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["src", "--strict", *flag])
        assert exc.value.code == 2


class TestJsonOutput:
    def test_schema_keys_and_findings(self, tree, capsys):
        assert main(["src", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "version", "files_scanned", "files_parsed", "files_cached",
            "findings", "strict",
        }
        assert payload["version"] == 4
        assert payload["files_scanned"] == 1
        assert payload["files_parsed"] == 1
        assert payload["files_cached"] == 0
        assert payload["strict"] is False
        (finding,) = payload["findings"]
        assert finding["rule"] == "DET001"
        assert finding["path"].endswith("src/repro/sim/fixture.py")
        assert {"line", "col", "message"} <= set(finding)


class TestRuleSelection:
    def test_select_narrows_rules(self, tree, capsys):
        # the DET001 violation is invisible to a DET002-only run
        assert main(["src", "--strict", "--select", "DET002"]) == 0
        assert main(["src", "--strict", "--select", "DET002,DET001"]) == 1

    def test_ignore_drops_rules(self, tree, capsys):
        assert main(["src", "--strict", "--ignore", "DET001"]) == 0

    def test_list_rules_shows_full_catalog(self, tree, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "DET001", "DET002", "DET003", "ASY001",
            "LOCK001", "WIRE001", "EXC001", "SEED001",
        ):
            assert rule_id in out


class TestModuleEntryPoint:
    def test_python_dash_m_runs(self, tree):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "src", "--strict"],
            capture_output=True, text=True, env=env, cwd=tree,
        )
        assert proc.returncode == 1
        assert "DET001" in proc.stdout


class TestSuppressionEndToEnd:
    def test_noqa_clears_strict_run(self, tree, capsys):
        suppressed = textwrap.dedent(
            """\
            import time


            def stamp():
                return time.time()  # repro: noqa DET001 -- fixture banner
            """
        )
        (tree / "src" / "repro" / "sim" / "fixture.py").write_text(
            suppressed, encoding="utf-8"
        )
        assert main(["src", "--strict"]) == 0
