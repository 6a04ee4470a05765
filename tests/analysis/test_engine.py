"""Engine mechanics: suppression semantics, parse failures, encoding
edge cases, file iteration, name resolution, package scoping, ordering."""

import ast
import os

import pytest

from repro.analysis import PROJECT_RULES, analyze_source, select_rules
from repro.analysis.engine import (
    PARSE_RULE_ID,
    Module,
    decode_source,
    iter_python_files,
)
from repro.analysis.run import analyze_project_paths
from repro.analysis.suppress import line_suppressions
from tests.analysis.conftest import OUTSIDE, SIM


class TestSuppressions:
    def test_matching_rule_noqa_suppresses(self, check):
        findings = check(
            SIM,
            """
            import time
            t = time.time()  # repro: noqa DET001 -- fixture banner only
            """,
            select="DET001",
        )
        assert findings == []

    def test_bare_noqa_suppresses_every_rule(self, check):
        findings = check(
            SIM,
            """
            import time
            t = time.time()  # repro: noqa
            """,
            select="DET001",
        )
        assert findings == []

    def test_wrong_rule_noqa_does_not_suppress(self, check):
        findings = check(
            SIM,
            """
            import time
            t = time.time()  # repro: noqa DET002 -- wrong rule id
            """,
            select="DET001",
        )
        assert [f.rule for f in findings] == ["DET001"]

    def test_noqa_is_per_line_not_per_file(self, check):
        findings = check(
            SIM,
            """
            import time
            a = time.time()  # repro: noqa DET001 -- this line only
            b = time.time()
            """,
            select="DET001",
        )
        assert [f.line for f in findings] == [4]

    def test_multi_rule_list_parsed(self):
        table = line_suppressions(["x = 1  # repro: noqa DET001, DET003 -- why"])
        assert table == {1: frozenset({"DET001", "DET003"})}

    def test_plain_flake8_noqa_is_not_ours(self):
        assert line_suppressions(["x = 1  # noqa: E501"]) == {}


class TestParseFailure:
    def test_syntax_error_becomes_parse000(self, check):
        findings = check(SIM, "def broken(:\n")
        assert [f.rule for f in findings] == [PARSE_RULE_ID]
        assert "does not parse" in findings[0].message

    def test_null_bytes_become_parse000_not_a_crash(self, check):
        findings = check(SIM, "x = 1\0\n")
        assert [f.rule for f in findings] == [PARSE_RULE_ID]

    def test_empty_file_is_clean(self, check):
        assert check(SIM, "") == []


class TestEncodingEdgeCases:
    def test_bom_is_stripped(self):
        assert decode_source(b"\xef\xbb\xbfx = 1\n") == "x = 1\n"

    def test_undecodable_bytes_replaced_not_fatal(self):
        text = decode_source(b"x = 1  # caf\xe9\n")
        assert text.startswith("x = 1")

    def test_bom_file_analyzes_clean_on_disk(self, tmp_path):
        target = tmp_path / "src" / "repro" / "sim"
        target.mkdir(parents=True)
        (target / "bom.py").write_bytes(b"\xef\xbb\xbfx = 1\n")
        result = analyze_project_paths(
            [tmp_path / "src"], select_rules(), PROJECT_RULES
        )
        assert result.files_scanned == 1
        assert result.findings == []

    def test_binary_file_reports_diagnostic_not_crash(self, tmp_path):
        (tmp_path / "junk.py").write_bytes(b"\x00\x01\x02\xff")
        result = analyze_project_paths([tmp_path], select_rules(), PROJECT_RULES)
        assert result.files_scanned == 1
        assert [f.rule for f in result.findings] == [PARSE_RULE_ID]

    @pytest.mark.skipif(os.geteuid() == 0, reason="root ignores file modes")
    def test_unreadable_file_reports_diagnostic(self, tmp_path):
        target = tmp_path / "locked.py"
        target.write_text("x = 1\n", encoding="utf-8")
        target.chmod(0)
        try:
            result = analyze_project_paths(
                [tmp_path], select_rules(), PROJECT_RULES
            )
        finally:
            target.chmod(0o644)
        assert result.files_scanned == 1
        assert [f.rule for f in result.findings] == [PARSE_RULE_ID]
        assert "cannot be read" in result.findings[0].message


class TestFileIteration:
    @pytest.fixture
    def tree(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("", encoding="utf-8")
        (tmp_path / "pkg" / "b.py").write_text("", encoding="utf-8")
        for skipped in ("__pycache__", "quarantine", ".repro-analysis-cache", ".git"):
            (tmp_path / "pkg" / skipped).mkdir()
            (tmp_path / "pkg" / skipped / "x.py").write_text("", encoding="utf-8")
        return tmp_path

    def test_skip_directories_never_descended(self, tree):
        names = [p.name for p in iter_python_files([tree])]
        assert names == ["a.py", "b.py"]

    def test_explicit_file_in_skipped_dir_is_analyzed(self, tree):
        target = tree / "pkg" / "__pycache__" / "x.py"
        assert list(iter_python_files([target])) == [target]

    def test_scanning_dot_works(self, tree, monkeypatch):
        monkeypatch.chdir(tree)
        names = [p.name for p in iter_python_files(["."])]
        assert names == ["a.py", "b.py"]

    def test_missing_path_raises(self, tree):
        with pytest.raises(FileNotFoundError):
            list(iter_python_files([tree / "nope"]))


class TestNameResolution:
    @staticmethod
    def _module(path, source):
        return Module(path, source, ast.parse(source))

    def test_import_alias_table(self):
        mod = self._module(
            OUTSIDE,
            "import numpy as np\nfrom time import monotonic as mono\n",
        )
        assert mod.imports["np"] == "numpy"
        assert mod.imports["mono"] == "time.monotonic"

    def test_attribute_chain_through_alias(self):
        mod = self._module(OUTSIDE, "import numpy as np\nx = np.random.default_rng\n")
        attr = mod.tree.body[1].value
        assert mod.qualified_name(attr) == "numpy.random.default_rng"

    def test_relative_import_resolved_against_package(self):
        mod = self._module(
            "src/repro/serve/client.py", "from ..sim.rng import pyrandom\n"
        )
        assert mod.imports["pyrandom"] == "repro.sim.rng.pyrandom"

    def test_non_name_roots_resolve_to_none(self):
        mod = self._module(OUTSIDE, "x = factory().make\n")
        attr = mod.tree.body[0].value
        assert mod.qualified_name(attr) is None


class TestPackageScoping:
    def test_repro_package_extraction(self):
        mod = Module("src/repro/sim/rng.py", "", ast.parse(""))
        assert mod.repro_package == ("sim", "rng")
        assert mod.in_packages(("sim", "core"))
        assert not mod.in_packages(("serve",))

    def test_paths_outside_repro_have_no_package(self):
        mod = Module("scripts/calibrate.py", "", ast.parse(""))
        assert mod.repro_package is None
        assert not mod.in_packages(("sim",))

    def test_dotted_entries_scope_to_sub_packages(self):
        fed = Module("src/repro/serve/federation/router.py", "", ast.parse(""))
        serve = Module("src/repro/serve/server.py", "", ast.parse(""))
        assert fed.in_packages(("serve.federation",))
        assert not serve.in_packages(("serve.federation",))
        # a plain package entry still covers its sub-packages
        assert fed.in_packages(("serve",))
        assert serve.in_packages(("serve",))
        # a dotted prefix must match whole components, not substrings
        assert not Module(
            "src/repro/serve/federation2/x.py", "", ast.parse("")
        ).in_packages(("serve.federation",))


class TestOutputContract:
    def test_findings_sorted_and_deduplicated(self):
        src = "import time\nb = time.time()\na = time.time()\n"
        findings = analyze_source(SIM, src, select_rules("DET001"))
        assert [f.line for f in findings] == [2, 3]
        assert len(set(findings)) == len(findings)

    def test_render_and_baseline_key_shapes(self):
        src = "import time\nt = time.time()\n"
        (finding,) = analyze_source(SIM, src, select_rules("DET001"))
        assert finding.render().startswith(f"{SIM}:2:")
        assert set(finding.to_json()) == {"rule", "path", "line", "col", "message"}
