"""Content-hash cache: hit/miss contract, corruption tolerance, and the
warm-run CLI guarantee (second run re-parses zero unchanged files)."""

import json
from pathlib import Path

from repro.analysis.cache import (
    CACHE_DIR_DEFAULT,
    AnalysisCache,
    CacheEntry,
    analyzer_fingerprint,
    content_digest,
)
from repro.analysis.cli import main
from repro.analysis.engine import Finding
from repro.analysis.project import ModuleSummary

DIRTY = """\
import time


def stamp():
    return time.time()
"""


def entry_for(path="src/x.py", digest="d1"):
    return CacheEntry(
        digest=digest,
        findings=[Finding(path=path, line=1, col=0, rule="DET001", message="m")],
        summary=ModuleSummary(
            path=path, module="x", package=None, imports={},
            module_locks=[], functions=[], classes=[], id_sites=[],
        ),
        suppressions={3: frozenset({"DET001"}), 5: frozenset()},
    )


class TestCacheStore:
    def test_round_trip(self, tmp_path):
        cache = AnalysisCache(tmp_path / "cache", "fp")
        cache.store("src/x.py", entry_for())
        loaded = cache.load("src/x.py", "d1")
        assert loaded is not None
        assert loaded.findings == entry_for().findings
        assert loaded.suppressions == {3: frozenset({"DET001"}), 5: frozenset()}
        assert cache.hits == 1 and cache.stores == 1

    def test_digest_mismatch_is_a_miss(self, tmp_path):
        cache = AnalysisCache(tmp_path / "cache", "fp")
        cache.store("src/x.py", entry_for(digest="d1"))
        assert cache.load("src/x.py", "d2") is None
        assert cache.misses == 1

    def test_fingerprint_mismatch_is_a_miss(self, tmp_path):
        cache = AnalysisCache(tmp_path / "cache", "fp-old")
        cache.store("src/x.py", entry_for())
        fresh = AnalysisCache(tmp_path / "cache", "fp-new")
        assert fresh.load("src/x.py", "d1") is None

    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path):
        cache = AnalysisCache(tmp_path / "cache", "fp")
        cache.store("src/x.py", entry_for())
        (entry_file,) = list((tmp_path / "cache").glob("*.json"))
        entry_file.write_text("{not json", encoding="utf-8")
        assert cache.load("src/x.py", "d1") is None

    def test_fingerprint_depends_on_rule_selection(self):
        assert analyzer_fingerprint(["DET001"]) != analyzer_fingerprint(
            ["DET001", "LOCK002"]
        )

    def test_content_digest_is_byte_exact(self):
        assert content_digest(b"a") != content_digest(b"a ")


class TestWarmRuns:
    def _tree(self, tmp_path, monkeypatch):
        pkg = tmp_path / "src" / "repro" / "sim"
        pkg.mkdir(parents=True)
        (pkg / "fixture.py").write_text(DIRTY, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        return pkg / "fixture.py"

    def _run_json(self, capsys, *argv):
        code = main(["src", "--format", "json", *argv])
        return code, json.loads(capsys.readouterr().out)

    def test_second_run_reparses_zero_files(self, tmp_path, monkeypatch, capsys):
        self._tree(tmp_path, monkeypatch)
        _, cold = self._run_json(capsys)
        assert cold["files_parsed"] == 1 and cold["files_cached"] == 0
        _, warm = self._run_json(capsys)
        assert warm["files_parsed"] == 0
        assert warm["files_cached"] == warm["files_scanned"] == 1
        # identical findings either way
        assert warm["findings"] == cold["findings"]

    def test_edited_file_reparses_only_itself(self, tmp_path, monkeypatch, capsys):
        fixture = self._tree(tmp_path, monkeypatch)
        other = fixture.with_name("clean.py")
        other.write_text("x = 1\n", encoding="utf-8")
        self._run_json(capsys)
        fixture.write_text(DIRTY + "\n# touched\n", encoding="utf-8")
        _, warm = self._run_json(capsys)
        assert warm["files_scanned"] == 2
        assert warm["files_parsed"] == 1  # only the edited file
        assert warm["files_cached"] == 1

    def test_no_cache_flag_disables(self, tmp_path, monkeypatch, capsys):
        self._tree(tmp_path, monkeypatch)
        self._run_json(capsys)
        _, run = self._run_json(capsys, "--no-cache")
        assert run["files_parsed"] == 1 and run["files_cached"] == 0

    def test_cache_lives_under_the_default_hidden_dir(
        self, tmp_path, monkeypatch, capsys
    ):
        self._tree(tmp_path, monkeypatch)
        self._run_json(capsys)
        assert list(Path(CACHE_DIR_DEFAULT).glob("*.json"))
        # ...and the iterator never scans its own cache
        _, warm = self._run_json(capsys)
        assert warm["files_scanned"] == 1

    def test_explicit_cache_dir_enables_without_project(
        self, tmp_path, monkeypatch, capsys
    ):
        """The cache needs no mode flag; ``--cache-dir`` only moves it."""
        self._tree(tmp_path, monkeypatch)
        assert main(["src", "--cache-dir", "warmdir", "--format", "json"]) == 0
        capsys.readouterr()
        assert main(["src", "--cache-dir", "warmdir", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_parsed"] == 0
        assert (tmp_path / "warmdir").is_dir()
        assert not (tmp_path / CACHE_DIR_DEFAULT).exists()
