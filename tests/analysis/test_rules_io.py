"""Fixture tests for the I/O durability rule: IO001."""

from tests.analysis.conftest import EXP, OUTSIDE, SERVE, SIM


class TestIo001TruePositives:
    def test_open_write_mode_flagged(self, check):
        findings = check(
            EXP,
            """
            def save(path, text):
                with open(path, "w") as fh:
                    fh.write(text)
            """,
            select="IO001",
        )
        assert [f.rule for f in findings] == ["IO001"]
        assert "atomic_write" in findings[0].message

    def test_append_and_exclusive_modes_flagged(self, rule_ids):
        for mode in ("a", "xb", "r+", "wb"):
            assert rule_ids(
                SERVE,
                f"""
                def log(path, line):
                    fh = open(path, {mode!r})
                """,
                select="IO001",
            ) == ["IO001"], mode

    def test_append_handle_in_exp_module_flagged(self, rule_ids):
        """No exp/ module is exempt: an append-only handle tears too."""
        assert rule_ids(
            EXP,
            """
            def _open(path):
                return open(path, "ab")
            """,
            select="IO001",
        ) == ["IO001"]

    def test_mode_keyword_flagged(self, rule_ids):
        assert rule_ids(
            EXP,
            """
            def save(path):
                open(path, mode="w").write("x")
            """,
            select="IO001",
        ) == ["IO001"]

    def test_path_write_text_flagged(self, check):
        findings = check(
            EXP,
            """
            def save(path, payload):
                path.write_text(payload)
            """,
            select="IO001",
        )
        assert [f.rule for f in findings] == ["IO001"]
        assert "write_text" in findings[0].message

    def test_path_write_bytes_flagged(self, rule_ids):
        assert rule_ids(
            SERVE,
            """
            def save(path, payload):
                path.write_bytes(payload)
            """,
            select="IO001",
        ) == ["IO001"]

    def test_path_open_write_flagged(self, rule_ids):
        assert rule_ids(
            EXP,
            """
            def save(path, text):
                with path.open("w") as fh:
                    fh.write(text)
            """,
            select="IO001",
        ) == ["IO001"]

    def test_from_import_alias_flagged(self, rule_ids):
        assert rule_ids(
            EXP,
            """
            from io import open as iopen

            def save(path, text):
                iopen(path, "w").write(text)
            """,
            select="IO001",
        ) == ["IO001"]


class TestIo001FalsePositiveGuards:
    def test_guard_read_modes_ok(self, rule_ids):
        assert rule_ids(
            EXP,
            """
            def load(path):
                with open(path) as fh:
                    default = fh.read()
                with open(path, "rb") as fh:
                    return fh.read() or default
            """,
            select="IO001",
        ) == []

    def test_guard_read_text_read_bytes_ok(self, rule_ids):
        assert rule_ids(
            SERVE,
            """
            def load(path):
                return path.read_text() + str(path.read_bytes())
            """,
            select="IO001",
        ) == []

    def test_guard_non_constant_mode_undecidable_ok(self, rule_ids):
        assert rule_ids(
            EXP,
            """
            def reopen(path, mode):
                return open(path, mode)
            """,
            select="IO001",
        ) == []

    def test_guard_atomic_write_itself_ok(self, rule_ids):
        assert rule_ids(
            EXP,
            """
            from repro.ioutil import atomic_write

            def save(path, text):
                atomic_write(path, text)
            """,
            select="IO001",
        ) == []

    def test_guard_outside_durable_packages_ok(self, rule_ids):
        snippet = """
        def save(path, text):
            path.write_text(text)
            open(path, "w").write(text)
        """
        assert rule_ids(SIM, snippet, select="IO001") == []
        assert rule_ids(OUTSIDE, snippet, select="IO001") == []

    def test_noqa_suppression_respected(self, rule_ids):
        assert rule_ids(
            EXP,
            """
            def save(path, text):
                path.write_text(text)  # repro: noqa IO001 -- scratch file, never trusted
            """,
            select="IO001",
        ) == []
