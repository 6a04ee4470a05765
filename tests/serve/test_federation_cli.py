"""The federation entry point, ``python -m repro.serve.federation``.

Every flag is validated by the constructor that consumes it, so a bad
value ends as an argparse usage error (exit 2) before any shard starts,
never as a traceback; and every fleet it builds runs the failure
detector.
"""

import pytest

from repro.serve.federation.__main__ import _build_parser, build_federation, main


@pytest.mark.parametrize(
    "argv",
    [
        ["--heartbeat-every", "0"],
        ["--suspect-after", "3", "--confirm-after", "3"],
        ["--shard-crash", "1.5"],
        ["--crash-after", "0", "2"],
        ["--respawn", "-1"],
        ["--shards", "0"],
    ],
)
def test_bad_flag_values_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--machine", "tiny", "--port", "0", *argv])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "error:" in err
    assert "Traceback" not in err


def test_membership_flag_is_an_unknown_argument(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--membership"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --membership" in capsys.readouterr().err


def test_default_fleet_runs_the_default_detector():
    router = build_federation(_build_parser().parse_args([])).router
    detector = router.membership
    assert (
        detector.heartbeat_every,
        detector.suspect_after,
        detector.confirm_after,
    ) == (5, 2, 3)
    assert sorted(router.shards) == ["shard-0", "shard-1", "shard-2"]
    assert router.membership_snapshot()["detector"]["counters"]["joins"] == 3
    # without --respawn a confirmed-dead shard stays dead
    assert router.supervisor is None
