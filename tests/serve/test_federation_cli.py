"""The serve entry point, ``python -m repro.serve [--shards N]``.

Every flag is validated by the constructor that consumes it, so a bad
value ends as an argparse usage error (exit 2) before any service or
shard starts, never as a traceback, for one machine and for a fleet
alike; a fleet flag given at ``--shards 1`` is a usage error too, never
silently ignored; and every fleet it builds runs the failure detector.
"""

import pytest

from repro.serve.__main__ import _build_parser, build_service, main
from repro.serve.server import SchedulingService


@pytest.mark.parametrize(
    "argv",
    [
        ["--shards", "3", "--heartbeat-every", "0"],
        ["--shards", "3", "--suspect-after", "3", "--confirm-after", "3"],
        ["--shards", "3", "--shard-crash", "1.5"],
        ["--shards", "3", "--crash-after", "0", "2"],
        ["--shards", "3", "--respawn", "-1"],
        ["--shards", "0"],
        ["--max-attempts", "0"],
        ["--queue-capacity", "0"],
        ["--workers", "0"],
        ["--default-deadline", "-1"],
        ["--fault-spec", "bogus=1"],
        ["--shards", "1", "--vnodes", "64"],
    ],
)
def test_bad_flag_values_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--machine", "tiny", "--port", "0", *argv])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "error:" in err
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1


def test_membership_flag_is_an_unknown_argument(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--membership"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --membership" in capsys.readouterr().err


def test_one_shard_serves_a_plain_service():
    service = build_service(_build_parser().parse_args(["--machine", "tiny"]))
    assert type(service) is SchedulingService
    assert _build_parser().parse_args([]).port == 7077


def test_default_fleet_runs_the_default_detector():
    router = build_service(_build_parser().parse_args(["--shards", "3"])).router
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
