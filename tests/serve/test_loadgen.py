"""The load generator, ``python -m repro.serve.loadgen``.

Each run drives a self-hosted service over the wire and must account for
every job it sent; a bad flag value is an argparse usage error (exit 2)
raised before any service starts, never a traceback.
"""

import json

import pytest

from repro.serve import loadgen
from repro.serve.server import SchedulingService

CLIENTS, JOBS_PER_CLIENT = 2, 2

BASE = [
    "--self-host",
    "--machine", "small",
    "--clients", str(CLIENTS),
    "--jobs-per-client", str(JOBS_PER_CLIENT),
    "--timesteps", "2",
    "--json",
]

CHAOS = [
    "--fault-spec", "crash=0.2,transient=0.2,deadline=0.1,disconnect=0.2",
    "--fault-seed", "7",
    "--deadline-s", "30",
    "--retry-submit", "4",
]


@pytest.mark.parametrize(
    "extra",
    [[], ["--mode", "open", "--rate", "20"], CHAOS],
    ids=["closed", "open", "chaos"],
)
def test_run_accounts_for_every_job(extra, capsys):
    assert loadgen.main([*BASE, *extra]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["finished"] + summary["rejected"] == CLIENTS * JOBS_PER_CLIENT
    server = summary["server"]
    assert server["service"]["draining"]
    jobs = server["jobs"]
    assert jobs["active"] == jobs["queued"] == 0
    assert jobs["submitted"] == jobs["completed"] + jobs["failed"] + jobs["evicted"]
    assert all(owner is None for owner in server["nodes"]["leases"].values())
    if extra is CHAOS:
        assert sum(summary["faults"]["injected"].values()) >= 1


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param([*BASE, "--mode", "open", "--rate", "0"], id="rate-zero"),
        pytest.param([*BASE, "--mode", "open", "--rate", "-2"], id="rate-negative"),
        pytest.param([*BASE, "--fault-spec", "bogus=1"], id="unknown-fault"),
        pytest.param([*BASE, "--fault-spec", "crash=2"], id="fault-probability"),
        pytest.param(
            [*BASE, "--fault-spec", "crash=0.2", "--fault-attempts", "0"],
            id="fault-attempts",
        ),
        pytest.param([*BASE, "--max-attempts", "0"], id="max-attempts"),
        pytest.param([*BASE, "--queue-capacity", "0"], id="queue-capacity"),
        pytest.param([*BASE, "--deadline-s", "-1"], id="deadline"),
        pytest.param([*BASE, "--connect", "127.0.0.1:7077"], id="connect-and-self-host"),
        pytest.param(["--fault-spec", "crash=0.2"], id="server-fault-without-self-host"),
    ],
)
def test_bad_flag_values_are_usage_errors(argv, capsys, monkeypatch):
    def no_start(*_args, **_kwargs):
        raise AssertionError("a service started before its flags were checked")

    monkeypatch.setattr(SchedulingService, "start", no_start)
    with pytest.raises(SystemExit) as excinfo:
        loadgen.main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    error_lines = [line for line in err.splitlines() if "error:" in line]
    assert len(error_lines) == 1 and err.endswith(error_lines[0] + "\n")
