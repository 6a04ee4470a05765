"""Crash recovery: SIGKILL a campaign mid-run, then rerun the same command.

The run cache is the only crash-recovery path.  Each run is stored the
moment it completes, so a campaign killed at any point loses only the
runs still executing; rerunning the same command against the same cache
simulates only the missing runs and writes byte-identical results, and a
damaged entry is quarantined and recomputed rather than trusted.

The crash seam belongs to these tests, not to the program: a ``python
-c`` prelude (:data:`CRASH_SEAM`) wraps one function so the campaign
SIGKILLs itself right after that function's n-th call returns, then
calls :func:`repro.exp.cli.main`.  At ``--jobs 1`` it wraps
``repro.exp.runner.execute_spec`` (the kill lands between a simulation
and its store); at ``--jobs 2`` the runs execute in worker processes, so
it wraps ``ResultCache.put`` in the campaign process instead.
"""

import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")

SRC = Path(__file__).resolve().parents[2] / "src"
CAMPAIGN = ["fig2", "--machine", "tiny", "--seeds", "2", "--timesteps", "2",
            "--benchmarks", "matmul", "cg"]
RUNS = 8  # 2 benchmarks x 2 schedulers x 2 seeds
TIMEOUT = 120

#: ``python -c`` prelude: ``argv[1]`` names the function to wrap as
#: ``module:attribute.path``, ``argv[2]`` is n, the rest is the campaign.
CRASH_SEAM = """
import importlib, os, signal, sys
target, n, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
module, _, path = target.partition(":")
*owners, name = path.split(".")
owner = importlib.import_module(module)
for attr in owners:
    owner = getattr(owner, attr)
real = getattr(owner, name)
calls = []

def crash_after_nth_call(*args, **kwargs):
    result = real(*args, **kwargs)
    calls.append(None)
    if len(calls) == n:
        os.kill(os.getpid(), signal.SIGKILL)
    return result

setattr(owner, name, crash_after_nth_call)
from repro.exp.cli import main
sys.exit(main(argv))
"""

EXECUTE_SPEC = "repro.exp.runner:execute_spec"
CACHE_PUT = "repro.exp.cache:ResultCache.put"

_STATS = re.compile(r"(\d+) hit\(s\), (\d+) miss\(es\), (\d+) new run\(s\) stored")


def run_campaign(workdir, *flags, crash=None):
    """One campaign against ``workdir``'s cache, saving to
    ``workdir/results.json``; ``crash=(target, n)`` kills it through
    :data:`CRASH_SEAM`."""
    env = dict(os.environ, PYTHONPATH=str(SRC),
               REPRO_CACHE_DIR=str(workdir / "cache"))
    argv = [*CAMPAIGN, *flags, "--save", str(workdir / "results.json")]
    if crash is None:
        cmd = [sys.executable, "-m", "repro.exp.cli", *argv]
    else:
        target, n = crash
        cmd = [sys.executable, "-c", CRASH_SEAM, target, str(n), *argv]
    # output goes to a file, not a pipe: the pool workers of a killed
    # campaign outlive it and would hold a pipe open
    log = workdir / "campaign.log"
    with open(log, "w") as out:
        proc = subprocess.Popen(cmd, env=env, stdout=out,
                                stderr=subprocess.STDOUT, start_new_session=True)
    try:
        returncode = proc.wait(timeout=TIMEOUT)
    finally:  # reap the campaign's whole session, orphaned workers included
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return subprocess.CompletedProcess(cmd, returncode, log.read_text())


def cache_stats(proc):
    """(hits, misses, stored) from the campaign's run-cache summary line."""
    match = _STATS.search(proc.stdout)
    assert match, proc.stdout
    return tuple(int(group) for group in match.groups())


def stored_entries(workdir):
    return sorted((workdir / "cache").glob("??/*.json"))


def assert_killed_before_saving(proc, workdir, golden_bytes):
    assert proc.returncode == -signal.SIGKILL, proc.stdout
    results = workdir / "results.json"
    assert not results.exists() or results.read_bytes() == golden_bytes


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """The saved results of one uninterrupted campaign."""
    workdir = tmp_path_factory.mktemp("golden")
    proc = run_campaign(workdir)
    assert proc.returncode == 0, proc.stdout
    assert cache_stats(proc) == (0, RUNS, RUNS)
    return (workdir / "results.json").read_bytes()


@pytest.mark.parametrize("crash_after", [3, 7])
def test_sigkill_then_resume_is_byte_identical(golden, tmp_path, crash_after):
    """A kill right after the n-th simulation returns loses only that run;
    the rerun simulates and stores only the missing runs."""
    crashed = run_campaign(tmp_path, crash=(EXECUTE_SPEC, crash_after))
    assert_killed_before_saving(crashed, tmp_path, golden)
    assert len(stored_entries(tmp_path)) == crash_after - 1

    rerun = run_campaign(tmp_path)
    assert rerun.returncode == 0, rerun.stdout
    kept = crash_after - 1
    assert cache_stats(rerun) == (kept, RUNS - kept, RUNS - kept)
    assert (tmp_path / "results.json").read_bytes() == golden
    # a clean crash corrupts nothing
    assert not (tmp_path / "cache" / "quarantine").exists()


def test_resume_after_commit_skips_recompute(golden, tmp_path):
    """At ``--jobs 2``, a kill right after the n-th run is stored reruns
    with exactly those n runs served from the cache."""
    stored = 3
    crashed = run_campaign(tmp_path, "--jobs", "2", crash=(CACHE_PUT, stored))
    assert_killed_before_saving(crashed, tmp_path, golden)
    assert len(stored_entries(tmp_path)) == stored

    rerun = run_campaign(tmp_path, "--jobs", "2")
    assert rerun.returncode == 0, rerun.stdout
    assert cache_stats(rerun) == (stored, RUNS - stored, RUNS - stored)
    assert (tmp_path / "results.json").read_bytes() == golden
    assert not (tmp_path / "cache" / "quarantine").exists()


def test_corrupted_cache_entry_is_quarantined_and_recomputed(golden, tmp_path):
    crashed = run_campaign(tmp_path, crash=(EXECUTE_SPEC, 5))
    assert_killed_before_saving(crashed, tmp_path, golden)
    entries = stored_entries(tmp_path)
    assert len(entries) == 4
    raw = bytearray(entries[0].read_bytes())
    raw[-10] ^= 0xFF
    entries[0].write_bytes(bytes(raw))

    rerun = run_campaign(tmp_path)
    assert rerun.returncode == 0, rerun.stdout
    assert cache_stats(rerun) == (3, RUNS - 3, RUNS - 3)
    assert (tmp_path / "results.json").read_bytes() == golden
    quarantine = tmp_path / "cache" / "quarantine"
    assert len(list(quarantine.iterdir())) == 1
