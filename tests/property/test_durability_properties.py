"""Property-based tests for the durability layer.

**Cache corruption detection**, quantified over adversarial inputs:
flipping any single byte of a stored cache entry (or truncating it
anywhere) is detected by the SHA-256 content checksum and the entry is
quarantined, never served.  The run cache is the only crash-recovery
path, so this is what makes a rerun after a crash trustworthy.
"""

import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.exp.cache import ResultCache, run_key, run_to_json
from tests.exp.test_cache import BASE_KEY_KWARGS, synthetic_run

# ----------------------------------------------------------------------
# cache corruption detection
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def entry_bytes(tmp_path_factory):
    """One stored cache entry's exact on-disk bytes (computed once)."""
    cache = ResultCache(tmp_path_factory.mktemp("seed-cache"), fsync=False)
    key = run_key(**BASE_KEY_KWARGS)
    cache.put(key, synthetic_run())
    return key, cache.path_for(key).read_bytes()


@given(offset=st.integers(min_value=0), flip=st.integers(min_value=1, max_value=255))
@example(offset=0, flip=1)      # first header byte
@example(offset=-1, flip=0x80)  # last payload byte (via modulo below)
@settings(max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_single_byte_flip_is_quarantined_never_served(
    entry_bytes, tmp_path, offset, flip
):
    key, raw = entry_bytes
    # tmp_path is shared across the examples of one @given run; every
    # example gets its own cache root so quarantine counts don't leak
    cache = ResultCache(tempfile.mkdtemp(dir=tmp_path), fsync=False)
    path = cache.path_for(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    corrupted = bytearray(raw)
    corrupted[offset % len(raw)] ^= flip
    path.write_bytes(bytes(corrupted))

    assert cache.get(key) is None           # never served
    assert not path.exists()                # moved aside...
    assert len(list(cache.quarantine_root.iterdir())) == 1  # ...into quarantine
    assert cache.stats.quarantined == 1

    # and the slot heals: an honest recompute round-trips
    run = synthetic_run()
    cache.put(key, run)
    got = cache.get(key)
    assert got is not None and run_to_json(got) == run_to_json(run)


@given(cut=st.integers(min_value=0))
@settings(max_examples=30,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_truncation_at_any_point_is_quarantined(entry_bytes, tmp_path, cut):
    key, raw = entry_bytes
    # tmp_path is shared across the examples of one @given run; every
    # example gets its own cache root so quarantine counts don't leak
    cache = ResultCache(tempfile.mkdtemp(dir=tmp_path), fsync=False)
    path = cache.path_for(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(raw[: cut % len(raw)])  # strictly shorter than raw

    assert cache.get(key) is None
    assert len(list(cache.quarantine_root.iterdir())) == 1


@given(junk=st.binary(min_size=0, max_size=200))
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_arbitrary_bytes_never_crash_the_reader(entry_bytes, tmp_path, junk):
    """`get` over any garbage is a quarantining miss, never an exception."""
    key, _ = entry_bytes
    cache = ResultCache(tempfile.mkdtemp(dir=tmp_path), fsync=False)
    path = cache.path_for(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(junk)
    assert cache.get(key) is None
    assert not path.exists()
