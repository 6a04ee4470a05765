"""Unit tests for the service wire protocol and job model."""

import asyncio

import pytest

from repro.serve.protocol import (
    AdmissionRejected,
    JobRecord,
    JobRequest,
    JobState,
    LeaseError,
    ProtocolError,
    decode_message,
    encode_message,
    error_response,
    ok_response,
    raise_for_error,
    read_message,
)


# ----------------------------------------------------------------------
# JobRequest
# ----------------------------------------------------------------------
def test_request_wire_round_trip():
    req = JobRequest(benchmark="matmul", scheduler="ilan", seeds=3,
                     timesteps=7, nodes=2, tenant="alice")
    assert JobRequest.from_wire(req.to_wire()) == req


def test_request_defaults_fill_in():
    req = JobRequest.from_wire({"benchmark": "ft"})
    assert req.scheduler == "ilan"
    assert req.seeds == 1
    assert req.timesteps is None
    assert req.nodes == 1
    assert req.tenant == "anon"


def test_request_rejects_unknown_fields():
    with pytest.raises(ProtocolError, match="unknown job request field"):
        JobRequest.from_wire({"benchmark": "ft", "priority": 9})


@pytest.mark.parametrize(
    "bad",
    [
        {},  # missing benchmark
        {"benchmark": ""},
        {"benchmark": "ft", "seeds": 0},
        {"benchmark": "ft", "seeds": "three"},
        {"benchmark": "ft", "timesteps": 0},
        {"benchmark": "ft", "nodes": 0},
        {"benchmark": "ft", "nodes": 1.5},
        {"benchmark": "ft", "tenant": ""},
        # JSON booleans are ints to isinstance, never counts
        {"benchmark": "ft", "seeds": True},
        {"benchmark": "ft", "timesteps": True},
        {"benchmark": "ft", "nodes": True},
    ],
)
def test_request_validation_rejects(bad):
    with pytest.raises(ProtocolError):
        JobRequest.from_wire(bad)


def test_request_from_wire_rejects_non_mapping():
    with pytest.raises(ProtocolError, match="must be an object"):
        JobRequest.from_wire(["benchmark", "ft"])


# ----------------------------------------------------------------------
# JobState / JobRecord
# ----------------------------------------------------------------------
def test_terminal_states():
    assert not JobState.QUEUED.terminal
    assert not JobState.RUNNING.terminal
    assert JobState.COMPLETED.terminal
    assert JobState.FAILED.terminal


def test_record_latency_only_when_finished():
    rec = JobRecord(job_id="job-1", request=JobRequest(benchmark="ft"),
                    submitted_at=10.0)
    assert rec.latency is None
    rec.finished_at = 12.5
    assert rec.latency == pytest.approx(2.5)


def test_record_to_wire_is_json_plain():
    rec = JobRecord(job_id="job-1", request=JobRequest(benchmark="ft"),
                    state=JobState.RUNNING, lease_nodes=[0, 1])
    wire = rec.to_wire()
    assert wire["state"] == "running"
    assert wire["lease_nodes"] == [0, 1]
    assert wire["request"]["benchmark"] == "ft"


# ----------------------------------------------------------------------
# line codec
# ----------------------------------------------------------------------
def test_codec_round_trip():
    msg = {"op": "submit", "job": {"benchmark": "ft"}}
    line = encode_message(msg)
    assert line.endswith(b"\n") and b"\n" not in line[:-1]
    assert decode_message(line) == msg


@pytest.mark.parametrize("garbage", [b"not json\n", b"\xff\xfe\n", b"[1,2]\n"])
def test_decode_rejects_garbage(garbage):
    with pytest.raises(ProtocolError):
        decode_message(garbage)


def _reader_with(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def test_read_message_clean_eof_returns_none():
    async def run():
        return await read_message(_reader_with(b""))

    assert asyncio.run(run()) is None


def test_read_message_partial_line_is_error():
    async def run():
        await read_message(_reader_with(b'{"op": "ping"'))

    with pytest.raises(ProtocolError, match="mid-message"):
        asyncio.run(run())


def test_read_message_oversize_line_is_error():
    # longer than the StreamReader's default 64 KiB limit
    huge = b'{"pad": "' + b"x" * (1 << 17) + b'"}\n'

    async def run():
        await read_message(_reader_with(huge))

    with pytest.raises(ProtocolError, match="size limit"):
        asyncio.run(run())


def test_read_message_sequences_lines():
    async def run():
        reader = _reader_with(encode_message({"a": 1}) + encode_message({"b": 2}))
        return await read_message(reader), await read_message(reader), await read_message(reader)

    first, second, third = asyncio.run(run())
    assert (first, second, third) == ({"a": 1}, {"b": 2}, None)


# ----------------------------------------------------------------------
# response envelopes
# ----------------------------------------------------------------------
def test_ok_passthrough():
    resp = ok_response(job_id="job-1")
    assert raise_for_error(resp) == {"ok": True, "job_id": "job-1"}


def test_queue_full_reconstructs_admission_rejected():
    resp = error_response("queue_full", "saturated", depth=4, capacity=4)
    with pytest.raises(AdmissionRejected) as exc_info:
        raise_for_error(resp)
    exc = exc_info.value
    assert exc.code == "queue_full"
    assert (exc.depth, exc.capacity) == (4, 4)


def test_draining_reconstructs_admission_rejected():
    with pytest.raises(AdmissionRejected) as exc_info:
        raise_for_error(error_response("draining", "bye"))
    assert exc_info.value.code == "draining"


def test_lease_error_reconstructs():
    with pytest.raises(LeaseError):
        raise_for_error(error_response("lease_error", "double grant"))


def test_unknown_code_becomes_protocol_error():
    with pytest.raises(ProtocolError, match="boom"):
        raise_for_error(error_response("internal", "boom"))


def test_malformed_error_object():
    with pytest.raises(ProtocolError, match="malformed"):
        raise_for_error({"ok": False, "error": "just a string"})


# ----------------------------------------------------------------------
# deadlines and attempt history on the wire
# ----------------------------------------------------------------------
def test_request_deadline_round_trip():
    req = JobRequest(benchmark="matmul", deadline_s=2.5)
    wire = req.to_wire()
    assert wire["deadline_s"] == 2.5
    assert JobRequest.from_wire(wire) == req
    # absent and null both mean "no deadline"
    assert JobRequest.from_wire({"benchmark": "ft"}).deadline_s is None
    assert JobRequest.from_wire({"benchmark": "ft", "deadline_s": None}).deadline_s is None
    # integers coerce to float
    assert JobRequest.from_wire({"benchmark": "ft", "deadline_s": 3}).deadline_s == 3.0


@pytest.mark.parametrize("bad", [0.0, -1.0, "soon", True, float("nan")])
def test_request_rejects_bad_deadline(bad):
    with pytest.raises(ProtocolError):
        JobRequest.from_wire({"benchmark": "ft", "deadline_s": bad})


def test_record_attempt_history_on_the_wire():
    rec = JobRecord(job_id="j1", request=JobRequest(benchmark="ft"),
                    submitted_at=1.0)
    rec.record_attempt_failure("WorkerCrashed: boom", started_at=1.5, failed_at=2.0)
    rec.record_attempt_failure("TransientRunnerError: blip",
                               started_at=2.5, failed_at=3.0)
    assert rec.attempts == 2
    wire = rec.to_wire()
    assert wire["attempts"] == 2
    assert [a["attempt"] for a in wire["attempt_history"]] == [1, 2]
    assert "WorkerCrashed" in wire["attempt_history"][0]["error"]
    import json
    json.dumps(wire)  # stays JSON-plain
