"""Wire protocol: 4-byte big-endian length prefix + UTF-8 JSON body.

Every message is a JSON object with a "kind" discriminator. Requests:
Ping, SubmitJob, QueryStatus, FetchResult. Responses: Pong, Accepted,
Status, Result, Error. A Result is dense (all 2^n counts) or sparse (the
nonzero outcomes and their counts). See docs/protocol.md for the
field-level contract.
"""
from __future__ import annotations

import json
import socket
import struct

MAX_FRAME_BYTES = 16 * 1024 * 1024

# kind -> required field names (beyond "kind")
REQUEST_KINDS = {
    "Ping": (),
    "SubmitJob": ("qasm", "shots", "seed"),
    "QueryStatus": ("job_id",),
    "FetchResult": ("job_id",),
}
RESPONSE_KINDS = {
    "Pong": (),
    "Accepted": ("job_id",),
    "Status": ("status",),
    "Result": ("counts", "shots", "server_wall_time"),
    "Error": ("code", "message"),
}
KNOWN_KINDS = {**REQUEST_KINDS, **RESPONSE_KINDS}


class ProtocolError(Exception):
    pass


class TruncatedFrameError(ProtocolError):
    pass


class OversizedFrameError(ProtocolError):
    pass


class UnknownKindError(ProtocolError):
    pass


class MalformedMessageError(ProtocolError):
    pass


def validate_message(msg: dict) -> dict:
    if not isinstance(msg, dict) or "kind" not in msg:
        raise MalformedMessageError("message must be an object with a 'kind' field")
    kind = msg["kind"]
    if not isinstance(kind, str):
        raise MalformedMessageError(f"'kind' must be a string, not {kind!r}")
    fields = KNOWN_KINDS.get(kind)
    if fields is None:
        raise UnknownKindError(f"unknown message kind {kind!r}")
    if kind == "SubmitJob" and "jobs" in msg:
        # Several jobs: `jobs` and its entries are checked by the server,
        # which answers a fault with an Error and keeps the connection.
        fields = ()
    missing = [f for f in fields if f not in msg]
    if missing:
        raise MalformedMessageError(f"{kind} message missing fields {missing}")
    return msg


def encode_frame(msg: dict) -> bytes:
    validate_message(msg)
    body = json.dumps(msg, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise OversizedFrameError(f"frame body of {len(body)} bytes exceeds limit")
    return struct.pack("!I", len(body)) + body


def decode_frame(data: bytes) -> dict:
    """Decode a single complete frame from a byte buffer."""
    if len(data) < 4:
        raise TruncatedFrameError("frame shorter than the 4-byte length prefix")
    (length,) = struct.unpack("!I", data[:4])
    if length > MAX_FRAME_BYTES:
        raise OversizedFrameError(f"declared frame length {length} exceeds limit")
    if len(data) < 4 + length:
        raise TruncatedFrameError(
            f"frame declares {length} body bytes, only {len(data) - 4} present"
        )
    try:
        msg = json.loads(data[4:4 + length].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedMessageError(f"invalid frame body: {exc}") from exc
    return validate_message(msg)


def send_message(sock: socket.socket, msg: dict) -> None:
    sock.sendall(encode_frame(msg))


def recv_message(sock: socket.socket) -> dict | None:
    """Read one framed message; None on clean EOF at a frame boundary."""
    header = _recv_exact(sock, 4)
    if header is None:
        return None
    (length,) = struct.unpack("!I", header)
    if length > MAX_FRAME_BYTES:
        raise OversizedFrameError(f"declared frame length {length} exceeds limit")
    body = _recv_exact(sock, length)
    if body is None and length > 0:
        raise TruncatedFrameError("connection closed mid-frame")
    body = body or b""
    try:
        msg = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedMessageError(f"invalid frame body: {exc}") from exc
    return validate_message(msg)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly n bytes; None on EOF before the first byte."""
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            if not buf:
                return None
            raise TruncatedFrameError("connection closed mid-frame")
        buf += chunk
    return buf


# Message constructors

def ping() -> dict:
    return {"kind": "Ping"}


def pong() -> dict:
    return {"kind": "Pong"}


def submit_job(qasm: str, shots: int, seed: int, wait: bool = False) -> dict:
    """A SubmitJob; with wait the reply is the job's Result or Error."""
    msg = {"kind": "SubmitJob", "qasm": qasm, "shots": shots, "seed": seed}
    if wait:
        msg["wait"] = True
    return msg


def submit_batch(jobs) -> dict:
    """A SubmitJob carrying several (qasm, shots, seed) jobs in `jobs`; its
    reply is one Result or Error frame per job, in order."""
    return {"kind": "SubmitJob",
            "jobs": [{"qasm": qasm, "shots": shots, "seed": seed}
                     for qasm, shots, seed in jobs]}


def query_status(job_id: int) -> dict:
    return {"kind": "QueryStatus", "job_id": job_id}


def fetch_result(job_id: int) -> dict:
    return {"kind": "FetchResult", "job_id": job_id}


def accepted(job_id: int) -> dict:
    return {"kind": "Accepted", "job_id": job_id}


def status(value: str) -> dict:
    return {"kind": "Status", "status": value}


def result(counts: list[int], shots: int, server_wall_time: float) -> dict:
    """A dense Result: all 2^n counts, indexed by outcome."""
    return {"kind": "Result", "counts": counts, "shots": shots,
            "server_wall_time": server_wall_time}


def histogram_result(histogram, server_wall_time: float) -> dict:
    """A `circuit.Histogram`'s Result in the shorter form. A sparse Result,
    the nonzero entries only, carries two numbers per nonzero outcome, a
    dense one one number per outcome, so it is sparse when fewer than half
    of the 2^n outcomes are nonzero."""
    if 2 * len(histogram.outcomes) >= 1 << histogram.num_qubits:
        return result(histogram.counts, histogram.shots, server_wall_time)
    return {"kind": "Result", "outcomes": histogram.outcomes,
            "counts": histogram.outcome_counts,
            "num_qubits": histogram.num_qubits, "shots": histogram.shots,
            "server_wall_time": server_wall_time}


def error(code: str, message: str) -> dict:
    return {"kind": "Error", "code": code, "message": message}
