"""Wire protocol: 4-byte big-endian length prefix + UTF-8 JSON body.

Every message is a JSON object with a "kind" discriminator. Requests:
Ping, and SubmitJob, which carries its (qasm, shots, seed) jobs in `jobs`.
Responses: Pong, Result, Error; a SubmitJob is answered with one Result or
Error frame per job, each sent once its job has finished, as `taskwait`
does, so no request asks for a job's status or fetches it later. A Result
carries a histogram's nonzero outcomes and their counts. See
docs/protocol.md for the field-level contract.
"""
from __future__ import annotations

import json
import socket
import struct

MAX_FRAME_BYTES = 16 * 1024 * 1024

# kind -> required field names (beyond "kind")
REQUEST_KINDS = {
    "Ping": (),
    "SubmitJob": ("jobs",),
}
RESPONSE_KINDS = {
    "Pong": (),
    "Result": ("outcomes", "counts", "num_qubits", "shots", "server_wall_time"),
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
    return _decode_body(data[4:4 + length])


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
    return _decode_body(body or b"")


def _decode_body(body: bytes) -> dict:
    """The message a frame's body holds; a body JSON cannot decode is malformed."""
    try:
        msg = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
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


def submit_batch(jobs) -> dict:
    """A SubmitJob carrying (qasm, shots, seed) jobs in `jobs`; its reply
    is one Result or Error frame per job, in order."""
    return {"kind": "SubmitJob",
            "jobs": [{"qasm": qasm, "shots": shots, "seed": seed}
                     for qasm, shots, seed in jobs]}


def result(histogram, server_wall_time: float) -> dict:
    """A `circuit.Histogram`'s Result: its nonzero outcomes and their
    counts, at most `shots` pairs however large the register."""
    return {"kind": "Result", "outcomes": list(histogram.outcomes),
            "counts": list(histogram.outcome_counts),
            "num_qubits": histogram.num_qubits, "shots": histogram.shots,
            "server_wall_time": server_wall_time}


def error(code: str, message: str) -> dict:
    return {"kind": "Error", "code": code, "message": message}
