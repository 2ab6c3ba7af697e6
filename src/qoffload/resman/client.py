"""Blocking client for the resource-manager wire protocol.

`run_batch` sends (qasm, shots, seed) jobs as one `SubmitJob`, the `target
nowait` of the paper's offload model, and yields each job's outcome as its
reply frame arrives, its `taskwait`: the server answers a job once it has
finished, so no call polls. `fetch` reads one job's reply frame.
"""
from __future__ import annotations

import socket
import time

from ..circuit import Circuit, Histogram
from ..qasm import emit_qasm
from ..runtime import JobResult
from . import protocol


class ServerError(Exception):
    """An Error response from the server, with its code."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


class ResmanClient:
    """One connection; request/response calls are serialized per client."""

    def __init__(self, endpoint: tuple[str, int], timeout: float = 30.0):
        self.endpoint = tuple(endpoint)
        self._sock = socket.create_connection(self.endpoint, timeout=timeout)
        # A batch's replies arrive as back-to-back small frames; see the
        # server's connection handler.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ResmanClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def request(self, msg: dict) -> dict:
        """Send one request and return its reply, or the first of its
        replies for a `SubmitJob` with `jobs`. Any exception but a
        `MalformedMessageError`, which is raised only once its whole frame
        was read, closes the connection: a reply that is late or half read
        would otherwise answer the next request."""
        try:
            protocol.send_message(self._sock, msg)
            return self._receive()
        except protocol.MalformedMessageError:
            raise
        except BaseException:
            self.close()
            raise

    def _receive(self) -> dict:
        response = protocol.recv_message(self._sock)
        if response is None:
            raise ConnectionError("server closed the connection")
        return response

    def ping(self) -> None:
        response = self.request(protocol.ping())
        if response["kind"] != "Pong":
            raise ServerError(response.get("code", "UNEXPECTED"),
                              f"expected Pong, got {response}")

    def fetch(self, msg: dict | None = None) -> tuple[Histogram, float]:
        """A job's histogram and server-side wall time, from the next reply
        frame, read after sending `msg` if one is given. An `Error` frame
        raises its `ServerError` (`JOB_FAILED` for a job that failed), and a
        whole frame that is not a valid `Result` raises
        `MalformedMessageError`, after which the next frame starts. A frame
        that cannot be read raises as `request` does."""
        return _histogram(self._receive() if msg is None else self.request(msg))

    def run_batch(self, jobs):
        """Run (qasm, shots, seed) jobs as one `SubmitJob` request, and
        yield each job's outcome, in order, as its reply frame arrives: its
        histogram, or the `ServerError` or `MalformedMessageError` that
        `fetch` raised for it. An `Error` that answers the whole request
        (`BAD_BATCH`, or `BAD_FRAME` from a server that does not take
        `jobs`) is the last frame of that request and fails every job it
        carries. A batch whose request would exceed `MAX_FRAME_BYTES` is
        split into requests that fit, sent one after another; a job too
        large for a request of its own fails with `OversizedFrameError` and
        is not sent. A batch that ends before its last frame was read, by an
        exception or by its consumer, closes the connection, which would
        otherwise hand the unread frames to the next request."""
        for msg, count in _batch_requests(list(jobs)):
            if isinstance(msg, protocol.OversizedFrameError):
                yield msg
                continue
            unread = count
            try:
                for index in range(count):
                    try:
                        outcome = self.fetch(None if index else msg)[0]
                    except (ServerError, protocol.MalformedMessageError) as exc:
                        outcome = exc
                    unread -= 1
                    if (not index and isinstance(outcome, ServerError)
                            and outcome.code in _WHOLE_REQUEST):
                        unread = 0
                        yield from [outcome] * count
                        break
                    yield outcome
            finally:
                if unread:
                    self.close()


# Error codes that answer a whole request, however many jobs it carries.
_WHOLE_REQUEST = ("BAD_BATCH", "BAD_FRAME")


def _batch_requests(jobs: list) -> list:
    """(request, job count) pairs of `SubmitJob` requests that carry `jobs`
    in order: one request, or halves split until each fits in a frame. A job
    that does not fit on its own comes as (its `OversizedFrameError`, 1)."""
    msg = protocol.submit_batch(jobs)
    if _body_bound(jobs) <= protocol.MAX_FRAME_BYTES:
        return [(msg, len(jobs))]
    try:
        protocol.encode_frame(msg)  # encoded again when it is sent
        return [(msg, len(jobs))]
    except protocol.OversizedFrameError as exc:
        if len(jobs) == 1:
            return [(exc, 1)]
    half = len(jobs) // 2
    return _batch_requests(jobs[:half]) + _batch_requests(jobs[half:])


def _body_bound(jobs: list) -> int:
    """An upper bound on the body size of the request carrying `jobs`,
    found without encoding it: JSON writes a character of QASM as at most
    12 bytes (a surrogate pair of escapes), and each job adds its three
    field names, its numbers and punctuation, under 40 bytes besides."""
    return 40 + sum(12 * len(qasm) + 40 + len(str(shots)) + len(str(seed))
                    for qasm, shots, seed in jobs)


def _histogram(response: dict) -> tuple[Histogram, float]:
    """A `Result`'s histogram and its server-side wall time. An `Error`
    raises its `ServerError`; any other reply, or a `Result` whose fields
    are not a valid histogram and wall time, raises
    `MalformedMessageError`."""
    if response["kind"] == "Error":
        raise ServerError(response["code"], response["message"])
    try:
        histogram = Histogram.from_outcomes(
            response["num_qubits"], response["outcomes"],
            response["counts"], response["shots"])
        wall = response["server_wall_time"]
        if type(wall) not in (int, float):
            raise TypeError(f"server_wall_time must be a number, got {wall!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise protocol.MalformedMessageError(f"invalid Result: {exc}") from exc
    return histogram, wall


def checked_outcome(outcome, circuit: Circuit, shots: int):
    """A job's outcome from `run_batch` as it is, unless it is a histogram of
    another qubit or shot count: then the `MalformedMessageError` for it."""
    if isinstance(outcome, Exception) or (
            outcome.num_qubits, outcome.shots) == (circuit.num_qubits, shots):
        return outcome
    return protocol.MalformedMessageError(
        f"Result of {outcome.num_qubits} qubits and {outcome.shots} shots "
        f"for a job of {circuit.num_qubits} qubits and {shots} shots")


def client_submit(endpoint: tuple[str, int], circuit: Circuit,
                  shots: int, seed: int,
                  timeout: float = 120.0) -> JobResult:
    """Run a circuit, sent as QASM, and return its histogram: one
    `SubmitJob` of one job on a new connection, so one request. The reply
    must come within `timeout` seconds, or `TimeoutError` is raised; a job
    the server rejects or fails raises its `ServerError`, and a reply that
    is no `Result` of the job's qubit and shot count, `MalformedMessageError`.

    wall_time is the measured client-side round trip.
    """
    qasm = emit_qasm(circuit)
    start = time.monotonic()
    with ResmanClient(endpoint, timeout=timeout) as client:
        [outcome] = client.run_batch([(qasm, shots, seed)])
    histogram = checked_outcome(outcome, circuit, shots)
    if isinstance(histogram, Exception):
        raise histogram
    finished = time.monotonic()
    return JobResult(histogram=histogram, wall_time=finished - start,
                     device_name=f"{endpoint[0]}:{endpoint[1]}",
                     started_at=start, finished_at=finished)
