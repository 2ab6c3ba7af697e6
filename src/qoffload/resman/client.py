"""Blocking client for the resource-manager wire protocol."""
from __future__ import annotations

import socket
import time

from ..circuit import Circuit, Histogram
from ..qasm import emit_qasm
from ..runtime import JobResult, JobStatus
from . import protocol

_FINISHED = (JobStatus.DONE.value, JobStatus.FAILED.value)


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
        protocol.send_message(self._sock, msg)
        response = protocol.recv_message(self._sock)
        if response is None:
            raise ConnectionError("server closed the connection")
        return response

    def ping(self) -> None:
        response = self.request(protocol.ping())
        if response["kind"] != "Pong":
            raise ServerError(response.get("code", "UNEXPECTED"),
                              f"expected Pong, got {response}")

    def submit(self, qasm: str, shots: int, seed: int) -> int:
        response = self.request(protocol.submit_job(qasm, shots, seed))
        if response["kind"] == "Error":
            raise ServerError(response["code"], response["message"])
        return response["job_id"]

    def job_status(self, job_id: int) -> str:
        response = self.request(protocol.query_status(job_id))
        if response["kind"] == "Error":
            raise ServerError(response["code"], response["message"])
        return response["status"]

    def fetch(self, job_id: int) -> tuple[Histogram, float]:
        """Fetch a finished job's histogram and server-side wall time."""
        return _histogram(self.request(protocol.fetch_result(job_id)))

    def run(self, qasm: str, shots: int, seed: int) -> tuple[Histogram, float]:
        """Submit a job and block until its histogram and server-side wall
        time arrive: one request, `SubmitJob` with `wait`."""
        return _histogram(self.request(
            protocol.submit_job(qasm, shots, seed, wait=True)))


def _histogram(response: dict) -> tuple[Histogram, float]:
    if response["kind"] == "Error":
        raise ServerError(response["code"], response["message"])
    histogram = Histogram(tuple(response["counts"]), response["shots"])
    return histogram, response["server_wall_time"]


def client_submit(endpoint: tuple[str, int], circuit: Circuit,
                  shots: int, seed: int,
                  poll_interval: float = 0.005,
                  timeout: float = 120.0) -> JobResult:
    """Submit a circuit as QASM, poll until done, fetch the histogram.

    wall_time is the measured client-side round trip (submit to fetch).
    """
    qasm = emit_qasm(circuit)
    start = time.monotonic()
    with ResmanClient(endpoint, timeout=timeout) as client:
        job_id = client.submit(qasm, shots, seed)
        while (state := client.job_status(job_id)) not in _FINISHED:
            if time.monotonic() - start > timeout:
                raise TimeoutError(f"job {job_id} still {state} after {timeout}s")
            time.sleep(poll_interval)
        # A failed job's fetch raises ServerError("JOB_FAILED", reason).
        histogram, _server_wall = client.fetch(job_id)
    finished = time.monotonic()
    return JobResult(histogram=histogram, wall_time=finished - start,
                     device_name=f"{endpoint[0]}:{endpoint[1]}",
                     started_at=start, finished_at=finished)
