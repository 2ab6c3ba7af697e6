"""Quantum resource-manager service.

Accepts framed JSON requests, parses submitted QASM and queues jobs FIFO onto
one runtime device worker (one simulated device), whose `submit` checks each
job by the host's rules. A `SubmitJob` carries its
jobs in `jobs`. All of them are queued at once, the `target nowait` of the
paper's offload model, and the request is answered with one `Result` or
`Error` frame per job, in order, each sent once its job has finished, the
`taskwait`. So a batch of jobs costs one request, and the server keeps
nothing of a job once its reply is sent. A `Result` holds the histogram's
nonzero (outcome, count) pairs. A configurable one-way delay is slept
before each request is processed, modelling the link latency of a remote
(off-premise) device.

Work that a request's jobs share is done once, unseen on the wire and
kept for that request only: each distinct gate statement of its QASM is
parsed once, and after the optimization pass, a gate prefix that its jobs
share is simulated once (`LocalSimulatorBackend.run_batch`). Every
histogram is the one its job gets alone.
"""
from __future__ import annotations

import socket
import threading
import time

from ..circuit import Circuit, DEFAULT_MAX_QUBITS
from ..qasm import QasmError, parse_qasm
from ..runtime import (CapacityExceededError, Device, DeviceKind,
                       DeviceWorker, JobHandle, LocalSimulatorBackend)
from . import protocol


# The fields of each entry of a `SubmitJob`'s `jobs`.
_JOB_FIELDS = ("qasm", "shots", "seed")


class _PassThenSimulate(LocalSimulatorBackend):
    """The server's device backend: optimization pass, then simulation."""

    def __init__(self, optimization_pass):
        self.optimization_pass = optimization_pass or (lambda circuit: circuit)

    def prepare(self, circuit: Circuit) -> Circuit:
        return self.optimization_pass(circuit)


class ResourceManagerServer:
    """Threaded TCP server; one connection handler per client, one job worker."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 capacity: int = DEFAULT_MAX_QUBITS,
                 latency: float = 0.0,
                 optimization_pass=None):
        # An hour at most: far above the paper's 0-50 ms sweep, and far
        # below what `time.sleep` takes without raising.
        if not 0 <= latency <= 3600:
            raise ValueError("latency must be from 0 to 3600 seconds")
        device = Device("resman", DeviceKind.LOCAL_SIMULATOR, capacity)
        self.latency = latency

        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._sock.bind((host, port))  # raises OSError on unbindable address
            self._sock.listen()
        except BaseException:
            self._sock.close()
            raise
        self.address: tuple[str, int] = self._sock.getsockname()

        self._shutdown = threading.Event()

        self._worker = DeviceWorker(device, _PassThenSimulate(optimization_pass))
        self._acceptor = threading.Thread(target=self._accept_loop, daemon=True,
                                          name="resman-accept")

    def start(self) -> "ResourceManagerServer":
        self._acceptor.start()
        return self

    def shutdown(self) -> None:
        """Stop accepting; the running job (if any) is drained first."""
        if self._shutdown.is_set():
            return
        self._shutdown.set()
        self._worker.stop()
        try:
            self._sock.close()
        except OSError:
            pass
        self._worker.thread.join(timeout=30)

    def __enter__(self) -> "ResourceManagerServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # Connection handling

    def _accept_loop(self) -> None:
        while not self._shutdown.is_set():
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return
            threading.Thread(target=self._serve_connection, args=(conn,),
                             daemon=True).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            try:
                # Replies to a batch go out as back-to-back frames; without
                # this, Nagle's algorithm holds each small frame until the
                # client's delayed ACK of the one before.
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                return
            while not self._shutdown.is_set():
                try:
                    msg = protocol.recv_message(conn)
                except protocol.ProtocolError as exc:
                    # Per-request errors are answered, never dropped; a framing
                    # error poisons the stream, so close after answering.
                    try:
                        protocol.send_message(
                            conn, protocol.error("BAD_FRAME", str(exc)))
                    except OSError:
                        pass
                    return
                except OSError:
                    return
                if msg is None:
                    return
                if self.latency > 0:
                    time.sleep(self.latency)
                try:
                    for reply in self._replies(msg):
                        conn.sendall(self._frame(reply))
                except OSError:
                    return

    @staticmethod
    def _frame(reply: dict) -> bytes:
        """The frame of one reply. Only a `Result` grows with the job; one
        too large for a frame is answered `JOB_FAILED`: the job ran, but its
        counts cannot be sent."""
        try:
            return protocol.encode_frame(reply)
        except protocol.OversizedFrameError as exc:
            return protocol.encode_frame(protocol.error(
                "JOB_FAILED", f"result does not fit in a frame: {exc}"))

    def _replies(self, msg: dict):
        """The replies to one request, each produced after the one before
        was sent: one per entry of a `SubmitJob`'s `jobs`, or one
        `BAD_BATCH` for a malformed `jobs`; one for any other request."""
        if msg["kind"] != "SubmitJob":
            yield self._handle(msg)
            return
        jobs = msg["jobs"]
        if (not isinstance(jobs, list) or not jobs
                or not all(isinstance(entry, dict) for entry in jobs)):
            yield protocol.error(
                "BAD_BATCH", "jobs must be a non-empty list of objects")
            return
        # Every entry is queued before the first is answered, so the
        # device runs them back to back while replies are sent. The
        # entries' gate statements are parsed once each, into `statements`.
        statements = {}
        for item in [self._queue(entry, statements) for entry in jobs]:
            yield self._answer(item) if isinstance(item, JobHandle) else item

    def _handle(self, msg: dict) -> dict:
        """The reply to a request that carries no job."""
        kind = msg["kind"]
        if kind == "Ping":
            return protocol.pong()
        return protocol.error("UNSUPPORTED", f"server cannot handle kind {kind!r}")

    def _queue(self, entry: dict, statements: dict) -> JobHandle | dict:
        """Check one job's fields, parse its QASM, reusing the gates of
        `statements` (`parse_qasm`'s `memo`), and queue it: the job's
        handle, or the `Error` reply that rejects it; the device's `submit`
        checks capacity, then shots and seed."""
        missing = [name for name in _JOB_FIELDS if name not in entry]
        if missing:
            return protocol.error("BAD_REQUEST", f"job missing fields {missing}")
        if not isinstance(entry["qasm"], str):
            return protocol.error("BAD_REQUEST", "qasm must be a string")
        try:
            circuit = parse_qasm(entry["qasm"], statements)
        except QasmError as exc:
            return protocol.error("PARSE", str(exc))
        try:
            return self._worker.submit(circuit, entry["shots"], entry["seed"])
        except CapacityExceededError as exc:
            return protocol.error("CAPACITY", str(exc))
        except ValueError as exc:  # shots or seed the job rules refuse
            return protocol.error("BAD_REQUEST", str(exc))

    @staticmethod
    def _answer(handle: JobHandle) -> dict:
        """A job's reply once it finished: its `Result`, or its
        `JOB_FAILED` `Error`."""
        handle.wait()
        if handle.error is not None:
            return protocol.error("JOB_FAILED", str(handle.error))
        result = handle.result
        return protocol.result(
            result.histogram, result.finished_at - result.started_at)


def serve(host: str = "127.0.0.1", port: int = 0, *,
          capacity: int = DEFAULT_MAX_QUBITS, latency: float = 0.0,
          optimization_pass=None) -> ResourceManagerServer:
    """Bind and start a resource-manager server; returns the running server."""
    server = ResourceManagerServer(host, port, capacity=capacity, latency=latency,
                                   optimization_pass=optimization_pass)
    return server.start()
