"""Quantum resource-manager service.

Accepts framed JSON requests, parses submitted QASM and queues jobs FIFO onto
one runtime device worker (one simulated device), whose handles hold the
results until fetched. A `SubmitJob` with `wait` blocks its connection until
the job finishes and is answered like a `FetchResult`, so a job costs one
request instead of submit, status polls and fetch. A configurable one-way
delay is slept before each request is processed, modelling the link latency
of a remote (off-premise) device.
"""
from __future__ import annotations

import itertools
import socket
import threading
import time

from .. import sim
from ..circuit import DEFAULT_MAX_QUBITS, Histogram
from ..qasm import QasmError, parse_qasm
from ..runtime import Device, DeviceKind, DeviceWorker, Job, JobHandle, JobStatus
from . import protocol


def _is_int(value) -> bool:
    """A JSON integer; `true`/`false` decode to bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


class _PassThenSimulate:
    """The server's device backend: optimization pass, then simulation."""

    def __init__(self, optimization_pass):
        self.optimization_pass = optimization_pass

    def run(self, job: Job) -> Histogram:
        histogram = sim.run_and_sample(self.optimization_pass(job.circuit),
                                       job.shots, job.seed)
        # Retained counts get a fresh exact-size copy, allocated after the
        # simulation's arrays are freed, so they do not hold the heap high.
        return Histogram(tuple(iter(histogram.counts)), histogram.shots)


class ResourceManagerServer:
    """Threaded TCP server; one connection handler per client, one job worker."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 capacity: int = DEFAULT_MAX_QUBITS,
                 latency: float = 0.0,
                 result_ttl: float = 600.0,
                 optimization_pass=None):
        if latency < 0:
            raise ValueError("latency must be >= 0")
        device = Device("resman", DeviceKind.LOCAL_SIMULATOR, capacity)
        self.capacity = capacity
        self.latency = latency
        self.result_ttl = result_ttl
        # Hook for circuit rewriting before execution; identity by default.
        self.optimization_pass = optimization_pass or (lambda circuit: circuit)

        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._sock.bind((host, port))  # raises OSError on unbindable address
            self._sock.listen()
        except BaseException:
            self._sock.close()
            raise
        self.address: tuple[str, int] = self._sock.getsockname()

        self._jobs: dict[int, JobHandle] = {}
        self._fetched_at: dict[int, float] = {}
        self._jobs_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._shutdown = threading.Event()

        self._worker = DeviceWorker(device,
                                    _PassThenSimulate(self.optimization_pass))
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
                    conn.sendall(self._reply_frame(msg))
                except OSError:
                    return

    def _reply_frame(self, msg: dict) -> bytes:
        """The framed reply to one request. Only a `Result` grows with the
        job; one too large for a frame is answered `JOB_FAILED`: the job ran,
        but its counts cannot be sent."""
        try:
            return protocol.encode_frame(self._handle(msg))
        except protocol.OversizedFrameError as exc:
            return protocol.encode_frame(protocol.error(
                "JOB_FAILED", f"result does not fit in a frame: {exc}"))

    def _handle(self, msg: dict) -> dict:
        self._evict_fetched()
        kind = msg["kind"]
        if kind == "Ping":
            return protocol.pong()
        if kind == "SubmitJob":
            return self._handle_submit(msg)
        if kind not in ("QueryStatus", "FetchResult"):
            return protocol.error("UNSUPPORTED",
                                  f"server cannot handle kind {kind!r}")
        job_id = msg["job_id"]
        if not _is_int(job_id):
            return protocol.error("BAD_REQUEST", "job_id must be an integer")
        with self._jobs_lock:
            handle = self._jobs.get(job_id)
        if handle is None:
            return protocol.error("UNKNOWN_JOB", f"no job {job_id!r}")
        if kind == "QueryStatus":
            return protocol.status(handle.status.value)
        return self._handle_fetch(handle)

    def _handle_submit(self, msg: dict) -> dict:
        if not _is_int(msg["shots"]) or msg["shots"] < 1:
            return protocol.error("BAD_REQUEST", "shots must be a positive integer")
        if not _is_int(msg["seed"]) or msg["seed"] < 0:
            return protocol.error("BAD_REQUEST", "seed must be a non-negative integer")
        wait = msg.get("wait", False)
        if not isinstance(wait, bool):
            return protocol.error("BAD_REQUEST", "wait must be a boolean")
        if not isinstance(msg["qasm"], str):
            return protocol.error("BAD_REQUEST", "qasm must be a string")
        try:
            circuit = parse_qasm(msg["qasm"])
        except QasmError as exc:
            return protocol.error("PARSE", str(exc))
        if circuit.num_qubits > self.capacity:
            return protocol.error(
                "CAPACITY",
                f"circuit needs {circuit.num_qubits} qubits, capacity is {self.capacity}",
            )
        job = Job(circuit, msg["shots"], msg["seed"], submitted_at=time.monotonic())
        handle = JobHandle(next(self._ids), self._worker.device.name)
        with self._jobs_lock:
            self._jobs[handle.job_id] = handle
        self._worker.submit(job, handle)
        if wait:
            handle.wait()
            return self._handle_fetch(handle)
        return protocol.accepted(handle.job_id)

    def _handle_fetch(self, handle: JobHandle) -> dict:
        status = handle.status
        if status is JobStatus.FAILED:
            reply = protocol.error("JOB_FAILED", str(handle.error))
        elif status is JobStatus.DONE:
            result = handle.result
            reply = protocol.result(result.histogram.counts, result.histogram.shots,
                                    result.finished_at - result.started_at)
        else:
            return protocol.error("NOT_READY",
                                  f"job {handle.job_id} is {status.value}")
        with self._jobs_lock:
            self._fetched_at[handle.job_id] = time.monotonic()
        return reply

    def _evict_fetched(self) -> None:
        cutoff = time.monotonic() - self.result_ttl
        with self._jobs_lock:
            stale = [jid for jid, at in self._fetched_at.items() if at < cutoff]
            for jid in stale:
                del self._fetched_at[jid]
                # A fetch that raced an earlier sweep re-stamps an evicted job.
                self._jobs.pop(jid, None)


def serve(host: str = "127.0.0.1", port: int = 0, *,
          capacity: int = DEFAULT_MAX_QUBITS, latency: float = 0.0,
          result_ttl: float = 600.0, optimization_pass=None) -> ResourceManagerServer:
    """Bind and start a resource-manager server; returns the running server."""
    server = ResourceManagerServer(host, port, capacity=capacity, latency=latency,
                                   result_ttl=result_ttl,
                                   optimization_pass=optimization_pass)
    return server.start()
