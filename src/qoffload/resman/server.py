"""Quantum resource-manager service.

Accepts framed JSON requests, parses submitted QASM and queues jobs FIFO onto
one runtime device worker (one simulated device). A `SubmitJob` of one job
is answered `Accepted` with its id, the `target nowait` of the paper's
offload model; a `FetchResult` of that id is its `taskwait`: it blocks until
the job finishes and is answered with the job's `Result` or `Error` frame.
The job is retained, and can be fetched again, until `result_ttl` seconds
after it finished, fetched or not. A `SubmitJob` carrying several jobs in
`jobs` has each of them queued and answered as a fetch is, one frame per
job, so a batch of jobs costs one request; its jobs are not retained. A
`Result` holds the histogram's nonzero (outcome, count) pairs. A
configurable one-way delay is slept before each request is processed,
modelling the link latency of a remote (off-premise) device.
"""
from __future__ import annotations

import itertools
import math
import socket
import threading
import time

from .. import sim
from ..circuit import DEFAULT_MAX_QUBITS, Histogram
from ..qasm import QasmError, parse_qasm
from ..runtime import (Device, DeviceKind, DeviceWorker, Job, JobHandle,
                       LocalSimulatorBackend)
from . import protocol


# The fields of one job, as a `SubmitJob` carries them.
_JOB_FIELDS = protocol.REQUEST_KINDS["SubmitJob"]


def _is_int(value) -> bool:
    """A JSON integer; `true`/`false` decode to bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


class _PassThenSimulate(LocalSimulatorBackend):
    """The server's device backend: optimization pass, then simulation."""

    def __init__(self, optimization_pass):
        self.optimization_pass = optimization_pass

    def run(self, job: Job) -> Histogram:
        return sim.run_and_sample(self.optimization_pass(job.circuit),
                                  job.shots, job.seed)


class ResourceManagerServer:
    """Threaded TCP server; one connection handler per client, one job worker."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 capacity: int = DEFAULT_MAX_QUBITS,
                 latency: float = 0.0,
                 result_ttl: float = 600.0,
                 optimization_pass=None):
        for name, value in (("latency", latency), ("result_ttl", result_ttl)):
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be a finite number >= 0")
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
        was sent: one per entry of a `SubmitJob` with `jobs`, or one
        `BAD_BATCH` for a malformed batch; one for any other request."""
        self._evict_finished()
        if msg["kind"] != "SubmitJob" or "jobs" not in msg:
            yield self._handle(msg)
            return
        jobs = msg["jobs"]
        if (not isinstance(jobs, list) or not jobs
                or not all(isinstance(entry, dict) for entry in jobs)):
            yield protocol.error(
                "BAD_BATCH", "jobs must be a non-empty list of objects")
        elif any(name in msg for name in _JOB_FIELDS):
            yield protocol.error(
                "BAD_BATCH", "a SubmitJob with jobs carries no qasm, shots "
                "or seed of its own")
        else:
            # Every entry is queued before the first is answered, so the
            # device runs them back to back while replies are sent.
            for item in [self._queue(entry) for entry in jobs]:
                yield self._answer(item) if isinstance(item, JobHandle) else item

    def _handle(self, msg: dict) -> dict:
        """The reply to one request that carries at most one job."""
        kind = msg["kind"]
        if kind == "Ping":
            return protocol.pong()
        if kind == "SubmitJob":
            handle = self._queue(msg)
            if not isinstance(handle, JobHandle):
                return handle
            with self._jobs_lock:
                self._jobs[handle.job_id] = handle
            return protocol.accepted(handle.job_id)
        if kind != "FetchResult":
            return protocol.error("UNSUPPORTED",
                                  f"server cannot handle kind {kind!r}")
        job_id = msg["job_id"]
        if not _is_int(job_id):
            return protocol.error("BAD_REQUEST", "job_id must be an integer")
        with self._jobs_lock:
            handle = self._jobs.get(job_id)
        if handle is None:
            return protocol.error("UNKNOWN_JOB", f"no job {job_id!r}")
        return self._answer(handle)

    def _queue(self, entry: dict) -> JobHandle | dict:
        """Check one job's fields, parse its QASM and queue it: the job's
        handle, or the `Error` reply that rejects it."""
        missing = [name for name in _JOB_FIELDS if name not in entry]
        if missing:
            return protocol.error("BAD_REQUEST", f"job missing fields {missing}")
        if not _is_int(entry["shots"]) or entry["shots"] < 1:
            return protocol.error("BAD_REQUEST", "shots must be a positive integer")
        if not _is_int(entry["seed"]) or entry["seed"] < 0:
            return protocol.error("BAD_REQUEST", "seed must be a non-negative integer")
        if not isinstance(entry["qasm"], str):
            return protocol.error("BAD_REQUEST", "qasm must be a string")
        try:
            circuit = parse_qasm(entry["qasm"])
        except QasmError as exc:
            return protocol.error("PARSE", str(exc))
        if circuit.num_qubits > self.capacity:
            return protocol.error(
                "CAPACITY",
                f"circuit needs {circuit.num_qubits} qubits, capacity is {self.capacity}",
            )
        job = Job(circuit, entry["shots"], entry["seed"],
                  submitted_at=time.monotonic())
        handle = JobHandle(next(self._ids), self._worker.device.name)
        self._worker.submit(job, handle)
        return handle

    @staticmethod
    def _answer(handle: JobHandle) -> dict:
        """A job's reply, a batch entry's or a fetch's, once it finished:
        its `Result`, or its `JOB_FAILED` `Error`."""
        handle.wait()
        if handle.error is not None:
            return protocol.error("JOB_FAILED", str(handle.error))
        result = handle.result
        return protocol.result(
            result.histogram, result.finished_at - result.started_at)

    def _evict_finished(self) -> None:
        """Forget the retained jobs that finished over `result_ttl` ago."""
        cutoff = time.monotonic() - self.result_ttl
        with self._jobs_lock:
            stale = [job_id for job_id, handle in self._jobs.items()
                     if handle.finished_at is not None
                     and handle.finished_at < cutoff]
            for job_id in stale:
                del self._jobs[job_id]


def serve(host: str = "127.0.0.1", port: int = 0, *,
          capacity: int = DEFAULT_MAX_QUBITS, latency: float = 0.0,
          result_ttl: float = 600.0, optimization_pass=None) -> ResourceManagerServer:
    """Bind and start a resource-manager server; returns the running server."""
    server = ResourceManagerServer(host, port, capacity=capacity, latency=latency,
                                   result_ttl=result_ttl,
                                   optimization_pass=optimization_pass)
    return server.start()
