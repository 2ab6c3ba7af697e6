"""Offload runtime: device registry, blocking and asynchronous submission.

Each registered device owns one worker thread draining a FIFO queue, so at
most one job executes per device and submission order is completion order.
`submit_sync` is the blocking target-region analogue; `submit_async` returns a
handle (the `nowait` analogue) that any thread may poll or wait on.

A remote device's backend holds one persistent resource-manager connection
and sends each job as one blocking `SubmitJob`, so a job costs one link
latency leg. The device's worker thread is that connection's only user and
closes it when the worker stops.
"""
from __future__ import annotations

import itertools
import queue
import threading
import time
from dataclasses import dataclass, field
from enum import Enum

from .circuit import Circuit, DEFAULT_MAX_QUBITS, Histogram
from .qasm import emit_qasm
from . import sim


class RuntimeError_(Exception):
    """Base for offload runtime errors."""


class UnknownDeviceError(RuntimeError_):
    pass


class DuplicateDeviceError(RuntimeError_):
    pass


class CapacityExceededError(RuntimeError_):
    pass


class JobFailedError(RuntimeError_):
    """Carries the device's failure reason as the message."""


class DeviceKind(Enum):
    LOCAL_SIMULATOR = "LocalSimulator"
    REMOTE = "Remote"


class JobStatus(Enum):
    QUEUED = "Queued"
    RUNNING = "Running"
    DONE = "Done"
    FAILED = "Failed"


@dataclass(frozen=True)
class Device:
    name: str
    kind: DeviceKind
    capacity: int = DEFAULT_MAX_QUBITS
    endpoint: tuple[str, int] | None = None

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if self.kind is DeviceKind.REMOTE and self.endpoint is None:
            raise ValueError("remote device requires an endpoint")


@dataclass(frozen=True)
class Job:
    circuit: Circuit
    shots: int
    seed: int
    submitted_at: float

    def __post_init__(self):
        if not self.circuit.measured:
            raise ValueError("job circuit must be finalized (measured)")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")


@dataclass(frozen=True)
class JobResult:
    histogram: Histogram
    wall_time: float  # queue + execution, seconds
    device_name: str
    started_at: float = 0.0
    finished_at: float = 0.0


class JobHandle:
    """Token for one asynchronous submission; shareable across threads."""

    def __init__(self, job_id: int, device_name: str):
        self.job_id = job_id
        self.device_name = device_name
        self._done = threading.Event()
        self._lock = threading.Lock()
        self._status = JobStatus.QUEUED
        self._result: JobResult | None = None
        self._error: Exception | None = None

    @property
    def status(self) -> JobStatus:
        with self._lock:
            return self._status

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job is Done or Failed; False on timeout."""
        return self._done.wait(timeout)

    @property
    def result(self) -> JobResult | None:
        """The result once the status is Done, else None."""
        return self._result

    @property
    def error(self) -> Exception | None:
        """The backend's exception once the status is Failed, else None."""
        return self._error

    def _set_running(self) -> None:
        with self._lock:
            self._status = JobStatus.RUNNING

    def _finish(self, result: JobResult) -> None:
        with self._lock:
            self._status = JobStatus.DONE
            self._result = result
        self._done.set()

    def _fail(self, error: Exception) -> None:
        with self._lock:
            self._status = JobStatus.FAILED
            self._error = error
        self._done.set()


class LocalSimulatorBackend:
    """In-process statevector execution."""

    def run(self, job: Job) -> Histogram:
        return sim.run_and_sample(job.circuit, job.shots, job.seed)


# Seconds a remote job may take, link legs included, before it fails.
_REPLY_TIMEOUT = 120.0


class RemoteBackend:
    """Executes jobs over the resource-manager wire protocol.

    One connection, opened on the first job and kept open; each job is one
    blocking `SubmitJob` on it (`ResmanClient.run`). Only the device's worker
    thread calls `run` and `close`, so the connection needs no lock. A
    reused connection that fails before its reply (EOF or `OSError`) is
    reopened and the job resent once: a job is fully determined by its
    circuit, shots and seed, so the resend returns the same histogram. A
    reply that does not arrive within `_REPLY_TIMEOUT` seconds fails the job
    and closes the connection; the next job opens a new one.
    """

    def __init__(self, endpoint: tuple[str, int]):
        self.endpoint = endpoint
        self._client = None

    def run(self, job: Job) -> Histogram:
        # Imported here: the resman client imports this module.
        from .resman.client import ResmanClient
        from .resman.protocol import TruncatedFrameError

        qasm = emit_qasm(job.circuit)
        while True:
            reused = self._client is not None
            if not reused:
                self._client = ResmanClient(self.endpoint,
                                            timeout=_REPLY_TIMEOUT)
            try:
                histogram, _server_wall = self._client.run(qasm, job.shots,
                                                           job.seed)
                return histogram
            except TimeoutError as exc:
                self.close()
                raise JobFailedError(
                    f"no reply from {self.endpoint} within {_REPLY_TIMEOUT}s"
                ) from exc
            except (OSError, TruncatedFrameError):
                self.close()
                if not reused:  # only a reused connection gets a second try
                    raise

    def close(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None


def _default_backend(device: Device):
    if device.kind is DeviceKind.LOCAL_SIMULATOR:
        return LocalSimulatorBackend()
    return RemoteBackend(device.endpoint)


class DeviceWorker:
    """A device's FIFO queue of (Job, JobHandle) pairs and the thread that
    runs them on its backend; `stop` ends the thread after the queued jobs
    and then calls the backend's `close`, if it has one."""

    def __init__(self, device: Device, backend):
        self.device = device
        self.backend = backend
        self.jobs: queue.Queue = queue.Queue()
        self._stopped = False
        self._lock = threading.Lock()
        self.thread = threading.Thread(
            target=self._run, name=f"device-{device.name}", daemon=True
        )
        self.thread.start()

    def submit(self, job: Job, handle: JobHandle) -> None:
        """Queue the job; once `stop` was called, fail it instead, since no
        thread would ever run it and its handle would wait forever."""
        with self._lock:
            if not self._stopped:
                self.jobs.put((job, handle))
                return
        handle._fail(RuntimeError_(f"device {self.device.name!r} is shut down"))

    def _run(self) -> None:
        while True:
            item = self.jobs.get()
            if item is None:
                close = getattr(self.backend, "close", None)
                if close is not None:
                    close()
                return
            job, handle = item
            handle._set_running()
            started = time.monotonic()
            try:
                histogram = self.backend.run(job)
            except Exception as exc:
                handle._fail(exc)
                continue
            finished = time.monotonic()
            handle._finish(JobResult(
                histogram=histogram,
                wall_time=finished - job.submitted_at,
                device_name=self.device.name,
                started_at=started,
                finished_at=finished,
            ))

    def stop(self) -> None:
        with self._lock:
            self._stopped = True
            self.jobs.put(None)


class DeviceRegistry:
    """Named devices with one FIFO worker each. Thread-safe after setup."""

    def __init__(self):
        self._workers: dict[str, DeviceWorker] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def register(self, device: Device, backend=None) -> None:
        with self._lock:
            if device.name in self._workers:
                raise DuplicateDeviceError(f"device {device.name!r} already registered")
            self._workers[device.name] = DeviceWorker(
                device, backend if backend is not None else _default_backend(device)
            )

    def device(self, name: str) -> Device:
        worker = self._workers.get(name)
        if worker is None:
            raise UnknownDeviceError(f"no device named {name!r}")
        return worker.device

    @property
    def names(self) -> list[str]:
        return list(self._workers)

    def submit_async(self, device_name: str, circuit: Circuit,
                     shots: int, seed: int) -> JobHandle:
        with self._lock:
            worker = self._workers.get(device_name)
        if worker is None:
            raise UnknownDeviceError(f"no device named {device_name!r}")
        if circuit.num_qubits > worker.device.capacity:
            raise CapacityExceededError(
                f"circuit needs {circuit.num_qubits} qubits, "
                f"device {device_name!r} has capacity {worker.device.capacity}"
            )
        job = Job(circuit, shots, seed, submitted_at=time.monotonic())
        handle = JobHandle(next(self._ids), device_name)
        worker.submit(job, handle)
        return handle

    def submit_sync(self, device_name: str, circuit: Circuit,
                    shots: int, seed: int) -> JobResult:
        return self.wait(self.submit_async(device_name, circuit, shots, seed))

    def wait(self, handle: JobHandle, timeout: float | None = None) -> JobResult:
        """Block until the job completes; idempotent per handle."""
        if not handle.wait(timeout):
            raise TimeoutError(f"job {handle.job_id} did not complete in {timeout}s")
        if handle._error is not None:
            raise JobFailedError(
                f"job {handle.job_id} on {handle.device_name!r} failed: {handle._error}"
            ) from handle._error
        return handle._result

    def poll(self, handle: JobHandle) -> JobStatus:
        return handle.status

    def shutdown(self) -> None:
        with self._lock:
            for worker in self._workers.values():
                worker.stop()
            self._workers.clear()
