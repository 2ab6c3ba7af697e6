"""Offload runtime: device registry, blocking and asynchronous submission.

Each registered device owns one worker thread draining a FIFO queue, so at
most one job executes per device and submission order is completion order.
`submit_sync` is the blocking target-region analogue; `submit_async` returns a
handle (the `nowait` analogue) that any thread may wait on, so
`submit_async` calls followed by a wait on each handle are `target nowait`
regions followed by a `taskwait`. A handle is settled once, with the job's
result or the exception that failed it.

When a worker wakes, it takes every job already queued as one batch and
hands it to its backend's `run_batch`, which runs the jobs one by one with
the backend's `run` and yields one outcome per job as each finishes. A
remote device's backend holds one persistent resource-manager connection
and sends the batch as one `SubmitJob` request carrying every job, so a
batch costs one link latency leg however many jobs it carries. The device's
worker thread is that connection's only user and closes it when the worker
stops.
"""
from __future__ import annotations

import itertools
import queue
import threading
import time
from dataclasses import dataclass
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
    """Token for one asynchronous submission; shareable across threads.

    Settled once: `result` holds the `JobResult` of a job that ran, or
    `error` the exception that failed it, never both, and `finished_at` is
    the `time.monotonic()` of the settling. Read them only after `wait`
    returned True."""

    def __init__(self, job_id: int, device_name: str):
        self.job_id = job_id
        self.device_name = device_name
        self.result: JobResult | None = None
        self.error: Exception | None = None
        self.finished_at: float | None = None
        self._settled = threading.Event()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job is settled; False on timeout."""
        return self._settled.wait(timeout)

    def _settle(self, outcome: JobResult | Exception) -> None:
        if isinstance(outcome, Exception):
            self.error = outcome
        else:
            self.result = outcome
        self.finished_at = time.monotonic()
        self._settled.set()


class Backend:
    """Runs a device's jobs; a subclass defines `run(job) -> Histogram`."""

    def run_batch(self, jobs: list[Job]):
        """Yield each job's histogram from `run`, or the exception that
        failed it, in order; a job runs only when its outcome is asked for."""
        for job in jobs:
            try:
                outcome = self.run(job)
            except Exception as exc:
                outcome = exc
            yield outcome


class LocalSimulatorBackend(Backend):
    """In-process statevector execution."""

    def run(self, job: Job) -> Histogram:
        return sim.run_and_sample(job.circuit, job.shots, job.seed)


# Seconds a remote job may take, link legs included, before it fails.
_REPLY_TIMEOUT = 120.0


class RemoteBackend(Backend):
    """Executes jobs over the resource-manager wire protocol.

    One connection, opened on the first job and kept open. `run_batch` runs
    its jobs one by one through `run`, as the local simulator does, but the
    first `run` of a batch sends every job of the batch as one `SubmitJob`
    request (`ResmanClient.run_batch`), answered by one frame per job, and
    each `run` then reads its own job's reply. Only the device's worker
    thread calls `run`, `run_batch` and `close`, so the connection needs no
    lock. A reused connection that fails before every reply arrived (EOF,
    `OSError` or a broken frame) is reopened and the unanswered jobs are
    resent once: a job is fully determined by its circuit, shots and seed,
    so the resend returns the same histograms. A reply that does not arrive
    within `_REPLY_TIMEOUT` seconds, or any other failure that is not
    retried, fails the unanswered jobs and closes the connection, so no
    unread reply of the batch answers a later job; the next batch opens a
    new one. An `Error` frame, or a `Result` that is not a valid histogram
    or whose qubit or shot count differs from its job's, fails only its
    own job.
    """

    def __init__(self, endpoint: tuple[str, int]):
        self.endpoint = endpoint
        self._client = None
        # Outcomes of the current batch's jobs, read by `run` in order.
        self._outcomes = None

    def run(self, job: Job) -> Histogram:
        """Run one job; inside `run_batch`, the next job of the batch."""
        outcomes = self._outcomes
        if outcomes is None:
            outcomes = self._request([job])
        outcome = next(outcomes)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def run_batch(self, jobs: list[Job]):
        """As `Backend.run_batch`; the jobs go out as one request when the
        first of them runs."""
        self._outcomes = self._request(jobs)
        try:
            yield from super().run_batch(jobs)
        finally:
            self._outcomes = None

    def _request(self, jobs: list[Job]):
        """Send `jobs` as one request and yield each one's histogram, or
        the exception that fails it, in order, as its reply arrives. Once
        the unanswered jobs cannot be run, each of them gets the error."""
        # Imported here: the resman client imports this module.
        from .resman.client import ResmanClient
        from .resman.protocol import MalformedMessageError, ProtocolError

        entries = [(emit_qasm(job.circuit), job.shots, job.seed) for job in jobs]
        answered = 0
        try:
            while answered < len(entries):
                reused = self._client is not None
                if not reused:
                    self._client = ResmanClient(self.endpoint,
                                                timeout=_REPLY_TIMEOUT)
                try:
                    for outcome in self._client.run_batch(entries[answered:]):
                        job = jobs[answered]
                        answered += 1
                        if isinstance(outcome, Exception):
                            yield outcome
                        elif (outcome[0].num_qubits, outcome[0].shots) != (
                                job.circuit.num_qubits, job.shots):
                            yield MalformedMessageError(
                                f"Result of {outcome[0].num_qubits} qubits "
                                f"and {outcome[0].shots} shots for a job of "
                                f"{job.circuit.num_qubits} qubits and "
                                f"{job.shots} shots")
                        else:
                            yield outcome[0]
                except TimeoutError as exc:
                    self.close()
                    raise JobFailedError(
                        f"no reply from {self.endpoint} within {_REPLY_TIMEOUT}s"
                    ) from exc
                except (OSError, ProtocolError):
                    self.close()
                    if not reused:  # only a reused connection gets a second try
                        raise
        except Exception as exc:
            self.close()  # unread frames of this batch must not answer the next
            for _ in range(answered, len(entries)):
                yield exc

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
    runs them on its backend. When the thread wakes, it takes every job
    already queued as one batch and passes it to the backend's `run_batch`,
    settling each handle as that job's outcome arrives. `stop` ends the
    thread after the queued jobs, a stop found while taking a batch only
    after that batch has run, and then calls the backend's `close`, if it
    has one."""

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
        handle._settle(RuntimeError_(f"device {self.device.name!r} is shut down"))

    def _run(self) -> None:
        while True:
            # Nothing is queued after the stop sentinel: `submit` fails jobs
            # once `stop` was called.
            batch = [self.jobs.get()]
            while batch[-1] is not None:
                try:
                    batch.append(self.jobs.get_nowait())
                except queue.Empty:
                    break
            stopping = batch[-1] is None
            if stopping:
                batch.pop()
            if batch:
                self._run_batch(batch)
            if stopping:
                close = getattr(self.backend, "close", None)
                if close is not None:
                    close()
                return

    def _run_batch(self, batch: list) -> None:
        outcomes = self.backend.run_batch([job for job, _ in batch])
        error = None
        for job, handle in batch:
            started = time.monotonic()
            if error is None:
                try:
                    outcome = next(outcomes)
                except Exception as exc:
                    # The backend gave up on the jobs it had not answered.
                    outcome = error = exc
            else:
                outcome = error
            if not isinstance(outcome, Exception):
                finished = time.monotonic()
                outcome = JobResult(
                    histogram=outcome,
                    wall_time=finished - job.submitted_at,
                    device_name=self.device.name,
                    started_at=started,
                    finished_at=finished,
                )
            handle._settle(outcome)

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
        if handle.error is not None:
            raise JobFailedError(
                f"job {handle.job_id} on {handle.device_name!r} failed: {handle.error}"
            ) from handle.error
        return handle.result

    def shutdown(self) -> None:
        with self._lock:
            for worker in self._workers.values():
                worker.stop()
            self._workers.clear()
