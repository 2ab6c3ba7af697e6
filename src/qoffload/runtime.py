"""Offload runtime: device registry, blocking and asynchronous submission.

Each registered device owns one worker thread draining a FIFO queue, so at
most one job executes per device and submission order is completion order.
`submit_sync` is the blocking target-region analogue; `submit_async` returns a
handle (the `nowait` analogue) that any thread may wait on, so
`submit_async` calls followed by a wait on each handle are `target nowait`
regions followed by a `taskwait`. A handle is settled once, with the job's
result or the exception that failed it. `DeviceWorker.submit` alone admits
jobs, the registry's and the resource-manager server's alike, and each job
rule is kept once (capacity in `Device` and `submit`, values in `Job`), so
local and remote devices refuse the same jobs before anything is sent.

When a worker wakes, it takes every job already queued as one batch and
hands it to its backend's `run_batch`, which yields each job's histogram,
or the exception that failed it, in order, as each finishes. The
simulator's backend runs a gate prefix that its jobs share, such as the
ansatz of one sampled VQE evaluation's terms, once; every histogram stays
`sim.run_and_sample`'s, seed for seed. A remote device's backend holds
one persistent resource-manager connection and sends the batch as one
`SubmitJob` request carrying every job, so a batch costs one link latency
leg however many jobs it carries. The device's worker thread is that
connection's only user; when the worker stops it calls its backend's
`close`, which closes it.
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
    """`capacity`, the largest register, is a Python `int` from 1 to
    `DEFAULT_MAX_QUBITS`: not a `bool`, a float or a numpy integer."""
    name: str
    kind: DeviceKind
    capacity: int = DEFAULT_MAX_QUBITS
    endpoint: tuple[str, int] | None = None

    def __post_init__(self):
        if type(self.capacity) is not int:
            raise ValueError("capacity must be an integer")
        if not 1 <= self.capacity <= DEFAULT_MAX_QUBITS:
            raise ValueError(f"capacity must be from 1 to {DEFAULT_MAX_QUBITS}")
        if self.kind is DeviceKind.REMOTE and self.endpoint is None:
            raise ValueError("remote device requires an endpoint")


@dataclass(frozen=True)
class Job:
    """A measured circuit, shots >= 1 and a seed from 0 to 2**64 - 1, both
    Python `int`s: not a `bool`, nor a numpy integer, which JSON cannot carry."""
    circuit: Circuit
    shots: int
    seed: int
    submitted_at: float

    def __post_init__(self):
        if not self.circuit.measured:
            raise ValueError("job circuit must be finalized (measured)")
        if type(self.shots) is not int or self.shots < 1:
            raise ValueError("shots must be an integer >= 1")
        if type(self.seed) is not int or not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must be an integer from 0 to 2**64 - 1")


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
    `error` the exception that failed it, never both. Read them only after
    `wait` returned True."""

    def __init__(self, job_id: int, device_name: str):
        self.job_id = job_id
        self.device_name = device_name
        self.result: JobResult | None = None
        self.error: Exception | None = None
        self._settled = threading.Event()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job is settled; False on timeout."""
        return self._settled.wait(timeout)

    def _settle(self, outcome: JobResult | Exception) -> None:
        if isinstance(outcome, Exception):
            self.error = outcome
        else:
            self.result = outcome
        self._settled.set()


class Backend:
    """Runs a device's jobs; a subclass defines `run(job) -> Histogram`."""

    def run_batch(self, jobs: list[Job]):
        """Yield each job's histogram, or the exception that failed it, in
        order. Here each job runs by `run`, only when its outcome is asked
        for; the simulator's backend runs a prefix its jobs share once."""
        for job in jobs:
            try:
                yield self.run(job)
            except Exception as exc:
                yield exc

    def close(self) -> None:
        """Release what the backend holds; the device's worker calls it
        once, when it stops."""


def _outcome(fn, *args) -> Histogram | Circuit | Exception:
    """`fn(*args)`, or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def _shared_run(circuits: list, first: int) -> tuple[int, int]:
    """The end of the run of circuits from `first` on, all of one register
    size, that share a gate prefix, and its length; `(first + 1, 0)` when
    circuit `first` shares no gate with the next. The run ends before the
    first circuit, or exception, that shares no gate with those before."""
    head, end = circuits[first], first + 1
    if isinstance(head, Exception):
        return end, 0
    shared = len(head.gates)
    for circuit in circuits[end:]:
        if (isinstance(circuit, Exception)
                or circuit.num_qubits != head.num_qubits):
            break
        k = next((i for i, a, b in zip(range(shared), head.gates,
                                       circuit.gates) if a != b),
                 min(shared, len(circuit.gates)))
        if not k:
            break
        shared, end = k, end + 1
    return end, shared if end > first + 1 else 0


def _sample_suffix(prefix, start: int, circuit: Circuit,
                   job: Job) -> Histogram:
    """Continue a copy of `prefix`, the state after the circuit's first
    `start` gates, through the rest, and sample it."""
    gates = itertools.islice(circuit.gates, start, None)
    state = sim.evolve(prefix.copy(), gates, circuit.num_qubits)
    return sim.sample(state, job.shots, job.seed)


class LocalSimulatorBackend(Backend):
    """In-process statevector execution of each job's `prepare`d circuit."""

    def prepare(self, circuit: Circuit) -> Circuit:
        """The circuit simulated for a job's circuit: the circuit itself
        here, the server's optimization pass on the resource manager."""
        return circuit

    def run(self, job: Job) -> Histogram:
        return sim.run_and_sample(self.prepare(job.circuit), job.shots,
                                  job.seed)

    def run_batch(self, jobs: list[Job]):
        """Yield each job's histogram, or the exception that failed it, in
        order, as each finishes; every job is `prepare`d before the first
        runs. Consecutive jobs of one register size whose prepared circuits
        share a gate prefix run it once, and each the rest of its gates on a
        copy of that state, one copy at a time. A job that shares nothing,
        as in a batch of one, runs by `sim.run_and_sample`."""
        circuits = [_outcome(self.prepare, job.circuit) for job in jobs]
        first = 0
        while first < len(jobs):
            end, shared = _shared_run(circuits, first)
            if shared:
                yield from self._run_shared(jobs[first:end],
                                            circuits[first:end], shared)
            elif isinstance(circuits[first], Exception):
                yield circuits[first]
            else:
                job = jobs[first]
                yield _outcome(sim.run_and_sample, circuits[first], job.shots,
                               job.seed)
            first = end

    @staticmethod
    def _run_shared(jobs: list[Job], circuits: list[Circuit], shared: int):
        """Run the first `shared` gates, common to every circuit, once, and
        yield each job's outcome from a copy of that state."""
        prefix = _outcome(sim.run_statevector, circuits[0], shared)
        for job, circuit in zip(jobs, circuits):
            yield (prefix if isinstance(prefix, Exception)
                   else _outcome(_sample_suffix, prefix, shared, circuit, job))


# Seconds a remote job may take, link legs included, before it fails.
_REPLY_TIMEOUT = 120.0


class RemoteBackend(Backend):
    """Executes jobs over the resource-manager wire protocol.

    One connection, opened on the first job and kept open. `run_batch`
    yields each job's histogram, or the exception that fails it, from `run`,
    as the local simulator does, but the first `run` of a batch sends every
    job of the batch as one `SubmitJob` request (`ResmanClient.run_batch`),
    answered by one frame per job, and each `run` then reads its own job's
    reply. Only the device's worker thread calls `run`, `run_batch` and
    `close`, so the connection needs no lock. A reused connection that fails
    before every reply arrived (EOF, `OSError` or a broken frame) is
    reopened and the unanswered jobs are resent once: a job is fully
    determined by its circuit, shots and seed, so the resend returns the
    same histograms. A reply that does not arrive within `_REPLY_TIMEOUT`
    seconds, or any other failure that is not retried, fails the unanswered
    jobs and closes the connection, so no unread reply of the batch answers
    a later job; the next batch opens a new one. An `Error` frame, or a
    `Result` that is not a valid histogram or whose qubit or shot count
    differs from its job's, fails only its own job.
    """

    def __init__(self, endpoint: tuple[str, int]):
        self.endpoint = endpoint
        self._client = None
        # Outcomes of the current batch's jobs, read by `run` in order.
        self._outcomes = None

    def run(self, job: Job) -> Histogram:
        """Run one job; inside `run_batch`, the next job of the batch."""
        outcome = next(self._outcomes or self._request([job]))
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
        from .resman.client import ResmanClient, checked_outcome
        from .resman.protocol import ProtocolError

        entries = [(emit_qasm(job.circuit), job.shots, job.seed) for job in jobs]
        answered = 0
        retry = self._client is not None  # only a reused connection is retried
        while answered < len(jobs):
            try:
                if self._client is None:
                    self._client = ResmanClient(self.endpoint,
                                                timeout=_REPLY_TIMEOUT)
                for outcome in self._client.run_batch(entries[answered:]):
                    job = jobs[answered]
                    answered += 1
                    yield checked_outcome(outcome, job.circuit, job.shots)
            except Exception as exc:
                self.close()  # unread frames of this batch must not answer the next
                if isinstance(exc, TimeoutError):
                    exc = JobFailedError(f"no reply from {self.endpoint} "
                                         f"within {_REPLY_TIMEOUT}s")
                elif retry and isinstance(exc, (OSError, ProtocolError)):
                    retry = False
                    continue
                yield from itertools.repeat(exc, len(jobs) - answered)
                return

    def close(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None


# Job ids, unique in the process whichever device admits the job.
_job_ids = itertools.count(1)


class DeviceWorker:
    """A device's FIFO queue of (Job, JobHandle) pairs and the thread that
    runs them on its backend. When the thread wakes, it takes every job
    already queued as one batch and passes it to the backend's `run_batch`,
    settling each handle as that job's outcome arrives. `stop` ends the
    thread after the queued jobs, a stop found while taking a batch only
    after that batch has run, and then calls the backend's `close`."""

    def __init__(self, device: Device, backend: Backend):
        self.device = device
        self.backend = backend
        self.jobs: queue.Queue = queue.Queue()
        self._stopped = False
        self._lock = threading.Lock()
        self.thread = threading.Thread(
            target=self._run, name=f"device-{device.name}", daemon=True
        )
        self.thread.start()

    def submit(self, circuit: Circuit, shots: int, seed: int) -> JobHandle:
        """Check a job's circuit against the device's capacity, then build
        the `Job`, which checks its values (`ValueError`), and queue it: one
        rule for host and wire submits. Once `stop` was called, its handle
        comes back failed instead, since no thread would ever run the job
        and the handle would wait forever."""
        if circuit.num_qubits > self.device.capacity:
            raise CapacityExceededError(
                f"circuit needs {circuit.num_qubits} qubits, device "
                f"{self.device.name!r} has capacity {self.device.capacity}")
        job = Job(circuit, shots, seed, submitted_at=time.monotonic())
        handle = JobHandle(next(_job_ids), self.device.name)
        with self._lock:
            if not self._stopped:
                self.jobs.put((job, handle))
                return handle
        handle._settle(RuntimeError_(f"device {self.device.name!r} is shut down"))
        return handle

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
                self.backend.close()
                return
            # Nothing of a settled job is held while the next one is awaited.
            del batch

    def _run_batch(self, batch: list) -> None:
        outcomes = self.backend.run_batch([job for job, _ in batch])
        for job, handle in batch:
            started = time.monotonic()
            try:
                outcome = next(outcomes)
            except Exception as exc:
                # The backend gave up on the jobs it had not answered.
                outcome, outcomes = exc, itertools.repeat(exc)
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
        self._lock = threading.Lock()

    def register(self, device: Device, backend: Backend | None = None) -> None:
        """Add a device run by `backend`; by default by the simulator or by a
        `RemoteBackend` on the device's endpoint, as its kind says."""
        if backend is None:
            backend = (LocalSimulatorBackend()
                       if device.kind is DeviceKind.LOCAL_SIMULATOR
                       else RemoteBackend(device.endpoint))
        with self._lock:
            if device.name in self._workers:
                raise DuplicateDeviceError(f"device {device.name!r} already registered")
            self._workers[device.name] = DeviceWorker(device, backend)

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
        return worker.submit(circuit, shots, seed)

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
