import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qoffload import sim
from qoffload.circuit import (Circuit, Gate, GateKind, bell_circuit,
                              create_circuit)
from qoffload.resman import serve
from qoffload.runtime import (
    CapacityExceededError,
    Device,
    DeviceKind,
    DeviceRegistry,
    DuplicateDeviceError,
    Job,
    JobFailedError,
    LocalSimulatorBackend,
    UnknownDeviceError,
)

from oracles import random_circuit
from servers import counting_server

_SHOTS_RULE = "^shots must be an integer >= 1$"
_SEED_RULE = r"^seed must be an integer from 0 to 2\*\*64 - 1$"


class TestRegistry:
    def test_register_and_lookup(self, registry):
        assert registry.device("sim0").kind is DeviceKind.LOCAL_SIMULATOR
        registry.register(Device("qpu0", DeviceKind.REMOTE,
                                 endpoint=("127.0.0.1", 1)))
        assert sorted(registry.names) == ["qpu0", "sim0"]

    def test_duplicate_name(self, registry):
        with pytest.raises(DuplicateDeviceError):
            registry.register(Device("sim0", DeviceKind.LOCAL_SIMULATOR))

    def test_unknown_device(self, registry):
        with pytest.raises(UnknownDeviceError):
            registry.device("nope")

    def test_remote_requires_endpoint(self):
        with pytest.raises(ValueError):
            Device("qpu0", DeviceKind.REMOTE)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Device("bad", DeviceKind.LOCAL_SIMULATOR, capacity=0)

    @pytest.mark.parametrize("capacity", [True, 4.0, np.int64(4)],
                             ids=["bool", "float", "numpy-int"])
    def test_capacity_must_be_a_python_int(self, capacity):
        with pytest.raises(ValueError, match="^capacity must be an integer$"):
            Device("bad", DeviceKind.LOCAL_SIMULATOR, capacity=capacity)

    def test_capacity_must_fit_the_largest_register(self):
        # No register above 24 qubits can be built or parsed.
        with pytest.raises(ValueError, match="^capacity must be from 1 to 24$"):
            Device("bad", DeviceKind.LOCAL_SIMULATOR, capacity=25)


class TestSubmitSync:
    def test_bell(self, registry):
        result = registry.submit_sync("sim0", bell_circuit(), 1000, 7)
        h = result.histogram
        assert h.counts[1] == 0 and h.counts[2] == 0
        assert sum(h.counts) == 1000
        assert result.device_name == "sim0"
        assert result.wall_time >= 0

    def test_unknown_device(self, registry):
        with pytest.raises(UnknownDeviceError):
            registry.submit_sync("nope", bell_circuit(), 10, 0)

    def test_capacity_exceeded(self, registry):
        registry.register(Device("tiny", DeviceKind.LOCAL_SIMULATOR, capacity=2))
        big = create_circuit(3).measure()
        with pytest.raises(CapacityExceededError):
            registry.submit_sync("tiny", big, 10, 0)

    def test_unmeasured_circuit_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.submit_sync("sim0", create_circuit(1).h(0), 10, 0)

    def test_zero_shots_rejected(self, registry):
        with pytest.raises(ValueError, match=_SHOTS_RULE):
            registry.submit_sync("sim0", bell_circuit(), 0, 0)


class TestSubmitAsync:
    def test_handle_status_lifecycle(self, registry):
        handle = registry.submit_async("sim0", bell_circuit(), 100, 3)
        result = registry.wait(handle)
        assert handle.wait(0)
        assert handle.result is result and handle.error is None

    def test_wait_timeout_on_unfinished_job(self):
        backend = _GatedBackend()
        registry = DeviceRegistry()
        registry.register(Device("gated", DeviceKind.LOCAL_SIMULATOR), backend)
        try:
            handle = registry.submit_async("gated", bell_circuit(), 100, 3)
            assert backend.entered.wait(timeout=30)
            with pytest.raises(TimeoutError):
                registry.wait(handle, timeout=0.05)
            assert not handle.wait(0)
            assert handle.result is None and handle.error is None
            backend.release.set()
            result = registry.wait(handle, timeout=30)
            assert result.histogram == sim.run_and_sample(bell_circuit(), 100, 3)
        finally:
            backend.release.set()
            registry.shutdown()

    def test_sync_async_equivalence(self, registry):
        rng = random.Random(17)
        for _ in range(20):
            c = random_circuit(rng, rng.randint(1, 4), rng.randint(1, 15))
            seed = rng.randrange(2 ** 32)
            sync = registry.submit_sync("sim0", c, 500, seed)
            handle = registry.submit_async("sim0", c, 500, seed)
            asyn = registry.wait(handle)
            assert sync.histogram == asyn.histogram

    def test_wait_idempotent(self, registry):
        handle = registry.submit_async("sim0", bell_circuit(), 100, 5)
        first = registry.wait(handle)
        second = registry.wait(handle)
        assert first is second

    def test_submission_errors_are_synchronous(self, registry):
        with pytest.raises(UnknownDeviceError):
            registry.submit_async("nope", bell_circuit(), 10, 0)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 10 ** 5000, np.int64(2)],
                             ids=["negative", "2**64", "5001-digits",
                                  "numpy-int"])
    @pytest.mark.parametrize("remote", [False, True], ids=["local", "remote"])
    def test_seed_out_of_range_refuses_only_its_job(self, registry, remote,
                                                    seed):
        # A seed the wire cannot carry once failed every job of its batch:
        # a numpy integer with "Object of type int64 is not JSON
        # serializable".
        server = serve() if remote else None
        name = "sim0"
        if remote:
            name = "qpu0"
            registry.register(Device(name, DeviceKind.REMOTE,
                                     endpoint=server.address))
        try:
            first = registry.submit_async(name, bell_circuit(), 10, 1)
            with pytest.raises(ValueError, match=r"from 0 to 2\*\*64 - 1"):
                registry.submit_async(name, bell_circuit(), 10, seed)
            last = registry.submit_async(name, bell_circuit(), 10, 2)
            for handle, own_seed in [(first, 1), (last, 2)]:
                assert (registry.wait(handle, timeout=30).histogram
                        == sim.run_and_sample(bell_circuit(), 10, own_seed))
        finally:
            registry.shutdown()
            if server is not None:
                server.shutdown()

    @pytest.mark.parametrize("shots, seed, rule", [
        (True, 0, _SHOTS_RULE),
        (10.0, 0, _SHOTS_RULE),
        (10, True, _SEED_RULE),
        (10, 1.5, _SEED_RULE),
        (10, "5", _SEED_RULE),
        (10, None, _SEED_RULE),
        (10, -1, _SEED_RULE),
        (10, 2 ** 64, _SEED_RULE),
        (10, np.int64(2), _SEED_RULE),
    ], ids=["bool-shots", "float-shots", "bool-seed", "float-seed",
            "str-seed", "null-seed", "negative-seed", "seed-2**64",
            "numpy-seed"])
    def test_local_and_remote_refuse_the_same_jobs(self, registry, shots,
                                                   seed, rule):
        # One job rule for every device: each refusal is the same
        # `ValueError` at submit, and a remote device sends nothing.
        server, counts = counting_server()
        registry.register(Device("qpu0", DeviceKind.REMOTE,
                                 endpoint=server.address))
        try:
            for name in ["sim0", "qpu0"]:
                with pytest.raises(ValueError, match=rule):
                    registry.submit_async(name, bell_circuit(), shots, seed)
        finally:
            registry.shutdown()
            server.shutdown()
        assert counts["SubmitJob"] == 0

    def test_three_concurrent_jobs(self, registry):
        handles = [registry.submit_async("sim0", bell_circuit(), 100 * (i + 1), i)
                   for i in range(3)]
        results = [registry.wait(h) for h in handles]
        for i, r in enumerate(results):
            assert sum(r.histogram.counts) == 100 * (i + 1)

    def test_fifo_completion_order(self, registry):
        rng = random.Random(23)
        handles = [registry.submit_async(
            "sim0", random_circuit(rng, 3, 10), 2000, i) for i in range(8)]
        results = [registry.wait(h) for h in handles]
        starts = [r.started_at for r in results]
        assert starts == sorted(starts)
        # single worker: running intervals never overlap
        for prev, nxt in zip(results, results[1:]):
            assert nxt.started_at >= prev.finished_at

    def test_no_lost_jobs_many_submitters(self, registry):
        ids = []
        lock = threading.Lock()

        def submitter(seed):
            handle = registry.submit_async("sim0", bell_circuit(), 50, seed)
            result = registry.wait(handle)
            with lock:
                ids.append((handle.job_id, result))

        threads = [threading.Thread(target=submitter, args=(i,))
                   for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(ids) == 16
        assert len({job_id for job_id, _ in ids}) == 16
        for _, result in ids:
            assert sum(result.histogram.counts) == 50

    def test_job_ids_unique_across_registries(self, registry):
        # Every job is admitted by `DeviceWorker.submit`, which draws its id
        # from one counter for the whole process: jobs of two registries,
        # submitted by threads that switch every few bytecodes, never share
        # an id.
        other = DeviceRegistry()
        other.register(Device("sim0", DeviceKind.LOCAL_SIMULATOR))
        handles, lock = [], threading.Lock()

        def submitter(reg):
            mine = [reg.submit_async("sim0", bell_circuit(), 10, seed)
                    for seed in range(25)]
            with lock:
                handles.extend(mine)

        threads = [threading.Thread(target=submitter, args=(reg,))
                   for reg in [registry, other] * 4]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert all(h.wait(timeout=30) for h in handles)
        finally:
            sys.setswitchinterval(interval)
            other.shutdown()
        assert len(handles) == 200
        assert len({h.job_id for h in handles}) == 200
        assert all(h.error is None for h in handles)

    def test_cross_thread_wait(self, registry):
        handle = registry.submit_async("sim0", bell_circuit(), 100, 1)
        out = {}

        def waiter():
            out["result"] = registry.wait(handle)

        t = threading.Thread(target=waiter)
        t.start()
        t.join()
        assert sum(out["result"].histogram.counts) == 100

    def test_every_waiter_sees_the_settled_outcome(self, registry):
        # The worker stores a handle's outcome and then sets its event; a
        # waiter on another thread must find the outcome once `wait` is
        # True, even with the threads switching every few bytecodes.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            handles = [registry.submit_async("sim0", bell_circuit(), 10, seed)
                       for seed in range(40)]
            seen = [[] for _ in range(8)]

            def waiter(out):
                for handle in handles:
                    out.append(handle.result if handle.wait(timeout=30)
                               else None)

            threads = [threading.Thread(target=waiter, args=(out,))
                       for out in seen]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert all(h.error is None for h in handles)
        expected = [registry.wait(h) for h in handles]
        assert None not in expected
        assert all(out == expected for out in seen)

    def test_remote_failure_propagates(self, registry):
        # nothing listens on this port
        registry.register(Device("qpu0", DeviceKind.REMOTE,
                                 endpoint=("127.0.0.1", 1)))
        handle = registry.submit_async("qpu0", bell_circuit(), 10, 0)
        with pytest.raises(JobFailedError) as exc:
            registry.wait(handle)
        assert handle.result is None and handle.error is not None
        assert exc.value.__cause__ is handle.error


class _GatedBackend(LocalSimulatorBackend):
    """Records the size of each batch; the first batch waits for `release`
    once it has set `entered`."""

    def __init__(self):
        self.entered, self.release = threading.Event(), threading.Event()
        self.batches = []
        self.closed = False

    def run_batch(self, jobs):
        self.batches.append(len(jobs))
        if len(self.batches) == 1:
            self.entered.set()
            assert self.release.wait(timeout=30)
        yield from super().run_batch(jobs)

    def close(self):
        self.closed = True


class _BrokenAfterOne(_GatedBackend):
    """Gated as its base; from the second batch on, it answers the first job
    and then gives up on the rest."""

    def run_batch(self, jobs):
        outcomes = super().run_batch(jobs)
        yield next(outcomes)
        if len(self.batches) > 1:
            raise ConnectionError("link lost")
        yield from outcomes


class TestBatches:
    def test_worker_takes_queued_jobs_as_one_batch_then_stops(self):
        backend = _GatedBackend()
        registry = DeviceRegistry()
        registry.register(Device("gated", DeviceKind.LOCAL_SIMULATOR), backend)
        worker = registry._workers["gated"]
        rng = random.Random(12)
        jobs = [(random_circuit(rng, 3, 8), 100, rng.randrange(2 ** 32))
                for _ in range(5)]
        try:
            handles = [registry.submit_async("gated", *jobs[0])]
            assert backend.entered.wait(timeout=30)
            handles += [registry.submit_async("gated", *job) for job in jobs[1:]]
        finally:
            # The stop is queued behind the 4 jobs and taken with them.
            registry.shutdown()
            backend.release.set()
        worker.thread.join(timeout=30)
        assert not worker.thread.is_alive()
        assert backend.batches == [1, 4] and backend.closed
        for (circuit, shots, seed), handle in zip(jobs, handles):
            assert handle.wait(0) and handle.error is None
            assert handle.result.histogram == sim.run_and_sample(circuit, shots,
                                                                 seed)

    def test_backend_giving_up_fails_only_unanswered_jobs(self):
        backend = _BrokenAfterOne()
        registry = DeviceRegistry()
        registry.register(Device("broken", DeviceKind.LOCAL_SIMULATOR), backend)
        try:
            handles = [registry.submit_async("broken", bell_circuit(), 10, 0)]
            assert backend.entered.wait(timeout=30)
            handles += [registry.submit_async("broken", bell_circuit(), 10, i)
                        for i in (1, 2, 3)]
            backend.release.set()
            for seed, handle in enumerate(handles[:2]):
                result = registry.wait(handle, timeout=30)
                assert result.histogram == sim.run_and_sample(bell_circuit(),
                                                              10, seed)
            for handle in handles[2:]:
                with pytest.raises(JobFailedError, match="link lost"):
                    registry.wait(handle, timeout=30)
            assert backend.batches == [1, 3]
        finally:
            backend.release.set()
            registry.shutdown()


def _body(rng, n):
    """Gates for circuits to share: RY on ascending qubits, which the
    simulator folds into a product state, then random gates, drawn from
    every kind or mostly from the permutations it gathers."""
    circuit = create_circuit(n)
    for q in range(rng.randint(0, n)):
        circuit.ry(q, rng.uniform(-3, 3))
    kinds = rng.choice([tuple(GateKind), (GateKind.X, GateKind.CX,
                                          GateKind.SWAP, GateKind.H)])
    for gate in random_circuit(rng, n, rng.randint(0, 10), measured=False,
                               kinds=kinds).gates:
        circuit.apply(gate)
    return circuit.gates


@st.composite
def shared_batches(draw):
    """(jobs, index of the marked job or None, "fail" or "hold"). Most jobs
    are on n qubits: a job-specific first gate, a random-length prefix of
    one body and 0-4 gates of their own. The others are random circuits on
    other register sizes. The pass drops each first gate, so the jobs share
    no gate before it and the body's prefixes after it."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 6))
    body = _body(rng, n)
    jobs = []
    for _ in range(draw(st.integers(2, 7))):
        if draw(st.integers(0, 3)):
            size = n
            cut = draw(st.sampled_from([len(body), rng.randint(0, len(body))]))
            gates = body[:cut] + random_circuit(
                rng, n, rng.randint(0, 4), measured=False).gates
        else:
            size = rng.choice([m for m in range(1, 8) if m != n])
            gates = random_circuit(rng, size, rng.randint(0, 8),
                                   measured=False).gates
        first = random_circuit(rng, size, 1, measured=False).gates
        jobs.append(Job(Circuit(size, first + gates, True),
                        rng.randint(1, 300), rng.randrange(2 ** 64),
                        submitted_at=0.0))
    marked = (draw(st.integers(1, len(jobs) - 2)) if len(jobs) > 2
              and draw(st.booleans()) else None)
    return jobs, marked, draw(st.sampled_from(["fail", "hold"]))


def _passed(circuit):
    return Circuit(circuit.num_qubits, circuit.gates[1:], True)


class _DropFirstGate(LocalSimulatorBackend):
    """Its pass drops each circuit's first gate. The pass fails on the
    circuit `failing`, and waits on `release` for the circuit `held`, once
    it has set `entered`."""

    def __init__(self, failing=None, held=None):
        self.failing, self.held = failing, held
        self.entered, self.release = threading.Event(), threading.Event()

    def prepare(self, circuit):
        if circuit is self.failing:
            raise ValueError("pass rejected the circuit")
        if circuit is self.held:
            self.entered.set()
            assert self.release.wait(timeout=30)
        return _passed(circuit)


class TestSharedPrefixBatches:
    """`LocalSimulatorBackend.run_batch` runs the gate prefix that
    consecutive jobs of one register size share once; a job's outcome is
    still `sim.run_and_sample` of its prepared circuit, seed for seed."""

    @given(shared_batches())
    @settings(max_examples=150, deadline=None)
    def test_outcomes_equal_run_and_sample(self, batch):
        jobs, marked, how = batch
        circuit = None if marked is None else jobs[marked].circuit
        backend = (_DropFirstGate(failing=circuit) if how == "fail"
                   else _DropFirstGate(held=circuit))
        outcomes = []
        runner = threading.Thread(
            target=lambda: outcomes.extend(backend.run_batch(jobs)))
        runner.start()
        if circuit is not None and how == "hold":
            assert backend.entered.wait(timeout=30)
            # Every job is prepared before the first one runs.
            assert outcomes == []
            backend.release.set()
        runner.join(timeout=60)
        assert len(outcomes) == len(jobs)
        for i, (job, outcome) in enumerate(zip(jobs, outcomes)):
            if i == marked and how == "fail":
                assert isinstance(outcome, ValueError)
            else:
                assert outcome == sim.run_and_sample(_passed(job.circuit),
                                                     job.shots, job.seed)

    def test_each_shared_prefix_runs_once(self, monkeypatch):
        # After the pass, two 3-qubit jobs share 12 gates, a 2-qubit job
        # shares nothing, and two more 3-qubit jobs share 8 gates.
        rng = random.Random(5)
        body = create_circuit(3)
        for i in range(12):
            if i % 4 == 3:
                body.cx(i % 3, (i + 1) % 3)
            else:
                body.ry(i % 3, rng.uniform(-3, 3))
        body = body.gates
        tails = [[Gate(kind, (q,))] for kind, q in
                 ((GateKind.H, 0), (GateKind.X, 1), (GateKind.Y, 2),
                  (GateKind.Z, 0))]
        circuits = [(3, body + tails[0]), (3, body + tails[1]),
                    (2, random_circuit(rng, 2, 6, measured=False).gates),
                    (3, body[:8] + tails[2]), (3, body + tails[3])]
        jobs = [Job(Circuit(n, [Gate(GateKind.T, (0,))] + gates, True),
                    100, seed, submitted_at=0.0)
                for seed, (n, gates) in enumerate(circuits)]
        runs = []
        run_statevector = sim.run_statevector

        def recorded(circuit, stop=None):
            runs.append((circuit.num_qubits, stop))
            return run_statevector(circuit, stop)

        monkeypatch.setattr(sim, "run_statevector", recorded)
        outcomes = list(_DropFirstGate().run_batch(jobs))
        assert runs == [(3, 12), (2, None), (3, 8)]
        monkeypatch.undo()
        assert outcomes == [sim.run_and_sample(_passed(job.circuit), job.shots,
                                               job.seed) for job in jobs]
