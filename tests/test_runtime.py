import random
import sys
import threading

import pytest

from qoffload import sim
from qoffload.circuit import bell_circuit, create_circuit
from qoffload.runtime import (
    CapacityExceededError,
    Device,
    DeviceKind,
    DeviceRegistry,
    DuplicateDeviceError,
    JobFailedError,
    LocalSimulatorBackend,
    UnknownDeviceError,
)

from oracles import random_circuit


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


class TestSubmitAsync:
    def test_handle_status_lifecycle(self, registry):
        handle = registry.submit_async("sim0", bell_circuit(), 100, 3)
        result = registry.wait(handle)
        assert handle.wait(0)
        assert handle.result is result and handle.error is None
        assert handle.finished_at >= result.finished_at

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
