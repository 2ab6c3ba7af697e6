import collections
import gc
import random
import socket
import threading
import time
import warnings

import pytest

from qoffload import runtime, sim
from qoffload.circuit import bell_circuit
from qoffload.qasm import emit_qasm
from qoffload.resman import (ResmanClient, ResourceManagerServer, ServerError,
                             client_submit, serve)
from qoffload.resman import protocol
from qoffload.runtime import (Device, DeviceKind, DeviceRegistry, JobFailedError,
                              RemoteBackend)

from oracles import random_circuit


def _failing_pass(circuit):
    raise ValueError("pass rejected the circuit")


@pytest.fixture
def server():
    srv = serve()
    yield srv
    srv.shutdown()


def _counting_server(**kwargs):
    """A started server that counts the requests it handles, by kind, and
    the connections it accepts, under "connections"."""
    srv = ResourceManagerServer(**kwargs)
    counts = collections.Counter()
    handle, serve_connection = srv._handle, srv._serve_connection

    def counted_handle(msg):
        counts[msg["kind"]] += 1
        return handle(msg)

    def counted_connection(conn):
        counts["connections"] += 1
        serve_connection(conn)

    srv._handle = counted_handle
    srv._serve_connection = counted_connection
    return srv.start(), counts


class TestServer:
    def test_ping_pong(self, server):
        with ResmanClient(server.address) as client:
            client.ping()

    def test_submit_and_fetch_matches_local(self, server):
        with ResmanClient(server.address) as client:
            job_id = client.submit(emit_qasm(bell_circuit()), 1000, 7)
            while client.job_status(job_id) != "Done":
                time.sleep(0.001)
            histogram, wall = client.fetch(job_id)
        assert histogram == sim.run_and_sample(bell_circuit(), 1000, 7)
        assert wall >= 0

    def test_malformed_qasm_parse_error(self, server):
        with ResmanClient(server.address) as client:
            with pytest.raises(ServerError) as exc:
                client.submit("OPENQASM 2.0;\nqreg q[2;\n", 10, 0)
        assert exc.value.code == "PARSE"
        assert "line" in str(exc.value)

    def test_unknown_job(self, server):
        with ResmanClient(server.address) as client:
            with pytest.raises(ServerError) as exc:
                client.job_status(98765)
            assert exc.value.code == "UNKNOWN_JOB"

    def test_capacity_limit(self):
        srv = serve(capacity=2)
        try:
            qasm = ('OPENQASM 2.0;\ninclude "qelib1.inc";\n'
                    "qreg q[3];\ncreg c[3];\nmeasure q -> c;\n")
            with ResmanClient(srv.address) as client:
                with pytest.raises(ServerError) as exc:
                    client.submit(qasm, 10, 0)
            assert exc.value.code == "CAPACITY"
        finally:
            srv.shutdown()

    def test_bad_shots_rejected(self, server):
        with ResmanClient(server.address) as client:
            with pytest.raises(ServerError) as exc:
                client.submit(emit_qasm(bell_circuit()), 0, 0)
            assert exc.value.code == "BAD_REQUEST"

    def test_unsupported_response_kind_as_request(self, server):
        with ResmanClient(server.address) as client:
            response = client.request(protocol.pong())
            assert response["kind"] == "Error"
            assert response["code"] == "UNSUPPORTED"

    def test_bad_frame_answered_not_dropped(self, server):
        import socket
        import struct

        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(struct.pack("!I", 2 ** 26))  # oversized declaration
            response = protocol.recv_message(sock)
        assert response["kind"] == "Error"
        assert response["code"] == "BAD_FRAME"

    @pytest.mark.parametrize("body", [b'{"kind":[1]}', b'{"kind":{}}'],
                             ids=["list-kind", "object-kind"])
    def test_non_string_kind_answered_bad_frame(self, server, body):
        import socket
        import struct

        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(struct.pack("!I", len(body)) + body)
            response = protocol.recv_message(sock)
        assert response["kind"] == "Error"
        assert response["code"] == "BAD_FRAME"
        assert "must be a string" in response["message"]

    @pytest.mark.parametrize("optimization_pass", [None, _failing_pass],
                             ids=["done", "failed"])
    def test_result_evicted_after_ttl(self, optimization_pass):
        srv = serve(result_ttl=0.05, optimization_pass=optimization_pass)
        try:
            with ResmanClient(srv.address) as client:
                job_id = client.submit(emit_qasm(bell_circuit()), 10, 0)
                while client.job_status(job_id) not in ("Done", "Failed"):
                    time.sleep(0.001)
                first = client.request(protocol.fetch_result(job_id))
                assert first["kind"] == ("Result" if optimization_pass is None
                                         else "Error")
                time.sleep(0.1)
                client.ping()  # triggers the eviction sweep
                with pytest.raises(ServerError) as exc:
                    client.fetch(job_id)
                assert exc.value.code == "UNKNOWN_JOB"
        finally:
            srv.shutdown()

    @pytest.mark.parametrize("optimization_pass", [None, _failing_pass],
                             ids=["done", "failed"])
    def test_waited_result_evicted_after_ttl(self, optimization_pass):
        srv = serve(result_ttl=0.05, optimization_pass=optimization_pass)
        try:
            with ResmanClient(srv.address) as client:
                reply = client.request(protocol.submit_job(
                    emit_qasm(bell_circuit()), 10, 0, wait=True))
                if optimization_pass is None:
                    assert reply["kind"] == "Result"
                    assert sum(reply["counts"]) == 10
                else:
                    assert reply["kind"] == "Error"
                    assert reply["code"] == "JOB_FAILED"
                    assert "pass rejected the circuit" in reply["message"]
                time.sleep(0.1)
                client.ping()  # triggers the eviction sweep
                with pytest.raises(ServerError) as exc:
                    client.fetch(1)
                assert exc.value.code == "UNKNOWN_JOB"
        finally:
            srv.shutdown()

    def test_waited_submit_after_shutdown_fails(self):
        srv = serve(latency=0.3)
        # Shut down while the request sleeps its latency on the server: the
        # job then reaches a stopped worker, and fails instead of blocking
        # the connection forever.
        timer = threading.Timer(0.1, srv.shutdown)
        try:
            with ResmanClient(srv.address, timeout=10) as client:
                timer.start()
                with pytest.raises(ServerError) as exc:
                    client.run(emit_qasm(bell_circuit()), 10, 0)
                assert exc.value.code == "JOB_FAILED"
                assert "shut down" in str(exc.value)
        finally:
            timer.join(timeout=5)
            srv.shutdown()

    def test_failed_job_reported(self):
        srv = serve(optimization_pass=_failing_pass)
        registry = DeviceRegistry()
        try:
            with ResmanClient(srv.address) as client:
                job_id = client.submit(emit_qasm(bell_circuit()), 10, 0)
                deadline = time.monotonic() + 10
                while client.job_status(job_id) != "Failed":
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
            with pytest.raises(ServerError) as exc:
                client_submit(srv.address, bell_circuit(), 10, 0)
            assert exc.value.code == "JOB_FAILED"
            assert "pass rejected the circuit" in str(exc.value)

            registry.register(Device("qpu", DeviceKind.REMOTE,
                                     endpoint=srv.address))
            with pytest.raises(JobFailedError, match="pass rejected"):
                registry.submit_sync("qpu", bell_circuit(), 10, 0)
        finally:
            registry.shutdown()
            srv.shutdown()

    @pytest.mark.parametrize("request_msg", [
        {"kind": "QueryStatus", "job_id": [1]},
        {"kind": "FetchResult", "job_id": [1]},
        {"kind": "QueryStatus", "job_id": True},
        {"kind": "FetchResult", "job_id": True},
        {"kind": "SubmitJob", "qasm": emit_qasm(bell_circuit()),
         "shots": True, "seed": 0},
        {"kind": "SubmitJob", "qasm": emit_qasm(bell_circuit()),
         "shots": 10, "seed": False},
        {"kind": "SubmitJob", "qasm": emit_qasm(bell_circuit()),
         "shots": 10, "seed": 0, "wait": 1},
        {"kind": "SubmitJob", "qasm": emit_qasm(bell_circuit()),
         "shots": 10, "seed": 0, "wait": "yes"},
        {"kind": "SubmitJob", "qasm": 5, "shots": 10, "seed": 0},
        {"kind": "SubmitJob", "qasm": None, "shots": 10, "seed": 0},
    ], ids=["status-list-id", "fetch-list-id", "status-bool-id",
            "fetch-bool-id", "bool-shots", "bool-seed", "int-wait", "str-wait",
            "int-qasm", "null-qasm"])
    def test_bad_field_type_rejected(self, server, request_msg):
        with ResmanClient(server.address) as client:
            client_submit(server.address, bell_circuit(), 10, 0)  # job 1 exists
            response = client.request(request_msg)
            assert response["kind"] == "Error"
            assert response["code"] == "BAD_REQUEST"
            client.ping()  # the connection survives

    def test_optimization_pass_hook_runs(self):
        seen = []

        def identity(circuit):
            seen.append(circuit)
            return circuit

        srv = serve(optimization_pass=identity)
        try:
            client_submit(srv.address, bell_circuit(), 10, 0)
        finally:
            srv.shutdown()
        assert len(seen) == 1


class TestClientRun:
    def test_waited_reply_equals_local_20_random(self, server):
        rng = random.Random(2025)
        with ResmanClient(server.address) as client:
            for _ in range(20):
                circuit = random_circuit(rng, rng.randint(1, 4),
                                         rng.randint(1, 12))
                seed = rng.randrange(2 ** 32)
                histogram, wall = client.run(emit_qasm(circuit), 300, seed)
                assert histogram == sim.run_and_sample(circuit, 300, seed)
                assert wall >= 0


class TestRemoteBackend:
    def test_one_request_per_job_over_one_connection(self):
        srv, counts = _counting_server()
        registry = DeviceRegistry()
        try:
            registry.register(Device("qpu", DeviceKind.REMOTE,
                                     endpoint=srv.address))
            rng = random.Random(404)
            jobs = [(random_circuit(rng, 3, 10), 200, rng.randrange(2 ** 32))
                    for _ in range(8)]
            handles = [registry.submit_async("qpu", *job) for job in jobs[:4]]
            results = [registry.wait(h, timeout=30) for h in handles]
            results += [registry.submit_sync("qpu", *job) for job in jobs[4:]]
            for (circuit, shots, seed), result in zip(jobs, results):
                assert result.histogram == sim.run_and_sample(circuit, shots,
                                                              seed)
            assert counts == {"SubmitJob": 8, "connections": 1}
        finally:
            registry.shutdown()
            srv.shutdown()

    def test_latency_lower_bound(self):
        srv = serve(latency=0.05)
        registry = DeviceRegistry()
        try:
            registry.register(Device("qpu", DeviceKind.REMOTE,
                                     endpoint=srv.address))
            result = registry.submit_sync("qpu", bell_circuit(), 100, 1)
            # One leg, 50 ms, however few requests the job takes.
            assert result.wall_time >= 0.05
        finally:
            registry.shutdown()
            srv.shutdown()

    def test_registry_shutdown_closes_connection(self):
        srv, counts = _counting_server()
        gc.collect()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                registry = DeviceRegistry()
                registry.register(Device("qpu", DeviceKind.REMOTE,
                                         endpoint=srv.address))
                registry.submit_sync("qpu", bell_circuit(), 10, 0)
                worker = registry._workers["qpu"]
                registry.shutdown()
                worker.thread.join(timeout=10)
                assert not worker.thread.is_alive()
                assert worker.backend._client is None
                del registry, worker
                gc.collect()
        finally:
            srv.shutdown()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        assert counts["connections"] == 1

    def test_reconnects_after_connection_lost(self):
        srv, counts = _counting_server()
        backend = RemoteBackend(srv.address)
        registry = DeviceRegistry()
        try:
            registry.register(Device("qpu", DeviceKind.REMOTE,
                                     endpoint=srv.address), backend)
            registry.submit_sync("qpu", bell_circuit(), 10, 0)
            # The worker is idle between jobs, so the socket can be cut here.
            backend._client._sock.shutdown(socket.SHUT_RDWR)
            result = registry.submit_sync("qpu", bell_circuit(), 500, 3)
            assert result.histogram == sim.run_and_sample(bell_circuit(), 500, 3)
            assert counts["connections"] == 2
        finally:
            registry.shutdown()
            srv.shutdown()

    def test_reply_timeout_fails_job_then_reconnects(self, monkeypatch):
        srv, counts = _counting_server(latency=0.3)
        backend = RemoteBackend(srv.address)
        monkeypatch.setattr(runtime, "_REPLY_TIMEOUT", 0.1)
        registry = DeviceRegistry()
        try:
            registry.register(Device("qpu", DeviceKind.REMOTE,
                                     endpoint=srv.address), backend)
            with pytest.raises(JobFailedError, match="no reply"):
                registry.submit_sync("qpu", bell_circuit(), 10, 0)
            assert backend._client is None
            monkeypatch.setattr(runtime, "_REPLY_TIMEOUT", 10.0)
            result = registry.submit_sync("qpu", bell_circuit(), 10, 0)
            assert result.histogram == sim.run_and_sample(bell_circuit(), 10, 0)
            assert counts["connections"] == 2
        finally:
            registry.shutdown()
            srv.shutdown()


    def test_oversized_result_fails_job_once(self, monkeypatch):
        # 10 qubits give 1024 counts, a Result frame of over 2 kB.
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 2000)
        srv, counts = _counting_server()
        registry = DeviceRegistry()
        try:
            registry.register(Device("qpu", DeviceKind.REMOTE,
                                     endpoint=srv.address))
            with pytest.raises(JobFailedError, match="does not fit in a frame"):
                registry.submit_sync("qpu", random_circuit(random.Random(5), 10, 4),
                                     10, 0)
            # Answered, not dropped: the job is not resent, and the
            # connection serves the next job.
            result = registry.submit_sync("qpu", bell_circuit(), 10, 0)
            assert result.histogram == sim.run_and_sample(bell_circuit(), 10, 0)
            assert counts == {"SubmitJob": 2, "connections": 1}
        finally:
            registry.shutdown()
            srv.shutdown()


class TestClientSubmit:
    def test_remote_equals_local_20_random(self, server):
        rng = random.Random(2024)
        for _ in range(20):
            circuit = random_circuit(rng, rng.randint(1, 4), rng.randint(1, 12))
            seed = rng.randrange(2 ** 32)
            remote = client_submit(server.address, circuit, 300, seed)
            local = sim.run_and_sample(circuit, 300, seed)
            assert remote.histogram == local

    def test_latency_lower_bound(self):
        srv = serve(latency=0.05)
        try:
            result = client_submit(srv.address, bell_circuit(), 100, 1)
            # submit + at least one status poll + fetch, 50 ms each leg
            assert result.wall_time >= 0.10
        finally:
            srv.shutdown()

    def test_connection_refused(self):
        with pytest.raises(OSError):
            client_submit(("127.0.0.1", 1), bell_circuit(), 10, 0)

    def test_concurrent_clients_all_complete(self, server):
        rng = random.Random(55)
        jobs = [(random_circuit(rng, 3, 8), 100 + 10 * i, i) for i in range(8)]
        results = [None] * len(jobs)

        def run(i):
            circuit, shots, seed = jobs[i]
            results[i] = client_submit(server.address, circuit, shots, seed)

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for (circuit, shots, seed), result in zip(jobs, results):
            assert sum(result.histogram.counts) == shots
            assert result.histogram == sim.run_and_sample(circuit, shots, seed)


def test_server_bind_failure():
    srv = serve()
    try:
        with pytest.raises(OSError):
            serve(port=srv.address[1])
    finally:
        srv.shutdown()


def test_server_bind_failure_closes_socket():
    srv = serve()
    gc.collect()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(OSError):
                serve(port=srv.address[1])
            gc.collect()
    finally:
        srv.shutdown()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
