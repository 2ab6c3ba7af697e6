import gc
import random
import threading
import time
import warnings

import pytest

from qoffload import sim
from qoffload.circuit import bell_circuit
from qoffload.qasm import emit_qasm
from qoffload.resman import ResmanClient, ServerError, client_submit, serve
from qoffload.resman import protocol
from qoffload.runtime import Device, DeviceKind, DeviceRegistry, JobFailedError

from oracles import random_circuit


def _failing_pass(circuit):
    raise ValueError("pass rejected the circuit")


@pytest.fixture
def server():
    srv = serve()
    yield srv
    srv.shutdown()


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
    ], ids=["status-list-id", "fetch-list-id", "status-bool-id",
            "fetch-bool-id", "bool-shots", "bool-seed"])
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
