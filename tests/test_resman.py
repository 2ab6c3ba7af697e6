import gc
import json
import math
import random
import select
import socket
import struct
import threading
import time
import warnings

import pytest

from qoffload import runtime, sim
from qoffload.circuit import bell_circuit, create_circuit
from qoffload.qasm import QASM_HEADER, emit_qasm
from qoffload.resman import ResmanClient, ServerError, client_submit, serve
from qoffload.resman import client as client_module, protocol
from qoffload.runtime import (Device, DeviceKind, DeviceRegistry, Job,
                              JobFailedError, RemoteBackend)

from oracles import random_circuit
from servers import counting_server


def _failing_pass(circuit):
    raise ValueError("pass rejected the circuit")


@pytest.fixture
def server():
    srv = serve()
    yield srv
    srv.shutdown()


def _held_server(then=lambda circuit: circuit):
    """A counting server whose first job waits in its optimization pass
    until `release` is set; `entered` is set once it waits. Every job then
    goes through the pass `then`."""
    entered, release = threading.Event(), threading.Event()

    def hold_first(circuit):
        if not entered.is_set():
            entered.set()
            assert release.wait(timeout=30)
        return then(circuit)

    srv, counts = counting_server(optimization_pass=hold_first)
    return srv, counts, entered, release


class TestServer:
    def test_ping_pong(self, server):
        with ResmanClient(server.address) as client:
            client.ping()

    @pytest.mark.parametrize("value", [-1, math.nan, math.inf])
    @pytest.mark.parametrize("name", ["latency", "result_ttl"])
    def test_latency_and_ttl_must_be_finite_and_not_negative(self, name,
                                                              value):
        with pytest.raises(ValueError,
                           match=f"{name} must be a finite number >= 0"):
            serve(**{name: value})

    def test_submit_and_fetch_matches_local(self, server):
        with ResmanClient(server.address) as client:
            job_id = client.submit(emit_qasm(bell_circuit()), 1000, 7)
            histogram, wall = client.fetch(job_id)
        assert histogram == sim.run_and_sample(bell_circuit(), 1000, 7)
        assert wall >= 0

    @pytest.mark.parametrize("optimization_pass", [None, _failing_pass],
                             ids=["done", "failed"])
    def test_fetch_waits_for_the_job(self, optimization_pass):
        srv, _counts, entered, release = _held_server(
            optimization_pass or (lambda circuit: circuit))
        try:
            with ResmanClient(srv.address, timeout=30) as client:
                job_id = client.submit(emit_qasm(bell_circuit()), 100, 3)
                assert entered.wait(timeout=30)
                protocol.send_message(client._sock,
                                      protocol.fetch_result(job_id))
                # The job is held, so the fetch is not answered yet.
                assert select.select([client._sock], [], [], 0.2)[0] == []
                release.set()
                reply = client._receive()
        finally:
            release.set()
            srv.shutdown()
        if optimization_pass is None:
            assert reply["kind"] == "Result", reply
            assert (client_module._histogram(reply)[0]
                    == sim.run_and_sample(bell_circuit(), 100, 3))
        else:
            assert reply["kind"] == "Error"
            assert reply["code"] == "JOB_FAILED"
            assert "pass rejected the circuit" in reply["message"]

    def test_reply_timeout_closes_connection(self):
        srv, _counts, entered, release = _held_server()
        try:
            with ResmanClient(srv.address, timeout=0.2) as client:
                job_id = client.submit(emit_qasm(bell_circuit()), 100, 3)
                assert entered.wait(timeout=30)
                with pytest.raises(TimeoutError):
                    client.fetch(job_id)
                assert client._sock.fileno() == -1
                release.set()
                # The late Result must not answer the next request.
                with pytest.raises(OSError):
                    client.ping()
        finally:
            release.set()
            srv.shutdown()

    @pytest.mark.parametrize("qasm", [
        "OPENQASM 2.0;\nqreg q[2;\n",
        QASM_HEADER + "qreg q[2];\ncreg c[2];\nry(1e999) q[0];\nmeasure q -> c;\n",
        QASM_HEADER + "qreg q[2];\ncreg c[2];\nrx(1e308*10) q[0];\nmeasure q -> c;\n",
        QASM_HEADER + "qreg q[25];\ncreg c[25];\nmeasure q -> c;\n",
        QASM_HEADER + "qreg q[2];\ncreg c[2];\ncx q[1],q[1];\nmeasure q -> c;\n",
        QASM_HEADER + "qreg q[2];\ncreg c[2];\nh q[" + "0" * 5000 + "];\n"
        "measure q -> c;\n",
    ], ids=["missing-bracket", "inf-literal", "inf-product", "over-ir-bound",
            "same-targets", "5000-digit-index"])
    def test_malformed_qasm_parse_error(self, server, qasm):
        with ResmanClient(server.address) as client:
            with pytest.raises(ServerError) as exc:
                client.submit(qasm, 10, 0)
            client.ping()  # the connection survives the rejected job
        assert exc.value.code == "PARSE"
        assert "line" in str(exc.value)

    def test_unknown_job(self, server):
        with ResmanClient(server.address) as client:
            with pytest.raises(ServerError) as exc:
                client.fetch(98765)
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
    def test_unfetched_result_evicted_after_ttl(self, optimization_pass):
        srv = serve(result_ttl=0.05, optimization_pass=optimization_pass)
        try:
            with ResmanClient(srv.address) as client:
                job_id = client.submit(emit_qasm(bell_circuit()), 10, 0)
                assert srv._jobs[job_id].wait(timeout=30)
                time.sleep(0.1)
                client.ping()  # triggers the eviction sweep
                assert srv._jobs == {}
                with pytest.raises(ServerError) as exc:
                    client.fetch(job_id)
                assert exc.value.code == "UNKNOWN_JOB"
        finally:
            srv.shutdown()

    @pytest.mark.parametrize("optimization_pass", [None, _failing_pass],
                             ids=["done", "failed"])
    def test_waited_result_not_retained(self, optimization_pass):
        srv = serve(optimization_pass=optimization_pass)
        try:
            with ResmanClient(srv.address) as client:
                reply = client.request(protocol.submit_batch(
                    [(emit_qasm(bell_circuit()), 10, 0)]))
                if optimization_pass is None:
                    assert reply["kind"] == "Result"
                    assert sum(reply["counts"]) == 10
                else:
                    assert reply["kind"] == "Error"
                    assert reply["code"] == "JOB_FAILED"
                    assert "pass rejected the circuit" in reply["message"]
                # No reply named the job, so nothing of it is kept.
                with pytest.raises(ServerError) as exc:
                    client.fetch(1)
                assert exc.value.code == "UNKNOWN_JOB"
            assert srv._jobs == {}
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
                [outcome] = client.run_batch(
                    [(emit_qasm(bell_circuit()), 10, 0)])
                assert isinstance(outcome, ServerError)
                assert outcome.code == "JOB_FAILED"
                assert "shut down" in str(outcome)
        finally:
            timer.join(timeout=5)
            srv.shutdown()

    def test_failed_job_reported(self):
        srv = serve(optimization_pass=_failing_pass)
        registry = DeviceRegistry()
        try:
            with ResmanClient(srv.address) as client:
                job_id = client.submit(emit_qasm(bell_circuit()), 10, 0)
                with pytest.raises(ServerError) as exc:
                    client.fetch(job_id)
                assert exc.value.code == "JOB_FAILED"
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
        {"kind": "FetchResult", "job_id": [1]},
        {"kind": "FetchResult", "job_id": True},
        {"kind": "SubmitJob", "qasm": emit_qasm(bell_circuit()),
         "shots": True, "seed": 0},
        {"kind": "SubmitJob", "qasm": emit_qasm(bell_circuit()),
         "shots": 10, "seed": False},
        {"kind": "SubmitJob", "qasm": 5, "shots": 10, "seed": 0},
        {"kind": "SubmitJob", "qasm": None, "shots": 10, "seed": 0},
    ], ids=["fetch-list-id", "fetch-bool-id", "bool-shots", "bool-seed",
            "int-qasm", "null-qasm"])
    def test_bad_field_type_rejected(self, server, request_msg):
        with ResmanClient(server.address) as client:
            client_submit(server.address, bell_circuit(), 10, 0)  # job 1 exists
            response = client.request(request_msg)
            assert response["kind"] == "Error"
            assert response["code"] == "BAD_REQUEST"
            client.ping()  # the connection survives

    @pytest.mark.parametrize("request_msg", [
        {"kind": "SubmitJob", "jobs": None},
        {"kind": "SubmitJob", "jobs": {"qasm": emit_qasm(bell_circuit()),
                                       "shots": 10, "seed": 0}},
        {"kind": "SubmitJob", "jobs": []},
        {"kind": "SubmitJob", "jobs": [
            {"qasm": emit_qasm(bell_circuit()), "shots": 10, "seed": 0}, 5]},
        {"kind": "SubmitJob", "jobs": [[emit_qasm(bell_circuit()), 10, 0]]},
        {"kind": "SubmitJob", "qasm": emit_qasm(bell_circuit()), "jobs": [
            {"qasm": emit_qasm(bell_circuit()), "shots": 10, "seed": 0}]},
    ], ids=["null-jobs", "object-jobs", "empty-jobs", "int-entry",
            "list-entry", "jobs-and-qasm"])
    def test_malformed_batch_rejected_once(self, server, request_msg):
        with ResmanClient(server.address) as client:
            response = client.request(request_msg)
            assert response["kind"] == "Error"
            assert response["code"] == "BAD_BATCH"
            client.ping()  # the connection survives, with no reply left over
        assert server._jobs == {}  # no job of the batch ran

    def test_batch_answered_as_a_whole_fails_every_job(self):
        # A server that sends BAD_BATCH for the whole request, and then no
        # frame for its jobs: the client reads no further frame, so the
        # ping after it is answered at once.
        srv = serve()
        srv._replies = lambda msg: iter([
            protocol.error("BAD_BATCH", "refused") if "jobs" in msg
            else protocol.pong()])
        try:
            with ResmanClient(srv.address, timeout=5) as client:
                jobs = [(emit_qasm(bell_circuit()), 10, seed) for seed in range(3)]
                outcomes = list(client.run_batch(jobs))
                assert [type(o) for o in outcomes] == [ServerError] * 3
                assert {o.code for o in outcomes} == {"BAD_BATCH"}
                client.ping()
        finally:
            srv.shutdown()

    def test_batch_yields_each_jobs_histogram_or_error(self, server):
        circuit = random_circuit(random.Random(9), 3, 8)
        entries = [(emit_qasm(bell_circuit()), 100, 1),
                   ("OPENQASM 2.0;\nqreg q[2;\n", 10, 2),
                   (emit_qasm(circuit), 50, 3)]
        with ResmanClient(server.address, timeout=30) as client:
            first, failed, last = client.run_batch(entries)
            client.ping()  # every frame of the batch was read
        assert first == sim.run_and_sample(bell_circuit(), 100, 1)
        assert isinstance(failed, ServerError) and failed.code == "PARSE"
        assert last == sim.run_and_sample(circuit, 50, 3)

    @pytest.mark.parametrize("entry, code", [
        ({"shots": 10, "seed": 0}, "BAD_REQUEST"),
        ({"qasm": emit_qasm(bell_circuit()), "seed": 0}, "BAD_REQUEST"),
        ({"qasm": emit_qasm(bell_circuit()), "shots": 10}, "BAD_REQUEST"),
        ({"qasm": emit_qasm(bell_circuit()), "shots": True, "seed": 0},
         "BAD_REQUEST"),
        ({"qasm": emit_qasm(bell_circuit()), "shots": 10, "seed": False},
         "BAD_REQUEST"),
        ({"qasm": 5, "shots": 10, "seed": 0}, "BAD_REQUEST"),
        ({"qasm": "OPENQASM 2.0;\nqreg q[2;\n", "shots": 10, "seed": 0},
         "PARSE"),
        ({"qasm": emit_qasm(random_circuit(random.Random(1), 3, 4)),
          "shots": 10, "seed": 0}, "CAPACITY"),
    ], ids=["missing-qasm", "missing-shots", "missing-seed", "bool-shots",
            "bool-seed", "int-qasm", "parse", "capacity"])
    def test_bad_batch_entry_fails_only_its_job(self, entry, code):
        rng = random.Random(707)
        siblings = [(random_circuit(rng, 2, 8), 100 + i, rng.randrange(2 ** 32))
                    for i in range(2)]
        jobs = [{"qasm": emit_qasm(circuit), "shots": shots, "seed": seed}
                for circuit, shots, seed in siblings]
        srv = serve(capacity=2)
        try:
            with socket.create_connection(srv.address, timeout=10) as sock:
                protocol.send_message(sock, {"kind": "SubmitJob",
                                             "jobs": [jobs[0], entry, jobs[1]]})
                replies = [protocol.recv_message(sock) for _ in range(3)]
                protocol.send_message(sock, protocol.ping())
                assert protocol.recv_message(sock) == protocol.pong()
        finally:
            srv.shutdown()
        assert replies[1]["kind"] == "Error"
        assert replies[1]["code"] == code
        for (circuit, shots, seed), reply in zip(siblings, replies[::2]):
            assert reply["kind"] == "Result"
            local = sim.run_and_sample(circuit, shots, seed)
            assert client_module._histogram(reply)[0] == local

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


class TestRemoteBackend:
    def test_jobs_carried_over_one_connection(self):
        srv, counts = counting_server()
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
            # The 4 synchronous jobs go one request each; the 4 asynchronous
            # ones go in 1 to 4 requests, as the worker finds them queued.
            assert 5 <= counts["SubmitJob"] <= 8
            assert counts == {"SubmitJob": counts["SubmitJob"], "jobs": 8,
                              "connections": 1}
        finally:
            registry.shutdown()
            srv.shutdown()

    def test_jobs_queued_behind_a_running_job_go_in_one_request(self):
        srv, counts, entered, release = _held_server()
        registry = DeviceRegistry()
        try:
            registry.register(Device("qpu", DeviceKind.REMOTE,
                                     endpoint=srv.address))
            rng = random.Random(606)
            jobs = [(random_circuit(rng, 3, 10), 200, rng.randrange(2 ** 32))
                    for _ in range(5)]
            handles = [registry.submit_async("qpu", *jobs[0])]
            assert entered.wait(timeout=30)
            handles += [registry.submit_async("qpu", *job) for job in jobs[1:]]
            release.set()
            for (circuit, shots, seed), handle in zip(jobs, handles):
                result = registry.wait(handle, timeout=30)
                assert result.histogram == sim.run_and_sample(circuit, shots,
                                                              seed)
            assert counts == {"SubmitJob": 2, "jobs": 5, "connections": 1}
        finally:
            release.set()
            registry.shutdown()
            srv.shutdown()

    def test_batch_too_large_for_a_frame_is_split(self, monkeypatch):
        rng = random.Random(808)
        jobs = [(random_circuit(rng, 3, 6), 100, rng.randrange(2 ** 32))
                for _ in range(6)]
        huge = random_circuit(rng, 3, 200)
        single = len(protocol.encode_frame(protocol.submit_batch(
            [(emit_qasm(jobs[0][0]), 100, 0)])))
        # Room for about two jobs a request, and none for the huge one.
        limit = 2 * single + 200
        assert len(emit_qasm(huge)) > limit
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", limit)
        srv, counts, entered, release = _held_server()
        registry = DeviceRegistry()
        try:
            registry.register(Device("qpu", DeviceKind.REMOTE,
                                     endpoint=srv.address))
            first = registry.submit_async("qpu", bell_circuit(), 10, 0)
            assert entered.wait(timeout=30)
            # The 7 jobs queue behind the held one, and go as one batch.
            handles = [registry.submit_async("qpu", *job) for job in jobs[:3]]
            handles.append(registry.submit_async("qpu", huge, 100, 1))
            handles += [registry.submit_async("qpu", *job) for job in jobs[3:]]
            release.set()
            registry.wait(first, timeout=30)
            with pytest.raises(JobFailedError, match="exceeds limit"):
                registry.wait(handles.pop(3), timeout=30)
            for (circuit, shots, seed), handle in zip(jobs, handles):
                result = registry.wait(handle, timeout=30)
                assert result.histogram == sim.run_and_sample(circuit, shots,
                                                              seed)
            # The huge job is never sent; the others need 3 or more requests.
            assert counts["jobs"] == 1 + len(jobs)
            assert counts["SubmitJob"] >= 1 + 3
            assert counts["connections"] == 1
        finally:
            release.set()
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
        srv, counts = counting_server()
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
        srv, counts = counting_server()
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

    def test_failed_resend_is_not_resent_again(self):
        # Every SubmitJob after the first cuts its connection: the second
        # job is sent on the reused connection, resent once on a new one,
        # and then fails.
        srv, counts = counting_server()
        counted = srv._replies

        def cut_after_first_submit(msg):
            replies = counted(msg)
            if msg["kind"] == "SubmitJob" and counts["SubmitJob"] > 1:
                raise OSError("connection cut")  # the server closes it
            return replies

        srv._replies = cut_after_first_submit
        registry = DeviceRegistry()
        try:
            registry.register(Device("qpu", DeviceKind.REMOTE,
                                     endpoint=srv.address))
            registry.submit_sync("qpu", bell_circuit(), 10, 0)
            with pytest.raises(JobFailedError):
                registry.submit_sync("qpu", bell_circuit(), 10, 1)
            assert counts["connections"] == 2
            assert counts["SubmitJob"] == 3
        finally:
            registry.shutdown()
            srv.shutdown()

    def test_reply_timeout_fails_job_then_reconnects(self, monkeypatch):
        srv, counts = counting_server(latency=0.3)
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
        # H on 10 qubits at 4096 shots gives about 1000 nonzero outcomes, a
        # Result frame of over 2 kB in either form.
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 2000)
        srv, counts = counting_server()
        registry = DeviceRegistry()
        spread = create_circuit(10)
        for q in range(10):
            spread.h(q)
        try:
            registry.register(Device("qpu", DeviceKind.REMOTE,
                                     endpoint=srv.address))
            with pytest.raises(JobFailedError, match="does not fit in a frame"):
                registry.submit_sync("qpu", spread.measure(), 4096, 0)
            # Answered, not dropped: the job is not resent, and the
            # connection serves the next job.
            result = registry.submit_sync("qpu", bell_circuit(), 10, 0)
            assert result.histogram == sim.run_and_sample(bell_circuit(), 10, 0)
            assert counts == {"SubmitJob": 2, "jobs": 2, "connections": 1}
        finally:
            registry.shutdown()
            srv.shutdown()


    def test_result_too_large_dense_fits_sparse(self, monkeypatch):
        # The scaled-down form of a 23-qubit job: its 2^n counts would
        # exceed the frame limit, its Result of nonzero outcomes does not.
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 2000)
        circuit = random_circuit(random.Random(5), 10, 4)
        local = sim.run_and_sample(circuit, 10, 0)
        assert len(json.dumps(local.counts)) > protocol.MAX_FRAME_BYTES
        srv = serve()
        registry = DeviceRegistry()
        try:
            registry.register(Device("qpu", DeviceKind.REMOTE,
                                     endpoint=srv.address))
            result = registry.submit_sync("qpu", circuit, 10, 0)
            assert result.histogram == local
        finally:
            registry.shutdown()
            srv.shutdown()

    @pytest.mark.parametrize("corrupt", [
        lambda r: dict(r, outcomes=[*r["outcomes"][1::-1], *r["outcomes"][2:]]),
        lambda r: dict(r, outcomes=[*r["outcomes"][:1], *r["outcomes"][:-1]]),
        lambda r: dict(r, outcomes=[*r["outcomes"][:-1], 1 << r["num_qubits"]]),
        lambda r: dict(r, counts=r["counts"][:-1]),
        lambda r: dict(r, counts=[0, r["counts"][0] + r["counts"][1],
                                  *r["counts"][2:]]),
        lambda r: dict(r, counts=[r["counts"][0] + 1, *r["counts"][1:]]),
        lambda r: {k: v for k, v in r.items() if k != "server_wall_time"},
        lambda r: dict(r, server_wall_time="0.1"),
        # Valid histograms, but not of the job they answer.
        lambda r: dict(r, num_qubits=r["num_qubits"] + 1),
        lambda r: dict(r, counts=[r["counts"][0] + 1, *r["counts"][1:]],
                       shots=r["shots"] + 1),
        # The dense form of an older server: all 2^n counts, no `outcomes`
        # and no `num_qubits`.
        lambda r: {"kind": "Result",
                   "counts": list(client_module._histogram(r)[0].counts),
                   "shots": r["shots"],
                   "server_wall_time": r["server_wall_time"]},
    ], ids=["unsorted", "duplicate", "out-of-range", "length-mismatch",
            "zero-count", "sum-not-shots", "missing-wall-time",
            "str-wall-time", "wrong-num-qubits", "wrong-shots", "dense-form"])
    def test_malformed_result_fails_only_its_job(self, corrupt):
        # A server whose first request gets its first reply corrupted.
        srv = serve()
        replies, corrupted = srv._replies, []

        def corrupt_first(msg):
            frames = replies(msg)
            if not corrupted:
                corrupted.append(msg)
                yield corrupt(next(frames))
            yield from frames

        srv._replies = corrupt_first
        # Frames are sent as they are, unchecked, like a faulty server's.
        srv._frame = _raw_frame
        # 10 shots over 64 outcomes: every reply is sparse.
        spread = create_circuit(6)
        for q in range(6):
            spread.h(q)
        spread.measure()
        jobs = [Job(spread, 10, seed, submitted_at=0.0) for seed in range(3)]
        backend = RemoteBackend(srv.address)
        try:
            outcomes = list(backend.run_batch(jobs))
            assert isinstance(outcomes[0], protocol.MalformedMessageError)
            for job, outcome in zip(jobs[1:], outcomes[1:]):
                assert outcome == sim.run_and_sample(spread, 10, job.seed)
            # The next job reads its own reply, not a frame of the batch.
            again = backend.run(Job(spread, 7, 9, submitted_at=0.0))
            assert again == sim.run_and_sample(spread, 7, 9)
        finally:
            backend.close()
            srv.shutdown()

    def test_batch_left_unread_closes_connection(self, server):
        jobs = [(emit_qasm(bell_circuit()), 10, seed) for seed in range(3)]
        with ResmanClient(server.address) as client:
            outcomes = client.run_batch(jobs)
            next(outcomes)
            outcomes.close()  # two reply frames are left unread
            assert client._sock.fileno() == -1
            with pytest.raises(OSError):
                client.ping()


def _raw_frame(msg: dict) -> bytes:
    body = json.dumps(msg).encode()
    return struct.pack("!I", len(body)) + body


class TestResultForm:
    def test_replies_equal_local_20_random(self, server):
        rng = random.Random(2026)
        jobs = [(random_circuit(rng, rng.randint(1, 7), rng.randint(1, 12)),
                 rng.randint(1, 80), rng.randrange(2 ** 32))
                for _ in range(20)]
        # Every outcome measured, as in a 4-qubit sampled VQE term job.
        spread = create_circuit(4)
        for q in range(4):
            spread.h(q)
        jobs.append((spread.measure(), 1024, 7))
        entries = [(emit_qasm(circuit), shots, seed)
                   for circuit, shots, seed in jobs]
        with ResmanClient(server.address) as client:
            # Each fetch is sent as soon as its job is accepted, and waits
            # for the job.
            fetched = [client.request(protocol.fetch_result(
                client.submit(*entry))) for entry in entries]
            batched = [client.request(protocol.submit_batch(entries))]
            batched += [client._receive() for _ in entries[1:]]
        assert len(sim.run_and_sample(*jobs[-1]).outcomes) == 16
        for (circuit, shots, seed), *replies in zip(jobs, fetched, batched):
            local = sim.run_and_sample(circuit, shots, seed)
            for reply in replies:
                assert reply["kind"] == "Result", reply
                assert reply["outcomes"] == list(local.outcomes)
                assert reply["counts"] == list(local.outcome_counts)
                assert reply["num_qubits"] == circuit.num_qubits
                assert reply["shots"] == shots
                assert reply["server_wall_time"] >= 0
                assert client_module._histogram(reply)[0] == local


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
            # submit + fetch, 50 ms each leg
            assert result.wall_time >= 0.10
        finally:
            srv.shutdown()

    def test_submit_then_fetch_only(self):
        srv, counts = counting_server()
        try:
            client_submit(srv.address, bell_circuit(), 100, 1)
        finally:
            srv.shutdown()
        assert counts == {"SubmitJob": 1, "FetchResult": 1, "connections": 1}

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
