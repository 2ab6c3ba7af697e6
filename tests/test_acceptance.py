"""Acceptance suite: one test per release criterion, one printed line each."""
import random
import struct
import time
from pathlib import Path

import numpy as np
import pytest

from qoffload import sim
from qoffload.circuit import bell_circuit
from qoffload.qasm import QasmError, emit_qasm, parse_qasm
from qoffload.qir import emit_qir
from qoffload.resman import client_submit, serve
from qoffload.resman import protocol
from qoffload.runtime import Device, DeviceKind, DeviceRegistry
from qoffload.vqe import AnsatzSpec, Hamiltonian, VqeConfig, optimize

from oracles import dense_statevector, hamiltonian_matrix, random_circuit
from test_protocol import _random_message

GOLDEN_BELL = (Path(__file__).parent / "golden" / "bell.qasm").read_text()


def _report(capsys, number: int, text: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {number:2d}: PASS  {text}")


def test_criterion_01_bell_fidelity(capsys):
    start = time.perf_counter()
    sv = sim.run_statevector(bell_circuit())
    within_5_sigma = 0
    for seed in range(50):
        h = sim.sample(sv, 1000, seed)
        assert h.counts[1] == 0 and h.counts[2] == 0
        assert h.counts[0] + h.counts[3] == 1000
        if abs(h.counts[0] - 500) <= 80:
            within_5_sigma += 1
    elapsed = time.perf_counter() - start
    assert within_5_sigma >= 49
    assert elapsed < 1.0
    _report(capsys, 1, f"Bell fidelity ({within_5_sigma}/50 within 5 sigma, "
                       f"{elapsed:.2f}s)")


def test_criterion_02_qasm_byte_exact(capsys):
    assert emit_qasm(bell_circuit()) == GOLDEN_BELL
    _report(capsys, 2, "QASM emission byte-identical to golden Bell program")


def test_criterion_03_qir_shape(capsys):
    text = emit_qir(bell_circuit())
    pos = 0
    for prefix in ["define void @main() #0 {", "entry:",
                   "__quantum__qis__h__body(", "__quantum__qis__cnot__body(",
                   "__quantum__qis__mz__body(", "ret void"]:
        found = text.find(prefix, pos)
        assert found >= 0, f"missing {prefix!r}"
        pos = found + len(prefix)
    _report(capsys, 3, "QIR output carries all required line prefixes in order")


def test_criterion_04_simulator_oracle_equivalence(capsys):
    start = time.perf_counter()
    rng = random.Random(20240101)
    worst = 0.0
    for _ in range(100):
        c = random_circuit(rng, rng.randint(1, 4), rng.randint(1, 30))
        delta = np.max(np.abs(sim.run_statevector(c) - dense_statevector(c)))
        worst = max(worst, float(delta))
        assert delta < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(capsys, 4, f"100 random circuits match dense Kronecker oracle "
                       f"(worst {worst:.1e}, {elapsed:.2f}s)")


def test_criterion_05_qasm_round_trip(capsys):
    start = time.perf_counter()
    rng = random.Random(555)
    for _ in range(200):
        c = random_circuit(rng, rng.randint(1, 5), rng.randint(0, 25))
        back = parse_qasm(emit_qasm(c))
        assert back.num_qubits == c.num_qubits
        assert len(back.gates) == len(c.gates)
        for got, want in zip(back.gates, c.gates):
            assert got.kind == want.kind and got.targets == want.targets
            if want.param is not None:
                assert abs(got.param - want.param) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(capsys, 5, f"200 random circuits round-trip through QASM "
                       f"({elapsed:.2f}s)")


def test_criterion_06_offload_semantics(capsys):
    registry = DeviceRegistry()
    registry.register(Device("sim0", DeviceKind.LOCAL_SIMULATOR))
    try:
        rng = random.Random(66)
        for _ in range(20):
            c = random_circuit(rng, rng.randint(1, 4), rng.randint(1, 15))
            seed = rng.randrange(2 ** 32)
            sync = registry.submit_sync("sim0", c, 400, seed)
            asyn = registry.wait(registry.submit_async("sim0", c, 400, seed))
            assert sync.histogram == asyn.histogram
        handles = [registry.submit_async("sim0", bell_circuit(), 100 * (i + 1), i)
                   for i in range(3)]
        for i, handle in enumerate(handles):
            result = registry.wait(handle)
            assert sum(result.histogram.counts) == 100 * (i + 1)
    finally:
        registry.shutdown()
    _report(capsys, 6, "sync == async histograms; 3 concurrent jobs complete")


def test_criterion_07_remote_agreement(capsys):
    start = time.perf_counter()
    server = serve()
    try:
        rng = random.Random(77)
        for _ in range(20):
            c = random_circuit(rng, rng.randint(1, 4), rng.randint(1, 12))
            seed = rng.randrange(2 ** 32)
            remote = client_submit(server.address, c, 300, seed)
            assert remote.histogram == sim.run_and_sample(c, 300, seed)
    finally:
        server.shutdown()
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(capsys, 7, f"20 wire-protocol jobs identical to in-process runs "
                       f"({elapsed:.2f}s)")


@pytest.mark.slow
def test_criterion_08_latency_increases_time_to_solution(capsys):
    start = time.perf_counter()
    hamiltonian = Hamiltonian.from_terms([(-1.0, "ZZ"), (0.5, "XI"), (0.5, "IX")])
    spec = AnsatzSpec(2, 1)
    wall_times = []
    for latency_ms in (0, 10, 50):
        server = serve(latency=latency_ms / 1000.0)
        registry = DeviceRegistry()
        registry.register(Device("qpu", DeviceKind.REMOTE,
                                 endpoint=server.address))
        try:
            config = VqeConfig(initial_theta=[0.1, 0.1], max_iterations=30,
                               tolerance=0.0, shots=128, seed=5,
                               device_name="qpu")
            report = optimize(hamiltonian, spec, config, registry)
            assert report.iterations == 30
            wall_times.append(report.total_wall_time)
        finally:
            registry.shutdown()
            server.shutdown()
    elapsed = time.perf_counter() - start
    assert wall_times[0] < wall_times[1] < wall_times[2]
    assert elapsed < 180.0
    _report(capsys, 8, "VQE wall time strictly increasing over latencies "
                       f"0/10/50 ms ({', '.join(f'{t:.2f}s' for t in wall_times)})")


@pytest.mark.slow
def test_criterion_09_vqe_correctness(capsys):
    start = time.perf_counter()
    terms = [(-1.0, "ZZ"), (0.5, "XI"), (0.5, "IX")]
    hamiltonian = Hamiltonian.from_terms(terms)
    ground = float(np.linalg.eigvalsh(hamiltonian_matrix(terms))[0])
    spec = AnsatzSpec(2, 2)

    exact_config = VqeConfig(initial_theta=[0.1] * 4, max_iterations=400,
                             tolerance=1e-12, shots=0)
    exact_report = optimize(hamiltonian, spec, exact_config)
    assert abs(exact_report.best_energy - ground) < 1e-4

    registry = DeviceRegistry()
    registry.register(Device("sim0", DeviceKind.LOCAL_SIMULATOR))
    try:
        sampled_config = VqeConfig(initial_theta=[0.1] * 4, max_iterations=120,
                                   tolerance=1e-6, shots=4096, seed=7,
                                   device_name="sim0")
        sampled_report = optimize(hamiltonian, spec, sampled_config, registry)
    finally:
        registry.shutdown()
    assert abs(sampled_report.best_energy - ground) < 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(capsys, 9, f"VQE exact within 1e-4, 4096-shot within 0.05 of "
                       f"ground {ground:.6f} ({elapsed:.2f}s)")


def test_criterion_10_protocol_robustness(capsys):
    rng = random.Random(1010)
    for _ in range(500):
        msg = _random_message(rng)
        assert protocol.decode_frame(protocol.encode_frame(msg)) == msg

    # single-token deletions of the Bell program: typed errors, no crashes
    import re
    tokens = re.findall(
        r'"[^"]*"|->|[A-Za-z_][A-Za-z0-9_.]*|\d+\.\d+|\d+|[;\[\](),]',
        GOLDEN_BELL)
    for i in range(len(tokens)):
        mutated = " ".join(tokens[:i] + tokens[i + 1:])
        try:
            parse_qasm(mutated)
        except QasmError as exc:
            assert exc.line >= 1 and exc.col >= 1

    # truncated frames: typed errors, no crashes
    frame = protocol.encode_frame(
        protocol.submit_batch([(GOLDEN_BELL, 1000, 7)]))
    for cut in range(len(frame)):
        try:
            protocol.decode_frame(frame[:cut])
        except protocol.ProtocolError:
            pass
    with pytest.raises(protocol.OversizedFrameError):
        protocol.decode_frame(struct.pack("!I", 2 ** 25))
    _report(capsys, 10, "500 message round trips exact; mutations and "
                        "truncations raise typed errors")
