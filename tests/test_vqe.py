import math
import random

import numpy as np
import pytest

from qoffload import sim, vqe
from qoffload.circuit import GateKind
from qoffload.vqe import (
    AnsatzSpec,
    Hamiltonian,
    PauliTerm,
    VqeConfig,
    VqeError,
    VqeReport,
    _parity_signs,
    _pauli_expectation,
    basis_change,
    build_ansatz,
    build_ansatz_body,
    estimate_expectation,
    optimize,
)

from oracles import (
    dense_statevector,
    hamiltonian_matrix,
    pauli_string_matrix,
    random_circuit,
)

H2MIN_TERMS = [(-1.0, "ZZ"), (0.5, "XI"), (0.5, "IX")]
H2MIN = Hamiltonian.from_terms(H2MIN_TERMS)
H2MIN_GROUND = float(np.linalg.eigvalsh(hamiltonian_matrix(H2MIN_TERMS))[0])


class TestHamiltonian:
    def test_parse_file_format(self):
        text = "# comment\n-1.0 ZZ\n0.5 XI # inline\n\n0.5 IX\n"
        h = Hamiltonian.parse(text)
        assert h.num_qubits == 2
        assert len(h.terms) == 3

    def test_duplicates_merged(self):
        h = Hamiltonian.from_terms([(0.25, "Z"), (0.5, "Z"), (1.0, "X")])
        by_ops = {t.operators: t.coefficient for t in h.terms}
        assert by_ops == {"Z": 0.75, "X": 1.0}

    def test_mismatched_lengths(self):
        with pytest.raises(VqeError):
            Hamiltonian.from_terms([(1.0, "Z"), (1.0, "ZZ")])

    def test_bad_characters(self):
        with pytest.raises(VqeError):
            PauliTerm(1.0, "ZA")

    def test_empty_rejected(self):
        with pytest.raises(VqeError):
            Hamiltonian.parse("# only comments\n")


class TestAnsatz:
    def test_ry_pi_flips_qubit(self):
        circuit = build_ansatz(AnsatzSpec(1, 1), [math.pi])
        sv = sim.run_statevector(circuit)
        assert abs(abs(sv[1]) - 1.0) < 1e-12

    def test_zero_angles_leave_ground_state(self):
        circuit = build_ansatz(AnsatzSpec(2, 1), [0.0, 0.0])
        sv = sim.run_statevector(circuit)
        assert abs(sv[0] - 1.0) < 1e-12

    def test_gate_count_and_order(self):
        rng = random.Random(8)
        theta = [rng.uniform(-3, 3) for _ in range(4)]
        circuit = build_ansatz(AnsatzSpec(2, 2), theta)
        kinds = [g.kind for g in circuit.gates]
        assert len(circuit.gates) == 8
        assert kinds == [GateKind.RY, GateKind.RY, GateKind.CX, GateKind.CX] * 2

    def test_single_qubit_has_no_ring(self):
        circuit = build_ansatz(AnsatzSpec(1, 3), [0.1, 0.2, 0.3])
        assert all(g.kind is GateKind.RY for g in circuit.gates)

    def test_length_mismatch(self):
        with pytest.raises(VqeError):
            build_ansatz(AnsatzSpec(2, 2), [0.0])


class TestBasisChange:
    def test_zz_is_native(self):
        body = build_ansatz_body(AnsatzSpec(2, 1), [0.3, 0.4])
        circuit = basis_change(body, "ZZ")
        assert circuit.gates == body.gates
        assert circuit.measured and not body.measured

    def test_xi_adds_h_on_high_qubit(self):
        body = build_ansatz_body(AnsatzSpec(2, 1), [0.3, 0.4])
        circuit = basis_change(body, "XI")
        extra = circuit.gates[len(body.gates):]
        # leftmost character = qubit 1
        assert [(g.kind, g.targets) for g in extra] == [(GateKind.H, (1,))]

    def test_y_measurement_against_exact_expectation(self):
        # <Y> on qubit 0 estimated through sampling vs the exact statevector value
        rng = random.Random(77)
        for _ in range(5):
            theta = [rng.uniform(-3, 3), rng.uniform(-3, 3)]
            body = build_ansatz_body(AnsatzSpec(2, 1), theta)
            circuit = basis_change(body, "YZ")
            h = sim.run_and_sample(circuit, 10 ** 5, rng.randrange(2 ** 32))
            signs = np.array([1, -1, -1, 1], dtype=float)  # parity of both qubits
            estimated = float(signs @ np.asarray(h.counts)) / 10 ** 5
            sv = dense_statevector(body.copy(unmeasured=False))
            exact = float(np.real(sv.conj() @ hamiltonian_matrix([(1.0, "YZ")]) @ sv))
            assert abs(estimated - exact) < 1e-2

    def test_length_mismatch(self):
        body = build_ansatz_body(AnsatzSpec(2, 1), [0.1, 0.2])
        with pytest.raises(VqeError):
            basis_change(body, "XYZ")


def _popcount_signs(num_qubits: int, operators: str) -> np.ndarray:
    """Reference parity signs: a Python popcount per outcome index."""
    mask = 0
    for q in range(num_qubits):
        if operators[num_qubits - 1 - q] != "I":
            mask |= 1 << q
    ones = np.array([bin(k & mask).count("1") for k in range(1 << num_qubits)])
    return np.where(ones % 2 == 0, 1.0, -1.0)


class TestPauliEvaluation:
    def test_parity_signs_match_popcount(self):
        rng = random.Random(21)
        for n in range(1, 13):
            for _ in range(4):
                ops = "".join(rng.choice("IXYZ") for _ in range(n))
                signs = _parity_signs(n, ops)
                assert signs.dtype == np.float64
                assert np.array_equal(signs, _popcount_signs(n, ops))

    def test_direct_expectation_matches_basis_rotated_route(self):
        # Random circuits over every gate kind give complex states, so
        # strings with an odd number of Y factors have nonzero expectations.
        rng = random.Random(33)
        for _ in range(60):
            n = rng.randint(1, 5)
            body = random_circuit(rng, n, rng.randint(1, 25), measured=False)
            ops = "".join(rng.choice("IXYZ") for _ in range(n))
            state = sim.run_statevector(body)
            direct = _pauli_expectation(state, np.arange(state.size),
                                        _parity_signs(n, "Z" * n), ops)
            rotated = sim.run_statevector(basis_change(body, ops))
            via_basis = float(_parity_signs(n, ops)
                              @ sim.exact_probabilities(rotated))
            assert abs(direct - via_basis) < 1e-12
            dense = np.vdot(state, pauli_string_matrix(ops) @ state).real
            assert abs(direct - dense) < 1e-12


class TestEstimateExpectation:
    def test_z_on_ground_state(self):
        h = Hamiltonian.from_terms([(1.0, "Z")])
        value = estimate_expectation(h, AnsatzSpec(1, 1), [0.0], shots=0)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_identity_term_no_jobs(self, registry):
        h = Hamiltonian.from_terms([(0.5, "II")])
        # identity-only Hamiltonian must not touch the device even in
        # sampled mode; a dead endpoint would fail the test otherwise
        from qoffload.runtime import Device, DeviceKind
        registry.register(Device("dead", DeviceKind.REMOTE,
                                 endpoint=("127.0.0.1", 1)))
        value = estimate_expectation(h, AnsatzSpec(2, 1), [0.4, 0.9],
                                     shots=100, registry=registry,
                                     device_name="dead")
        assert value == 0.5

    def test_exact_matches_dense_oracle(self):
        rng = random.Random(4)
        spec = AnsatzSpec(2, 2)
        for _ in range(10):
            theta = [rng.uniform(-3, 3) for _ in range(4)]
            value = estimate_expectation(H2MIN, spec, theta, shots=0)
            sv = dense_statevector(build_ansatz_body(spec, theta))
            exact = float(np.real(sv.conj() @ hamiltonian_matrix(H2MIN_TERMS) @ sv))
            assert abs(value - exact) < 1e-10

    def test_exact_matches_dense_oracle_random_hamiltonians(self):
        rng = random.Random(12)
        for _ in range(50):
            n = rng.randint(1, 3)
            terms = [(rng.uniform(-2, 2),
                      "".join(rng.choice("IXYZ") for _ in range(n)))
                     for _ in range(rng.randint(1, 4))]
            h = Hamiltonian.from_terms(terms)
            spec = AnsatzSpec(n, rng.randint(1, 2))
            theta = [rng.uniform(-3, 3) for _ in range(spec.num_parameters)]
            value = estimate_expectation(h, spec, theta, shots=0)
            sv = dense_statevector(build_ansatz_body(spec, theta))
            merged = [(t.coefficient, t.operators) for t in h.terms]
            exact = float(np.real(sv.conj() @ hamiltonian_matrix(merged) @ sv))
            assert abs(value - exact) < 1e-10

    def test_exact_matches_dense_oracle_y_heavy(self):
        rng = random.Random(45)
        for n in range(4, 7):
            for _ in range(4):
                terms = [(rng.uniform(-2, 2),
                          "".join(rng.choice("YYYXZI") for _ in range(n)))
                         for _ in range(6)]
                h = Hamiltonian.from_terms(terms)
                spec = AnsatzSpec(n, 2)
                theta = [rng.uniform(-3, 3) for _ in range(spec.num_parameters)]
                value = estimate_expectation(h, spec, theta, shots=0)
                sv = dense_statevector(build_ansatz_body(spec, theta))
                merged = [(t.coefficient, t.operators) for t in h.terms]
                exact = float(np.real(sv.conj() @ hamiltonian_matrix(merged) @ sv))
                assert abs(value - exact) < 1e-10

    @pytest.mark.parametrize("terms, calls", [
        ([(0.5, "IIII"), (1.0, "XYZI"), (-0.3, "ZZYY"), (0.2, "IIIX")], 1),
        ([(0.5, "IIII")], 0),
    ])
    def test_exact_mode_simulates_once(self, monkeypatch, terms, calls):
        counted = []
        run_statevector = sim.run_statevector

        def counting(circuit, *args, **kwargs):
            counted.append(circuit)
            return run_statevector(circuit, *args, **kwargs)

        monkeypatch.setattr(sim, "run_statevector", counting)
        h = Hamiltonian.from_terms(terms)
        spec = AnsatzSpec(4, 1)
        for theta in ([0.1, 0.2, 0.3, 0.4], [1.0, -1.0, 2.0, -2.0]):
            counted.clear()
            estimate_expectation(h, spec, theta, shots=0)
            assert len(counted) == calls

    def test_optimize_simulates_once_per_evaluation(self, monkeypatch):
        counted = []
        evaluations = []
        run_statevector = sim.run_statevector
        estimate = vqe.estimate_expectation

        def counting_run(circuit, *args, **kwargs):
            counted.append(circuit)
            return run_statevector(circuit, *args, **kwargs)

        def counting_estimate(*args, **kwargs):
            evaluations.append(None)
            return estimate(*args, **kwargs)

        monkeypatch.setattr(sim, "run_statevector", counting_run)
        monkeypatch.setattr(vqe, "estimate_expectation", counting_estimate)
        config = VqeConfig(initial_theta=[0.1] * 4, max_iterations=10,
                           tolerance=0.0, shots=0)
        report = optimize(H2MIN, AnsatzSpec(2, 2), config)
        assert len(evaluations) == len(report.energy_trace) > 0
        assert len(counted) == len(evaluations)

    def test_sampled_converges_to_exact(self, registry):
        spec = AnsatzSpec(2, 1)
        theta = [0.7, -0.4]
        exact = estimate_expectation(H2MIN, spec, theta, shots=0)
        errors = []
        for seed in range(20):
            sampled = estimate_expectation(H2MIN, spec, theta, shots=10 ** 5,
                                           registry=registry,
                                           device_name="sim0", seeds=seed)
            errors.append(abs(sampled - exact))
        budget = 3 / math.sqrt(10 ** 5) * sum(abs(c) for c, _ in H2MIN_TERMS)
        assert np.mean(errors) < budget

    def test_exact_mode_rejected_on_remote(self, registry):
        from qoffload.runtime import Device, DeviceKind
        registry.register(Device("qpu0", DeviceKind.REMOTE,
                                 endpoint=("127.0.0.1", 1)))
        with pytest.raises(VqeError, match="local"):
            estimate_expectation(H2MIN, AnsatzSpec(2, 1), [0.0, 0.0],
                                 shots=0, registry=registry, device_name="qpu0")

    def test_sampled_mode_requires_device(self):
        with pytest.raises(VqeError, match="device"):
            estimate_expectation(H2MIN, AnsatzSpec(2, 1), [0.0, 0.0], shots=10)


class TestOptimize:
    def test_single_z_ground_state(self):
        h = Hamiltonian.from_terms([(1.0, "Z")])
        config = VqeConfig(initial_theta=[0.3], max_iterations=200,
                           tolerance=1e-12, shots=0)
        report = optimize(h, AnsatzSpec(1, 1), config)
        assert abs(report.best_energy - (-1.0)) < 1e-6

    def test_h2min_exact(self):
        config = VqeConfig(initial_theta=[0.1] * 4, max_iterations=400,
                           tolerance=1e-12, shots=0)
        report = optimize(H2MIN, AnsatzSpec(2, 2), config)
        assert abs(report.best_energy - H2MIN_GROUND) < 1e-4
        # variational bound in exact mode
        assert report.best_energy >= H2MIN_GROUND - 1e-9

    def test_h2min_sampled(self, registry):
        config = VqeConfig(initial_theta=[0.1] * 4, max_iterations=120,
                           tolerance=1e-6, shots=4096, seed=7,
                           device_name="sim0")
        report = optimize(H2MIN, AnsatzSpec(2, 2), config, registry)
        assert abs(report.best_energy - H2MIN_GROUND) < 0.05

    def test_running_minimum_non_increasing(self):
        config = VqeConfig(initial_theta=[0.1] * 4, max_iterations=50,
                           tolerance=1e-12, shots=0)
        report = optimize(H2MIN, AnsatzSpec(2, 2), config)
        running = np.minimum.accumulate(report.energy_trace)
        assert all(b <= a for a, b in zip(running, running[1:]))

    def test_determinism(self, registry):
        config = VqeConfig(initial_theta=[0.2] * 2, max_iterations=40,
                           tolerance=1e-10, shots=512, seed=99,
                           device_name="sim0")
        a = optimize(H2MIN, AnsatzSpec(2, 1), config, registry)
        b = optimize(H2MIN, AnsatzSpec(2, 1), config, registry)
        assert a.best_energy == b.best_energy
        assert a.best_theta == b.best_theta
        assert a.energy_trace == b.energy_trace
        assert a.iterations == b.iterations

    def test_report_counts_round_trips(self):
        config = VqeConfig(initial_theta=[0.3], max_iterations=30,
                           tolerance=1e-10, shots=0)
        report = optimize(Hamiltonian.from_terms([(1.0, "Z")]),
                          AnsatzSpec(1, 1), config)
        assert len(report.iteration_round_trips) == report.iterations
        assert VqeReport.from_dict(report.to_dict()) == report

    def test_device_failure_keeps_partial_trace(self, registry):
        from qoffload.runtime import Device, DeviceKind
        from qoffload.vqe import VqeAbortedError
        registry.register(Device("dead", DeviceKind.REMOTE,
                                 endpoint=("127.0.0.1", 1)))
        config = VqeConfig(initial_theta=[0.1] * 2, max_iterations=10,
                           shots=64, seed=0, device_name="dead")
        with pytest.raises(VqeAbortedError) as exc:
            optimize(H2MIN, AnsatzSpec(2, 1), config, registry)
        assert isinstance(exc.value.energy_trace, list)

    def test_bad_theta_length(self):
        config = VqeConfig(initial_theta=[0.1], shots=0)
        with pytest.raises(VqeError):
            optimize(H2MIN, AnsatzSpec(2, 2), config)
