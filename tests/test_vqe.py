import itertools
import math
import random
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from qoffload import sim, vqe
from qoffload.circuit import GateKind, bell_circuit
from qoffload.resman import serve
from qoffload.runtime import Device, DeviceKind, DeviceRegistry
from qoffload.vqe import (
    AnsatzSpec,
    Hamiltonian,
    PauliTerm,
    VqeConfig,
    VqeError,
    VqeAbortedError,
    VqeReport,
    _exact_values,
    _pauli_masks,
    _signs,
    basis_change,
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
from servers import counting_server

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
        circuit = build_ansatz_body(AnsatzSpec(1, 1), [math.pi])
        sv = sim.run_statevector(circuit)
        assert abs(abs(sv[1]) - 1.0) < 1e-12

    def test_zero_angles_leave_ground_state(self):
        circuit = build_ansatz_body(AnsatzSpec(2, 1), [0.0, 0.0])
        sv = sim.run_statevector(circuit)
        assert abs(sv[0] - 1.0) < 1e-12

    def test_gate_count_and_order(self):
        rng = random.Random(8)
        theta = [rng.uniform(-3, 3) for _ in range(4)]
        circuit = build_ansatz_body(AnsatzSpec(2, 2), theta)
        assert not circuit.measured
        kinds = [g.kind for g in circuit.gates]
        assert len(circuit.gates) == 8
        assert kinds == [GateKind.RY, GateKind.RY, GateKind.CX, GateKind.CX] * 2

    def test_single_qubit_has_no_ring(self):
        circuit = build_ansatz_body(AnsatzSpec(1, 3), [0.1, 0.2, 0.3])
        assert all(g.kind is GateKind.RY for g in circuit.gates)

    def test_length_mismatch(self):
        with pytest.raises(VqeError):
            build_ansatz_body(AnsatzSpec(2, 2), [0.0])

    @pytest.mark.parametrize("num_qubits", [0, 25, 30])
    def test_register_out_of_bound_is_an_input_fault(self, num_qubits):
        # An input error, so not the device failure that optimize reports.
        with pytest.raises(VqeError, match=r"num_qubits must be in \[1, 24\], "
                                           f"got {num_qubits}$") as exc:
            AnsatzSpec(num_qubits, 1)
        assert not isinstance(exc.value, VqeAbortedError)
        assert AnsatzSpec(24, 1).num_parameters == 24


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


def _support_mask(operators: str) -> int:
    """Bit q set where the string acts on qubit q (character n - 1 - q)."""
    n = len(operators)
    return sum(1 << q for q in range(n) if operators[n - 1 - q] != "I")


def _popcount_signs(num_qubits: int, operators: str) -> np.ndarray:
    """Reference parity signs: a Python popcount per outcome index."""
    mask = _support_mask(operators)
    ones = np.array([bin(k & mask).count("1") for k in range(1 << num_qubits)])
    return np.where(ones % 2 == 0, 1.0, -1.0)


@pytest.fixture
def fresh_rows(monkeypatch):
    """An empty slot of kept term rows for this test alone."""
    monkeypatch.setattr(vqe, "_kept_rows", None)


class TestPauliEvaluation:
    def test_parity_signs_match_popcount(self):
        rng = random.Random(21)
        for n in range(1, 13):
            for _ in range(4):
                ops = "".join(rng.choice("IXYZ") for _ in range(n))
                x, z = _pauli_masks(ops)
                assert x | z == _support_mask(ops)
                reference = _popcount_signs(n, ops)
                signs = _signs(np.arange(1 << n), x | z)
                assert signs.dtype == np.float64
                assert np.array_equal(signs, reference)
                # A histogram's sparse outcomes: a sorted subset.
                outcomes = sorted(rng.sample(range(1 << n), rng.randint(1, n)))
                assert np.array_equal(_signs(np.asarray(outcomes), x | z),
                                      reference[outcomes])

    def test_signs_fold_all_64_bits(self):
        rng = random.Random(22)
        index = [rng.getrandbits(63) for _ in range(200)]
        for _ in range(20):
            mask = rng.getrandbits(63)
            expected = [(-1.0) ** bin(k & mask).count("1") for k in index]
            assert _signs(np.asarray(index), mask).tolist() == expected

    def test_direct_expectation_matches_basis_rotated_route(self,
                                                            fresh_rows):
        # Random circuits over every gate kind give complex states, so
        # strings with an odd number of Y factors have nonzero expectations.
        rng = random.Random(33)
        for _ in range(60):
            n = rng.randint(1, 5)
            body = random_circuit(rng, n, rng.randint(1, 25), measured=False)
            ops = "".join(rng.choice("IXYZ") for _ in range(n))
            state = sim.run_statevector(body)
            [direct] = _exact_values(body, [PauliTerm(1.0, ops)], None, None)
            rotated = sim.run_statevector(basis_change(body, ops))
            via_basis = float(_popcount_signs(n, ops)
                              @ sim.exact_probabilities(rotated))
            assert abs(direct - via_basis) < 1e-12
            dense = np.vdot(state, pauli_string_matrix(ops) @ state).real
            assert abs(direct - dense) < 1e-12


def _dense_energy(hamiltonian, spec, theta):
    """<H> from the dense Pauli matrices of `oracles`, on the simulator's
    state (the dense statevector costs seconds at 10 qubits)."""
    state = sim.run_statevector(build_ansatz_body(spec, theta))
    merged = [(t.coefficient, t.operators) for t in hamiltonian.terms]
    return float(np.vdot(state, hamiltonian_matrix(merged) @ state).real)


class TestTermRows:
    def test_y_heavy_and_shared_flip_masks_match_dense(self, fresh_rows):
        rng = random.Random(61)
        for n in range(6, 11):
            flips = rng.sample(range(n), n // 2)
            # Terms on the same flipped qubits share one gather index.
            shared = ["".join(rng.choice("XY") if q in flips
                              else rng.choice("IZ") for q in range(n))
                      for _ in range(3)]
            y_heavy = ["".join(rng.choice("YYYXZI") for _ in range(n))
                       for _ in range(4)]
            h = Hamiltonian.from_terms(
                [(rng.uniform(-2, 2), ops) for ops in shared + y_heavy])
            spec = AnsatzSpec(n, 2)
            for _ in range(2):
                theta = [rng.uniform(-3, 3)
                         for _ in range(spec.num_parameters)]
                energy = estimate_expectation(h, spec, theta, shots=0)
                assert abs(energy - _dense_energy(h, spec, theta)) < 1e-10

    def test_coefficients_are_not_kept(self, fresh_rows):
        a = Hamiltonian.from_terms([(0.7, "XYZI"), (-1.3, "ZZII"),
                                    (0.4, "IYIY")])
        b = Hamiltonian.from_terms([(-2.0, "XYZI"), (0.5, "ZZII"),
                                    (1.1, "IYIY")])
        spec = AnsatzSpec(4, 2)
        rng = random.Random(62)
        for _ in range(3):
            theta = [rng.uniform(-3, 3) for _ in range(spec.num_parameters)]
            for h in (a, b, a):
                energy = estimate_expectation(h, spec, theta, shots=0)
                assert abs(energy - _dense_energy(h, spec, theta)) < 1e-10
        assert vqe._kept_rows[0] == (("XYZI", "ZZII", "IYIY"), 4)

    def test_over_budget_rows_are_built_each_time(self, monkeypatch,
                                                  fresh_rows):
        monkeypatch.setattr(vqe, "_TERM_ROWS_BUDGET", 1000)
        h = Hamiltonian.from_terms([(0.5, "IIIII"), (1.0, "XYZZY"),
                                    (-0.6, "YYIXZ"), (0.3, "ZIIIZ")])
        spec = AnsatzSpec(5, 2)
        theta = [0.1 * k for k in range(spec.num_parameters)]
        first = estimate_expectation(h, spec, theta, shots=0)
        second = estimate_expectation(h, spec, theta, shots=0)
        assert first == second
        assert abs(first - _dense_energy(h, spec, theta)) < 1e-10
        assert vqe._kept_rows is None

    def test_kept_rows_are_read_only(self, fresh_rows):
        h = Hamiltonian.from_terms([(1.0, "XY"), (0.5, "ZI")])
        estimate_expectation(h, AnsatzSpec(2, 1), [0.3, 0.4], shots=0)
        key, rows = vqe._kept_rows
        assert key == (("XY", "ZI"), 2)
        assert len(rows) == 2
        for gather, signs, _ in rows:
            for array in (gather, signs):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0

    def test_one_table_is_kept_within_budget(self, monkeypatch, fresh_rows):
        # Room for one of these 6-qubit, 4-term tables.
        budget = 4 * vqe._ROW_BYTES * 2 ** 6
        monkeypatch.setattr(vqe, "_TERM_ROWS_BUDGET", budget)
        rng = random.Random(63)
        spec = AnsatzSpec(6, 1)
        theta = [rng.uniform(-3, 3) for _ in range(spec.num_parameters)]
        for _ in range(4):
            h = _random_hamiltonian(rng, 6, 5)  # identity and 4 terms
            energy = estimate_expectation(h, spec, theta, shots=0)
            assert abs(energy - _dense_energy(h, spec, theta)) < 1e-10
            key, rows = vqe._kept_rows
            assert key == (tuple(t.operators for t in h.terms
                                 if not t.is_identity), 6)
            assert sum(gather.nbytes + signs.nbytes
                       for gather, signs, _ in rows) <= budget

    def test_threads_sharing_the_slot_match_one_thread(self, fresh_rows):
        # Four Hamiltonians and one kept table: the threads replace it under
        # each other.
        rng = random.Random(64)
        spec = AnsatzSpec(6, 2)
        hamiltonians = [_random_hamiltonian(rng, 6, 9) for _ in range(4)]
        thetas = [[rng.uniform(-3, 3) for _ in range(spec.num_parameters)]
                  for _ in range(5)]
        expected = [[estimate_expectation(h, spec, theta, shots=0)
                     for theta in thetas] for h in hamiltonians]
        vqe._kept_rows = None
        barrier = threading.Barrier(len(hamiltonians))
        results = [[] for _ in hamiltonians]
        errors = []

        def evaluate(h, out):
            try:
                barrier.wait()
                for i in range(50):
                    out.append(estimate_expectation(
                        h, spec, thetas[i % len(thetas)], shots=0))
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=evaluate, args=(h, out))
                   for h, out in zip(hamiltonians, results)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the table code
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for values, own in zip(results, expected):
            assert values == [own[i % len(own)] for i in range(50)]


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

    @pytest.mark.parametrize("device", [None, "sim0"])
    def test_negative_shots_rejected(self, registry, device):
        with pytest.raises(VqeError, match="shots must be >= 0"):
            estimate_expectation(H2MIN, AnsatzSpec(2, 1), [0.0, 0.0], -5,
                                 registry, device)

    @pytest.mark.parametrize("seed", [0, -7, 2 ** 64 - 2])
    def test_job_seeds_count_up_modulo_2_64(self, registry, seed):
        spec = AnsatzSpec(2, 1)
        theta = [0.7, -0.4]
        energy = estimate_expectation(H2MIN, spec, theta, 64, registry,
                                      "sim0", seed)
        reference = _per_term_energy(H2MIN, spec, theta, 64, registry,
                                     "sim0", seed)
        assert energy.hex() == reference.hex()


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("shots", [0, 16])
    def test_non_finite_theta0_is_an_input_fault(self, registry, bad, shots):
        config = VqeConfig(initial_theta=[0.1, bad], shots=shots,
                           device_name="sim0" if shots else None)
        with pytest.raises(VqeError, match="finite") as exc:
            optimize(H2MIN, AnsatzSpec(2, 1), config, registry)
        assert not isinstance(exc.value, VqeAbortedError)

    @pytest.mark.parametrize("shots", [0, 64])
    def test_each_evaluation_calls_the_module_global(self, monkeypatch,
                                                     registry, shots):
        # The benchmark times evaluations by replacing
        # `vqe.estimate_expectation`; optimize must look the name up at each
        # call. The first call swaps in a second wrapper, which a reference
        # bound before the first call would never reach.
        estimate = vqe.estimate_expectation
        calls, returned = [], []

        def wrapper(name):
            def call(*args, **kwargs):
                calls.append(name)
                if name == "first":
                    monkeypatch.setattr(vqe, "estimate_expectation",
                                        wrapper("later"))
                returned.append(estimate(*args, **kwargs))
                return returned[-1]
            return call

        monkeypatch.setattr(vqe, "estimate_expectation", wrapper("first"))
        config = VqeConfig(initial_theta=[0.1] * 4, max_iterations=5,
                           tolerance=0.0, shots=shots, seed=3,
                           device_name="sim0" if shots else None)
        report = optimize(H2MIN, AnsatzSpec(2, 2), config, registry)
        assert calls == ["first"] + ["later"] * (len(report.energy_trace) - 1)
        assert returned == report.energy_trace


def _per_term_energy(hamiltonian, spec, theta, shots, registry, device_name,
                     seeds=0):
    """Reference route for sampled mode: one `submit_sync` per non-identity
    term, each waited for before the next is submitted, seeds drawn and
    terms summed in term order. `seeds` is the first job's seed, job i
    getting (seeds + i) mod 2^64, or an iterator over the unreduced seeds."""
    if isinstance(seeds, int):
        seeds = itertools.count(seeds)
    body = build_ansatz_body(spec, theta)
    energy = 0.0
    for term in hamiltonian.terms:
        if term.is_identity:
            energy += term.coefficient
            continue
        signs = _popcount_signs(spec.num_qubits, term.operators)
        result = registry.submit_sync(device_name,
                                      basis_change(body, term.operators),
                                      shots, next(seeds) % 2 ** 64)
        counts = np.asarray(result.histogram.counts, dtype=float)
        expectation = float(signs @ counts) / shots
        energy += term.coefficient * expectation
    return energy


def _random_hamiltonian(rng, n, count):
    ops = {"I" * n}
    while len(ops) < count:
        ops.add("".join(rng.choice("IXYZ") for _ in range(n)))
    return Hamiltonian.from_terms(
        [(rng.uniform(-1, 1), op) for op in sorted(ops)])


@pytest.fixture
def remote_registry():
    """A registry with a remote device "qpu" on a counting server and a
    local device "sim0"; yields (registry, server, counts)."""
    srv, counts = counting_server()
    registry = DeviceRegistry()
    registry.register(Device("qpu", DeviceKind.REMOTE, endpoint=srv.address))
    registry.register(Device("sim0", DeviceKind.LOCAL_SIMULATOR))
    yield registry, srv, counts
    registry.shutdown()
    srv.shutdown()


class TestSampledRemote:
    def test_one_request_per_evaluation(self, remote_registry):
        registry, _, counts = remote_registry
        rng = random.Random(2718)
        for n in (4, 6):
            for _ in range(3):
                h = _random_hamiltonian(rng, n, 6)
                spec = AnsatzSpec(n, 2)
                theta = [rng.uniform(-3, 3) for _ in range(spec.num_parameters)]
                seed = rng.randrange(2 ** 31)
                before = counts.copy()
                energy = estimate_expectation(h, spec, theta, 256, registry,
                                              "qpu", seed)
                sent = counts - before
                sent.pop("connections", None)
                assert sent == Counter({"SubmitJob": 1, "jobs": 5})
                reference = _per_term_energy(h, spec, theta, 256, registry,
                                             "sim0", seed)
                assert energy.hex() == reference.hex()
        assert counts["connections"] == 1

    def test_optimize_trace_equals_per_term_route(self, remote_registry,
                                                  monkeypatch):
        registry, _, _ = remote_registry
        h = _random_hamiltonian(random.Random(31), 4, 6)
        spec = AnsatzSpec(4, 2)
        config = VqeConfig(initial_theta=[0.3] * 8, max_iterations=6,
                           tolerance=0.0, shots=512, seed=11,
                           device_name="qpu")
        batched = optimize(h, spec, config, registry)
        # The reference draws its own seeds: config.seed, config.seed + 1, ...
        drawn = itertools.count(config.seed)

        def reference_energy(h, spec, theta, shots, registry, device_name,
                             seeds):
            return _per_term_energy(h, spec, theta, shots, registry,
                                    device_name, drawn)

        monkeypatch.setattr(vqe, "estimate_expectation", reference_energy)
        config.device_name = "sim0"
        reference = optimize(h, spec, config, registry)
        assert ([e.hex() for e in batched.energy_trace]
                == [e.hex() for e in reference.energy_trace])

    def test_failing_term_fails_only_its_job(self, monkeypatch):
        def reject_xi(circuit):
            # H2MIN's "XI" term is the only circuit that ends in H on qubit 1.
            last = circuit.gates[-1]
            if last.kind is GateKind.H and last.targets == (1,):
                raise ValueError("term rejected")
            return circuit

        srv = serve(optimization_pass=reject_xi)
        registry = DeviceRegistry()
        handles = []
        submit_async = registry.submit_async

        def recording_submit(*args):
            handles.append(submit_async(*args))
            return handles[-1]

        monkeypatch.setattr(registry, "submit_async", recording_submit)
        try:
            registry.register(Device("qpu", DeviceKind.REMOTE,
                                     endpoint=srv.address))
            config = VqeConfig(initial_theta=[0.1] * 4, max_iterations=5,
                               shots=64, seed=3, device_name="qpu")
            with pytest.raises(VqeAbortedError, match="term rejected") as exc:
                optimize(H2MIN, AnsatzSpec(2, 2), config, registry)
            assert exc.value.energy_trace == []
            # Every job of the evaluation has finished; no handle waits.
            assert all(h.wait(0) for h in handles)
            assert [h.error is None for h in handles] == [True, False, True]
            assert all((h.result is None) != (h.error is None)
                       for h in handles)
        finally:
            registry.shutdown()
            srv.shutdown()

    def test_connection_cut_mid_batch_resends_unanswered_jobs(
            self, remote_registry):
        registry, srv, counts = remote_registry
        replies_to = srv._replies
        cut = []

        def cut_after_first_reply(msg):
            replies = replies_to(msg)
            if len(msg.get("jobs", ())) > 1 and not cut:
                cut.append(msg)
                yield next(replies)
                raise OSError("connection cut")  # the server closes it
            yield from replies

        srv._replies = cut_after_first_reply
        # One job opens the connection, so that the batch reuses it.
        registry.submit_sync("qpu", bell_circuit(), 10, 0)
        spec = AnsatzSpec(2, 2)
        theta = [0.4, -0.2, 1.1, 0.7]
        energy = estimate_expectation(H2MIN, spec, theta, 1024, registry,
                                      "qpu", 5)
        assert len(cut) == 1
        assert counts == {"SubmitJob": 3, "jobs": 1 + 3 + 2,
                          "connections": 2}
        reference = _per_term_energy(H2MIN, spec, theta, 1024, registry,
                                     "sim0", 5)
        assert energy.hex() == reference.hex()
