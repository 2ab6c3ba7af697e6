import math
import random
import time

import numpy as np
import pytest

from qoffload.circuit import Gate, GateKind, SizeOutOfRangeError, create_circuit, bell_circuit
from qoffload.sim import (
    NonNormalizedStateError,
    apply_gate,
    exact_probabilities,
    initial_state,
    run_and_sample,
    run_statevector,
    sample,
)

from oracles import dense_statevector, random_circuit


class TestRunStatevector:
    def test_hadamard(self):
        sv = run_statevector(create_circuit(1).h(0))
        assert np.allclose(sv, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-15)

    def test_bell(self):
        sv = run_statevector(bell_circuit())
        r = 1 / math.sqrt(2)
        assert np.allclose(sv, [r, 0, 0, r], atol=1e-15)

    def test_matches_dense_oracle_random(self):
        rng = random.Random(42)
        for _ in range(100):
            n = rng.randint(1, 4)
            c = random_circuit(rng, n, rng.randint(1, 30))
            sv = run_statevector(c)
            expected = dense_statevector(c)
            assert np.max(np.abs(sv - expected)) < 1e-10

    def test_capacity_limit(self):
        c = create_circuit(5)
        with pytest.raises(SizeOutOfRangeError):
            run_statevector(c, max_qubits=4)

    def test_norm_preserved_over_many_gates(self):
        rng = random.Random(7)
        n = 5
        state = initial_state(n)
        c = random_circuit(rng, n, 10_000, measured=False)
        for g in c.gates:
            apply_gate(state, g, n)
            assert abs(np.vdot(state, state).real - 1.0) < 1e-10


def _basis(n, k):
    state = np.zeros(1 << n, dtype=complex)
    state[k] = 1.0
    return state


def _bit(k, q):
    return (k >> q) & 1


def _swap_bits(k, a, b):
    return k ^ ((_bit(k, a) ^ _bit(k, b)) * ((1 << a) | (1 << b)))


class TestTwoQubitBitArithmetic:
    """CX, CZ and SWAP against bit arithmetic on indices: unlike the dense
    oracle, these checks do not read the gate tables of `gate_matrix`."""

    @pytest.mark.parametrize("n", [3, 5])
    def test_basis_states(self, n):
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                for k in range(1 << n):
                    state = _basis(n, k)
                    apply_gate(state, Gate(GateKind.CX, (a, b)), n)
                    assert np.array_equal(state, _basis(n, k ^ (_bit(k, a) << b)))
                    state = _basis(n, k)
                    apply_gate(state, Gate(GateKind.SWAP, (a, b)), n)
                    assert np.array_equal(state, _basis(n, _swap_bits(k, a, b)))
                    state = _basis(n, k)
                    apply_gate(state, Gate(GateKind.CZ, (a, b)), n)
                    sign = -1.0 if _bit(k, a) and _bit(k, b) else 1.0
                    assert np.array_equal(state, sign * _basis(n, k))

    def test_random_state_12_qubits(self):
        n = 12
        rng = np.random.default_rng(12)
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi /= np.linalg.norm(psi)
        k = np.arange(1 << n)
        for a, b in [(0, n - 1), (n - 1, 0), (3, 7), (7, 3), (5, 6)]:
            state = psi.copy()
            apply_gate(state, Gate(GateKind.CX, (a, b)), n)
            assert np.array_equal(state, psi[k ^ (_bit(k, a) << b)])
            state = psi.copy()
            apply_gate(state, Gate(GateKind.SWAP, (a, b)), n)
            assert np.array_equal(state, psi[_swap_bits(k, a, b)])
            state = psi.copy()
            apply_gate(state, Gate(GateKind.CZ, (a, b)), n)
            assert np.array_equal(state, np.where(_bit(k, a) & _bit(k, b), -psi, psi))
        theta = 0.7
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        for q in (0, n - 1):
            state = psi.copy()
            apply_gate(state, Gate(GateKind.RY, (q,), theta), n)
            partner = psi[k ^ (1 << q)]
            expected = np.where(_bit(k, q), s * partner + c * psi,
                                c * psi - s * partner)
            assert np.max(np.abs(state - expected)) < 1e-15


class TestExactProbabilities:
    def test_bell(self):
        p = exact_probabilities(run_statevector(bell_circuit()))
        assert np.allclose(p, [0.5, 0, 0, 0.5], atol=1e-15)

    def test_ground_state(self):
        p = exact_probabilities(initial_state(3))
        assert np.array_equal(p, [1, 0, 0, 0, 0, 0, 0, 0])

    def test_sums_to_one_random(self):
        rng = random.Random(5)
        for _ in range(20):
            c = random_circuit(rng, rng.randint(1, 4), 15)
            p = exact_probabilities(run_statevector(c))
            assert abs(p.sum() - 1.0) < 1e-12


class TestSample:
    def test_bell_forbidden_outcomes(self):
        sv = run_statevector(bell_circuit())
        for seed in (0, 7, 123456):
            h = sample(sv, 1000, seed)
            assert h.counts[1] == 0 and h.counts[2] == 0
            assert h.counts[0] + h.counts[3] == 1000

    def test_deterministic_outcome(self):
        h = sample(initial_state(1), 50, 99)
        assert h.counts == (50, 0)

    def test_hadamard_binomial_bound(self):
        sv = run_statevector(create_circuit(1).h(0))
        h = sample(sv, 10 ** 6, 1234)
        # 4 sigma at p = 0.5, 1e6 shots
        assert abs(h.counts[0] / 10 ** 6 - 0.5) < 0.002

    def test_seed_determinism(self):
        sv = run_statevector(create_circuit(3).h(0).h(1).h(2))
        a = sample(sv, 5000, 77)
        b = sample(sv, 5000, 77)
        assert a == b
        c = sample(sv, 5000, 78)
        assert sum(c.counts) == 5000

    def test_zero_probability_never_sampled(self):
        rng = random.Random(31)
        for _ in range(20):
            circ = random_circuit(rng, 3, 12)
            sv = run_statevector(circ)
            p = exact_probabilities(sv)
            h = sample(sv, 10_000, rng.randrange(2 ** 32))
            for k, prob in enumerate(p):
                if prob < 1e-15:
                    assert h.counts[k] == 0

    def test_rejects_non_normalized(self):
        state = np.array([1.0, 1.0], dtype=complex)
        with pytest.raises(NonNormalizedStateError):
            sample(state, 10, 0)

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            sample(initial_state(1), 0, 0)

    def test_counts_are_python_ints(self):
        sv = run_statevector(create_circuit(4).h(0).h(1).h(2).h(3))
        h = sample(sv, 5000, 11)
        assert type(h.counts) is tuple
        assert all(type(c) is int for c in h.counts)
        reference = np.random.default_rng(11).multinomial(
            5000, exact_probabilities(sv) / exact_probabilities(sv).sum())
        assert h.counts == tuple(int(c) for c in reference)


def test_run_and_sample_histogram_invariant():
    h = run_and_sample(bell_circuit(), 1000, 7)
    assert sum(h.counts) == 1000


@pytest.mark.slow
@pytest.mark.parametrize("kind", [GateKind.H, GateKind.CX, GateKind.CZ,
                                  GateKind.SWAP], ids=lambda kind: kind.value)
def test_gate_cost_scales_linearly_in_state_size(kind):
    # One gate application should cost ~2x more on n+1 qubits than on n.
    def best_time(n, reps=7):
        state = initial_state(n)
        targets = (n // 2,) if kind is GateKind.H else (n // 2, n // 2 - 3)
        gate = Gate(kind, targets)
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            for _ in range(10):
                apply_gate(state, gate, n)
            times.append(time.perf_counter() - t0)
        return min(times)

    t_small, t_large = best_time(18), best_time(19)
    assert t_large / t_small < 3.0
