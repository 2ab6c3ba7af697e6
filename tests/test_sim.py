import math
import random
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qoffload import sim
from qoffload.circuit import (
    Gate,
    GateKind,
    PARAMETRIC_KINDS,
    SizeOutOfRangeError,
    TWO_QUBIT_KINDS,
    create_circuit,
    bell_circuit,
)
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
            # Registers to 8 qubits, where runs of X, CX and SWAP fuse.
            n = rng.randint(1, 8)
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


def _gate_by_gate(circuit):
    state = initial_state(circuit.num_qubits)
    for gate in circuit.gates:
        apply_gate(state, gate, circuit.num_qubits)
    return state


ONE_QUBIT_KINDS = [kind for kind in GateKind if kind not in TWO_QUBIT_KINDS]
REAL_ONE_QUBIT_KINDS = [GateKind.H, GateKind.X, GateKind.Z, GateKind.RY]
PERMUTATION_KINDS = [GateKind.X, GateKind.CX, GateKind.SWAP]


def _draw_gate(draw, n, kinds, qubit=None):
    kind = draw(st.sampled_from([k for k in kinds
                                 if n > 1 or k not in TWO_QUBIT_KINDS]))
    if kind in TWO_QUBIT_KINDS:
        targets = tuple(draw(st.permutations(range(n)))[:2])
    else:
        targets = (draw(st.integers(0, n - 1)) if qubit is None else qubit,)
    param = (draw(st.floats(-2 * math.pi, 2 * math.pi))
             if kind in PARAMETRIC_KINDS else None)
    return Gate(kind, targets, param)


@st.composite
def structured_circuits(draw):
    """A leading run of one-qubit gates, then permutation runs of 0-6 gates
    between gates of every kind. The leading run leans on kinds with real
    rows, on ascending qubits with repeats, which the product-state prefix
    folds; random kinds and qubits end the fold early."""
    n = draw(st.integers(1, 13))
    circuit = create_circuit(n)
    ascending = draw(st.booleans())
    qubit = 0
    for _ in range(draw(st.integers(0, 2 * n))):
        kinds = draw(st.sampled_from([REAL_ONE_QUBIT_KINDS, ONE_QUBIT_KINDS]))
        if ascending:
            qubit = min(n - 1, qubit + draw(st.integers(0, 1)))
        circuit.apply(_draw_gate(draw, n, kinds, qubit if ascending else None))
    for _ in range(draw(st.integers(0, 4))):
        for _ in range(draw(st.integers(0, 6))):
            circuit.apply(_draw_gate(draw, n, PERMUTATION_KINDS))
        for _ in range(draw(st.integers(0, 3))):
            circuit.apply(_draw_gate(draw, n, list(GateKind)))
    return circuit


class TestStructuredPaths:
    """`run_statevector` folds the leading one-qubit gates into a product
    state and gathers each run of X, CX and SWAP in one step; its state is
    bit-identical to `apply_gate` applied gate by gate."""

    @given(structured_circuits())
    @settings(max_examples=300, deadline=None)
    def test_matches_gate_by_gate(self, circuit):
        assert np.array_equal(run_statevector(circuit),
                              _gate_by_gate(circuit))

    def test_ansatz_body_sends_one_layer_through_apply_gate(self,
                                                            monkeypatch):
        # RY on every qubit then a CX ring, twice: the first RY layer is
        # the product prefix and each ring one gather.
        n = 10
        circuit = create_circuit(n)
        rng = random.Random(31)
        for _ in range(2):
            for q in range(n):
                circuit.ry(q, rng.uniform(-3, 3))
            for q in range(n):
                circuit.cx(q, (q + 1) % n)
        expected = _gate_by_gate(circuit)
        run_statevector(circuit)  # keeps the ring's index
        applied = []
        kernel = sim.apply_gate
        monkeypatch.setattr(sim, "apply_gate", lambda state, gate, n:
                            applied.append(gate) or kernel(state, gate, n))
        assert np.array_equal(run_statevector(circuit), expected)
        assert applied == circuit.gates[20:30]


class TestPermutationCache:
    def test_kept_indices_are_read_only(self):
        run_statevector(create_circuit(3).h(0).cx(0, 1).swap(1, 2))
        index = sim._permutation((Gate(GateKind.CX, (0, 1)),
                                  Gate(GateKind.SWAP, (1, 2))), 3)
        # Gathered through the SWAP, then the CX.
        expected = [_swap_bits(k, 1, 2) for k in range(8)]
        assert index.tolist() == [k ^ (_bit(k, 0) << 1) for k in expected]
        assert not index.flags.writeable
        with pytest.raises(ValueError):
            index[0] = 1

    def test_no_index_above_eleven_qubits(self):
        for n in (11, 12):
            circuit = create_circuit(n).h(0)
            for q in range(n):
                circuit.cx(q, (q + 1) % n).swap(q, (q + 3) % n)
            sim._permutation.cache_clear()
            assert np.array_equal(run_statevector(circuit),
                                  _gate_by_gate(circuit))
            assert sim._permutation.cache_info().currsize == (n <= 11)

    def test_threads_sharing_the_cache_match_one_thread(self):
        # Four threads and 24 circuits of two runs each against 16 kept
        # indices: the threads build and evict indices under each other.
        rng = random.Random(65)
        circuits = []
        for _ in range(24):
            n = rng.randint(6, 11)
            circuit = create_circuit(n)
            for q in range(n):
                circuit.h(q)
            for _ in range(rng.randint(2, 6)):
                a, b = rng.sample(range(n), 2)
                circuit.apply(Gate(rng.choice(PERMUTATION_KINDS[1:]),
                                   (a, b)))
            circuit.rz(rng.randrange(n), rng.uniform(-3, 3))
            for _ in range(rng.randint(2, 6)):
                a, b = rng.sample(range(n), 2)
                circuit.cx(a, b)
            circuits.append(circuit)
        expected = [_gate_by_gate(circuit) for circuit in circuits]
        sim._permutation.cache_clear()
        groups = [circuits[i::4] for i in range(4)]
        barrier = threading.Barrier(len(groups))
        results = [[] for _ in groups]
        errors = []

        def simulate(group, out):
            try:
                barrier.wait()
                for i in range(60):
                    out.append(run_statevector(group[i % len(group)]))
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=simulate, args=(group, out))
                   for group, out in zip(groups, results)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the cache code
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for g, out in enumerate(results):
            own = expected[g::4]
            assert all(np.array_equal(state, own[i % len(own)])
                       for i, state in enumerate(out))


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
