import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qoffload.circuit import (
    DoubleMeasureError,
    DuplicateTargetsError,
    Gate,
    GateAfterMeasureError,
    GateKind,
    GateParameterError,
    Histogram,
    IndexOutOfRangeError,
    PARAMETRIC_KINDS,
    SizeOutOfRangeError,
    TWO_QUBIT_KINDS,
    bell_circuit,
    create_circuit,
    gate_matrix,
)


class TestCreateCircuit:
    def test_two_qubits(self):
        c = create_circuit(2)
        assert c.num_qubits == 2
        assert c.gates == []
        assert not c.measured

    def test_minimal_register(self):
        c = create_circuit(1)
        assert c.num_qubits == 1
        assert c.gates == []

    def test_zero_rejected(self):
        with pytest.raises(SizeOutOfRangeError):
            create_circuit(0)

    def test_above_max_rejected(self):
        with pytest.raises(SizeOutOfRangeError):
            create_circuit(25)


class TestApplyGate:
    def test_listing_order(self):
        c = create_circuit(2).h(0)
        assert c.gates == [Gate(GateKind.H, (0,))]
        c.cx(0, 1)
        assert c.gates == [Gate(GateKind.H, (0,)), Gate(GateKind.CX, (0, 1))]

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            create_circuit(2).h(5)

    def test_duplicate_targets(self):
        with pytest.raises(DuplicateTargetsError):
            create_circuit(2).cx(1, 1)

    def test_gate_after_measure(self):
        c = create_circuit(2).h(0).measure()
        with pytest.raises(GateAfterMeasureError):
            c.x(1)

    def test_missing_param(self):
        with pytest.raises(GateParameterError):
            Gate(GateKind.RX, (0,))

    def test_extraneous_param(self):
        with pytest.raises(GateParameterError):
            Gate(GateKind.H, (0,), 0.5)

    def test_nonfinite_param(self):
        with pytest.raises(GateParameterError):
            Gate(GateKind.RZ, (0,), float("nan"))

    @pytest.mark.parametrize("kind, targets, match", [
        (GateKind.CX, (0,), r"cx takes 2 target\(s\), got 1"),
        (GateKind.H, (-1,), r"negative qubit index in \(-1,\)"),
    ], ids=["arity", "negative-index"])
    def test_bad_targets(self, kind, targets, match):
        with pytest.raises(IndexOutOfRangeError, match=match):
            Gate(kind, targets)


class TestMeasure:
    def test_finalize(self):
        assert bell_circuit().measured

    def test_empty_circuit_measurable(self):
        assert create_circuit(1).measure().measured

    def test_double_measure(self):
        c = create_circuit(1).measure()
        with pytest.raises(DoubleMeasureError):
            c.measure()


class TestGateMatrix:
    def test_pauli_x(self):
        assert np.array_equal(gate_matrix(GateKind.X),
                              np.array([[0, 1], [1, 0]], dtype=complex))

    def test_hadamard(self):
        expected = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        assert np.allclose(gate_matrix(GateKind.H), expected, atol=1e-15)

    def test_rz_pi_against_matrix_exponential(self):
        # Oracle: exp(-i pi Z / 2) via scalar exponentials of the eigenvalues.
        z_diag = np.array([1.0, -1.0])
        expected = np.diag(np.exp(-1j * math.pi * z_diag / 2))
        assert np.allclose(gate_matrix(GateKind.RZ, math.pi), expected, atol=1e-15)

    def test_rx_ry_against_matrix_exponential(self):
        from scipy.linalg import expm

        rng = random.Random(11)
        for kind, pauli in [(GateKind.RX, np.array([[0, 1], [1, 0]])),
                            (GateKind.RY, np.array([[0, -1j], [1j, 0]]))]:
            for _ in range(10):
                theta = rng.uniform(-6, 6)
                expected = expm(-1j * theta * np.asarray(pauli, complex) / 2)
                assert np.allclose(gate_matrix(kind, theta), expected, atol=1e-12)

    def test_unitarity_all_kinds_random_params(self):
        rng = random.Random(3)
        for kind in GateKind:
            params = ([rng.uniform(-10, 10) for _ in range(1000)]
                      if kind in PARAMETRIC_KINDS else [None])
            for p in params:
                u = gate_matrix(kind, p)
                eye = np.eye(u.shape[0])
                assert np.max(np.abs(u @ u.conj().T - eye)) < 1e-12

    def test_param_validation(self):
        with pytest.raises(GateParameterError):
            gate_matrix(GateKind.RX)
        with pytest.raises(GateParameterError):
            gate_matrix(GateKind.H, 0.3)


class TestHistogram:
    def test_sum_must_equal_shots(self):
        with pytest.raises(ValueError, match="counts sum 3 != shots 4"):
            Histogram((1, 2), 4)

    def test_num_qubits_from_counts_length(self):
        assert Histogram((500, 0, 0, 500), 1000).num_qubits == 2

    def test_negative_count(self):
        with pytest.raises(ValueError, match="negative count"):
            Histogram((-1, 2), 1)

    @pytest.mark.parametrize("counts, shots, match", [
        ((0.5, 0.5), 1, "must be integers"),
        ((True, False), 1, "must be integers"),
        ((1, 1), 2.0, "shots"),
        ((1, 0), True, "shots"),
        ((1, 2, 3), 6, "counts length must be a power of two >= 2, got 3"),
    ], ids=["float-counts", "bool-counts", "float-shots", "bool-shots",
            "three-counts"])
    def test_dense_rejects_non_int(self, counts, shots, match):
        with pytest.raises(ValueError, match=match):
            Histogram(counts, shots)

    def test_holds_nonzero_entries(self):
        h = Histogram((0, 3, 0, 0, 5, 0, 0, 2), 10)
        assert (h.num_qubits, h.shots) == (3, 10)
        assert h.outcomes == (1, 4, 7)
        assert h.outcome_counts == (3, 5, 2)

    def test_built_either_way_equal(self):
        rng = random.Random(12)
        for num_qubits in (1, 3, 6):
            dense = [0] * (1 << num_qubits)
            for _ in range(40):
                dense[rng.randrange(len(dense))] += 1
            outcomes = [k for k, c in enumerate(dense) if c]
            sparse = Histogram.from_outcomes(num_qubits, outcomes,
                                             [dense[k] for k in outcomes], 40)
            assert sparse == Histogram(tuple(dense), 40)
            assert hash(sparse) == hash(Histogram(tuple(dense), 40))
            assert sparse.counts == Histogram(tuple(dense), 40).counts
            assert sparse.counts == tuple(dense)
            assert all(type(c) is int for c in sparse.counts)
        assert (Histogram.from_outcomes(2, [0], [5], 5)
                != Histogram.from_outcomes(3, [0], [5], 5))

    def test_immutable(self):
        h = Histogram.from_outcomes(2, [0, 3], [1, 1], 2)
        with pytest.raises(AttributeError):
            h.shots = 3
        assert h.counts == (1, 0, 0, 1)  # the view is built once, inside
        assert h.counts is h.counts
        assert [f.name for f in dataclasses.fields(Histogram)] == [
            "num_qubits", "outcomes", "outcome_counts", "shots"]
        dense = (0, 2, 0, 0)
        assert Histogram(dense, 2).counts is dense

    @pytest.mark.parametrize("args, match", [
        ((2, [3, 1], [1, 1], 2), "strictly increasing"),
        ((2, [1, 1], [1, 1], 2), "strictly increasing"),
        ((2, [0, 4], [1, 1], 2), "out of range"),
        ((2, [-1, 0], [1, 1], 2), "out of range"),
        ((2, [0, 1], [2], 2), "2 outcomes but 1 counts"),
        ((2, [0, 1.0], [1, 1], 2), "must be integers"),
        ((2, [0, 1], [1, 1.0], 2), "must be integers"),
        ((2, [0, 1], [1, True], 2), "must be integers"),
        ((2, [0, 1], ["1", 1], 2), "must be integers"),
        ((2, [0, 1], [2, 0], 2), "positive"),
        ((2, [0, 1], [3, -1], 2), "positive"),
        ((2, [0, 1], [1, 1], 3), "counts sum 2 != shots 3"),
        ((2, [], [], 1), "counts sum 0 != shots 1"),
        ((0, [0], [1], 1), "num_qubits"),
        ((True, [0], [1], 1), "num_qubits"),
        ((2, [0], [1], 0), "shots"),
        ((2, [0], [1], 1.0), "shots"),
    ], ids=["unsorted", "duplicate", "above-range", "negative-outcome",
            "length-mismatch", "float-outcome", "float-count", "bool-count",
            "str-count", "zero-count", "negative-count", "sum-not-shots",
            "empty", "zero-qubits", "bool-qubits", "zero-shots",
            "float-shots"])
    def test_from_outcomes_rejects(self, args, match):
        with pytest.raises(ValueError, match=match):
            Histogram.from_outcomes(*args)


# Property: random construction sequences keep all invariants.
@given(st.integers(1, 6), st.data())
@settings(max_examples=100, deadline=None)
def test_constructed_circuits_have_valid_targets(num_qubits, data):
    c = create_circuit(num_qubits)
    n_gates = data.draw(st.integers(0, 20))
    for _ in range(n_gates):
        kind = data.draw(st.sampled_from(list(GateKind)))
        if kind in TWO_QUBIT_KINDS:
            if num_qubits < 2:
                continue
            pair = data.draw(st.permutations(range(num_qubits)))[:2]
            c.apply(Gate(kind, tuple(pair)))
        else:
            q = data.draw(st.integers(0, num_qubits - 1))
            param = (data.draw(st.floats(-10, 10, allow_nan=False))
                     if kind in PARAMETRIC_KINDS else None)
            c.apply(Gate(kind, (q,), param))
    for g in c.gates:
        assert all(t < c.num_qubits for t in g.targets)
        assert len(set(g.targets)) == len(g.targets)


def test_apply_is_append_only():
    c = create_circuit(3).h(0).cx(0, 1)
    prefix = list(c.gates)
    c.rz(2, 0.7).swap(1, 2)
    assert c.gates[:2] == prefix
