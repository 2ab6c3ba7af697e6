"""Independent test oracles.

Dense Kronecker-product construction of circuit unitaries and Pauli-sum
matrices. Deliberately O(4^n) and built from explicit Kronecker products,
unlike the production simulator's blocked kernel. Both read the gate tables
of `gate_matrix`, so the two-qubit tables are checked on their own by bit
arithmetic in `test_sim.py`.
"""
from __future__ import annotations

import random

import numpy as np

from qoffload.circuit import (
    Circuit,
    Gate,
    GateKind,
    PARAMETRIC_KINDS,
    TWO_QUBIT_KINDS,
    create_circuit,
    gate_matrix,
)

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def operator_on_qubits(gate_mat: np.ndarray, targets: tuple[int, ...],
                       n: int) -> np.ndarray:
    """Embed a 2x2 or 4x4 gate matrix into the full 2^n space by explicit
    Kronecker products. The first target is the high bit of the gate matrix
    index; amplitude index bit i is qubit i."""
    k = len(targets)
    full = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for r in range(2 ** k):
        for c in range(2 ** k):
            if gate_mat[r, c] == 0:
                continue
            factors = []
            for q in reversed(range(n)):  # kron: qubit n-1 leftmost
                if q in targets:
                    pos = targets.index(q)
                    rb = (r >> (k - 1 - pos)) & 1
                    cb = (c >> (k - 1 - pos)) & 1
                    e = np.zeros((2, 2), dtype=complex)
                    e[rb, cb] = 1.0
                    factors.append(e)
                else:
                    factors.append(np.eye(2, dtype=complex))
            m = factors[0]
            for f in factors[1:]:
                m = np.kron(m, f)
            full += gate_mat[r, c] * m
    return full


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full 2^n x 2^n unitary of the gate sequence."""
    n = circuit.num_qubits
    u = np.eye(2 ** n, dtype=complex)
    for gate in circuit.gates:
        u = operator_on_qubits(gate_matrix(gate.kind, gate.param),
                               gate.targets, n) @ u
    return u


def dense_statevector(circuit: Circuit) -> np.ndarray:
    state = np.zeros(2 ** circuit.num_qubits, dtype=complex)
    state[0] = 1.0
    return circuit_unitary(circuit) @ state


def pauli_string_matrix(operators: str) -> np.ndarray:
    """Matrix of a Pauli string; leftmost character acts on the highest
    qubit index (matching the VQE orientation convention)."""
    m = PAULI[operators[0]]
    for ch in operators[1:]:
        m = np.kron(m, PAULI[ch])
    return m


def hamiltonian_matrix(terms) -> np.ndarray:
    """Dense matrix of a list of (coefficient, operators) pairs."""
    total = None
    for coeff, ops in terms:
        m = coeff * pauli_string_matrix(ops)
        total = m if total is None else total + m
    return total


def random_circuit(rng: random.Random, num_qubits: int, num_gates: int,
                   measured: bool = True) -> Circuit:
    circuit = create_circuit(num_qubits)
    kinds = list(GateKind)
    for _ in range(num_gates):
        while True:
            kind = rng.choice(kinds)
            if kind in TWO_QUBIT_KINDS and num_qubits < 2:
                continue
            break
        if kind in TWO_QUBIT_KINDS:
            a, b = rng.sample(range(num_qubits), 2)
            circuit.apply(Gate(kind, (a, b)))
        elif kind in PARAMETRIC_KINDS:
            circuit.apply(Gate(kind, (rng.randrange(num_qubits),),
                               rng.uniform(-2 * np.pi, 2 * np.pi)))
        else:
            circuit.apply(Gate(kind, (rng.randrange(num_qubits),)))
    if measured:
        circuit.measure()
    return circuit
