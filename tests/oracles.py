"""Independent test oracles.

Dense Kronecker-product construction of circuit unitaries and Pauli-sum
matrices. Deliberately O(4^n) and built from explicit Kronecker products,
unlike the production simulator's blocked kernel. Both read the gate tables
of `gate_matrix`, so the two-qubit tables are checked on their own by bit
arithmetic in `test_sim.py`.

A structural checker for emitted QIR text: `parse_qir_calls` re-parses an
emitted program's call lines, and `check_qir_shape` matches them against
the source circuit.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass

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
from qoffload.qir import _QIR_NAMES

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
                   measured: bool = True, kinds=tuple(GateKind)) -> Circuit:
    circuit = create_circuit(num_qubits)
    kinds = list(kinds)
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


class QirShapeError(Exception):
    pass


@dataclass(frozen=True)
class QirCall:
    op: str
    doubles: tuple[float, ...]
    qubits: tuple[int, ...]
    results: tuple[int, ...]


_CALL_RE = re.compile(r"^  call void @__quantum__qis__([a-z]+)__body\((.*)\)$")
_QUBIT_RE = re.compile(r"^%(Qubit|Result)\* (?:null|inttoptr \(i64 (\d+) to %(Qubit|Result)\*\))$")


def _parse_operand(text: str) -> tuple[str, float | int]:
    if text.startswith("double "):
        return "double", float(text[len("double "):])
    m = _QUBIT_RE.match(text)
    if not m or (m.group(3) is not None and m.group(1) != m.group(3)):
        raise QirShapeError(f"malformed operand {text!r}")
    return m.group(1), int(m.group(2)) if m.group(2) else 0


def parse_qir_calls(text: str) -> list[QirCall]:
    """Re-parse the call lines of an emitted program, checking the frame
    (define/entry/ret/attributes) and operand syntax along the way."""
    lines = text.split("\n")
    try:
        start = lines.index("define void @main() #0 {")
    except ValueError:
        raise QirShapeError("missing 'define void @main() #0 {'")
    if sum(1 for ln in lines if ln.startswith("define ")) != 1:
        raise QirShapeError("expected exactly one define")
    if lines[start + 1] != "entry:":
        raise QirShapeError("missing 'entry:' label")
    if not any(ln == 'attributes #0 = { "entry_point" }' for ln in lines):
        raise QirShapeError("missing entry_point attribute group")
    calls = []
    i = start + 2
    while i < len(lines) and lines[i] != "  ret void":
        m = _CALL_RE.match(lines[i])
        if not m:
            raise QirShapeError(f"unexpected body line {lines[i]!r}")
        doubles, qubits, results = [], [], []
        operands = m.group(2)
        if operands:
            for part in operands.split(", "):
                kind, value = _parse_operand(part)
                {"double": doubles, "Qubit": qubits, "Result": results}[kind].append(value)
        calls.append(QirCall(m.group(1), tuple(doubles), tuple(qubits), tuple(results)))
        i += 1
    if i >= len(lines) or lines[i] != "  ret void" or lines[i + 1] != "}":
        raise QirShapeError("missing 'ret void' terminator")
    return calls


def check_qir_shape(text: str, circuit: Circuit) -> None:
    """Verify an emitted program structurally matches its source circuit."""
    calls = parse_qir_calls(text)
    gate_calls = [c for c in calls if c.op != "mz"]
    mz_calls = [c for c in calls if c.op == "mz"]
    if len(gate_calls) != len(circuit.gates):
        raise QirShapeError(
            f"{len(gate_calls)} gate calls for {len(circuit.gates)} gates"
        )
    if len(mz_calls) != circuit.num_qubits:
        raise QirShapeError(
            f"{len(mz_calls)} mz calls for {circuit.num_qubits} qubits"
        )
    for call, gate in zip(gate_calls, circuit.gates):
        if call.op != _QIR_NAMES[gate.kind]:
            raise QirShapeError(f"call {call.op!r} does not match gate {gate.kind}")
        if call.qubits != gate.targets:
            raise QirShapeError(f"call operands {call.qubits} != targets {gate.targets}")
    for q, call in enumerate(mz_calls):
        if call.qubits != (q,) or call.results != (q,):
            raise QirShapeError(f"mz call {q} has operands {call}")
