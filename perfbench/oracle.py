"""Independent reference results and the benchmark's correctness gates.

The oracle shares no code with `qoffload.sim` or `qoffload.vqe`: it builds
the ansatz state, and the state of any circuit, by tensor contraction of its
own gate matrices, and the Hamiltonian as a dense sum of Kronecker products. Each gate returns a list
of failure messages; an empty list means the outputs are correct.
"""
from __future__ import annotations

import math

import numpy as np

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
# Two-qubit gates in the |first second> basis, the first target as the high
# bit (the control of CX).
CX = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
              dtype=complex)
FIXED = {
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "x": PAULI["X"], "y": PAULI["Y"], "z": PAULI["Z"],
    "s": np.diag([1, 1j]), "sdg": np.diag([1, -1j]),
    "t": np.diag([1, np.exp(1j * math.pi / 4)]),
    "tdg": np.diag([1, np.exp(-1j * math.pi / 4)]),
    "cx": CX,
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    "swap": np.eye(4, dtype=complex)[[0, 2, 1, 3]],
}

EXACT_TOLERANCE = 1e-9
SAMPLED_SIGMAS = 5.0


def ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def apply(psi: np.ndarray, matrix: np.ndarray, qubits: tuple[int, ...],
          n: int) -> np.ndarray:
    """Apply a gate on `qubits` (first = high bit of the matrix index) to a
    state of shape (2,)*n whose last axis is qubit 0."""
    k = len(qubits)
    axes = [n - 1 - q for q in qubits]
    tensor = matrix.reshape((2,) * (2 * k))
    out = np.tensordot(tensor, psi, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes)


def rotation(name: str, theta: float) -> np.ndarray:
    """exp(-i theta P / 2) for the Pauli P named by rx, ry or rz."""
    pauli = PAULI[name[1].upper()]
    return (math.cos(theta / 2) * PAULI["I"]
            - 1j * math.sin(theta / 2) * pauli)


def circuit_state(circuit) -> np.ndarray:
    """The state a circuit's gates make of |0...0>, index bit q = qubit q;
    reads only the gate names, targets and angles of the program's circuit."""
    n = circuit.num_qubits
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for gate in circuit.gates:
        name = gate.kind.value
        matrix = FIXED[name] if gate.param is None else rotation(name, gate.param)
        psi = apply(psi, matrix, tuple(gate.targets), n)
    return psi.reshape(-1)


def ansatz_state(num_qubits: int, layers: int, theta) -> np.ndarray:
    """RY on every qubit then a CX ring i -> (i+1) mod n, per layer."""
    n = num_qubits
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for layer in range(layers):
        for q in range(n):
            psi = apply(psi, ry(theta[layer * n + q]), (q,), n)
        if n > 1:
            for q in range(n):
                psi = apply(psi, CX, (q, (q + 1) % n), n)
    return psi.reshape(-1)


def pauli_matrix(operators: str) -> np.ndarray:
    """Character j acts on qubit n-1-j, so the string is the Kronecker order."""
    m = np.ones((1, 1), dtype=complex)
    for c in operators:
        m = np.kron(m, PAULI[c])
    return m


class Oracle:
    """Dense reference for one Hamiltonian and ansatz shape."""

    def __init__(self, terms: list[tuple[float, str]], layers: int):
        self.terms = terms
        self.num_qubits = len(terms[0][1])
        self.layers = layers
        self.matrix = sum(c * pauli_matrix(ops) for c, ops in terms)

    def state(self, theta) -> np.ndarray:
        return ansatz_state(self.num_qubits, self.layers, theta)

    def energy(self, theta) -> float:
        psi = self.state(theta)
        return float(np.real(np.vdot(psi, self.matrix @ psi)))

    def sampled_sigma(self, theta, shots: int) -> float:
        """Standard deviation of the per-term sampled energy estimate."""
        psi = self.state(theta)
        var = 0.0
        for c, ops in self.terms:
            if set(ops) == {"I"}:
                continue
            mean = float(np.real(np.vdot(psi, pauli_matrix(ops) @ psi)))
            var += c * c * max(0.0, 1.0 - mean * mean) / shots
        return math.sqrt(var)


def check_vqe_exact(oracle: Oracle, reports) -> list[str]:
    """Every best energy equals the dense expectation at its best theta."""
    failures = []
    for i, report in enumerate(reports):
        expected = oracle.energy(report.best_theta)
        if not abs(report.best_energy - expected) <= EXACT_TOLERANCE:
            failures.append(f"unit {i}: best energy {report.best_energy!r} "
                            f"!= dense {expected!r}")
    return failures


def check_vqe_sampled(oracle: Oracle, reports, shots: int) -> list[str]:
    """Energy traces repeat bit for bit, and each best energy lies within
    SAMPLED_SIGMAS shot-noise deviations of the exact value at its theta."""
    failures = []
    if len(reports) < 2:
        failures.append("need two runs of the same seed to check repeatability")
    for i, report in enumerate(reports[1:], start=1):
        if report.energy_trace != reports[0].energy_trace:
            failures.append(f"unit {i}: energy trace differs from unit 0")
    for i, report in enumerate(reports):
        expected = oracle.energy(report.best_theta)
        sigma = oracle.sampled_sigma(report.best_theta, shots)
        if not abs(report.best_energy - expected) <= SAMPLED_SIGMAS * sigma:
            failures.append(
                f"unit {i}: best energy {report.best_energy!r} is more than "
                f"{SAMPLED_SIGMAS} sigma ({sigma:.3g}) from exact {expected!r}")
    return failures


def check_histograms(pairs) -> list[str]:
    """`pairs` holds (label, remote histogram, local histogram) triples."""
    failures = []
    for label, remote, local in pairs:
        if remote is None:
            failures.append(f"{label}: no remote result")
        elif tuple(remote.counts) != tuple(local.counts) or remote.shots != local.shots:
            failures.append(f"{label}: remote histogram differs from local")
    return failures


def check_states(pairs) -> list[str]:
    """`pairs` holds (label, program state, reference state) triples; every
    amplitude must agree within EXACT_TOLERANCE. Amplitudes, not
    probabilities: shallow circuits leave many phase errors invisible in
    the probabilities."""
    failures = []
    for label, program, reference in pairs:
        if program.shape != reference.shape:
            failures.append(f"{label}: {program.shape[0]} amplitudes, "
                            f"expected {reference.shape[0]}")
            continue
        error = float(np.max(np.abs(program - reference)))
        if not error <= EXACT_TOLERANCE:
            failures.append(f"{label}: state differs from the dense "
                            f"reference by {error:.3g}")
    return failures
