"""In-process statevector simulator device.

Evolves the 2^n-amplitude state once, then draws all shots from the final
probability distribution. Sampling uses numpy's PCG64 generator so a (state,
shots, seed) triple is reproducible across runs and machines.

Amplitude index k encodes the basis state with qubit i at bit i of k
(qubit 0 least-significant), matching the histogram outcome convention.
"""
from __future__ import annotations

import numpy as np

from .circuit import (
    Circuit,
    DEFAULT_MAX_QUBITS,
    Gate,
    GateKind,
    Histogram,
    SizeOutOfRangeError,
    gate_matrix,
)

# Probabilities below this are treated as exact zeros when sampling, so
# analytically forbidden outcomes never appear in a histogram.
ZERO_PROB_CUTOFF = 1e-15

NORM_TOLERANCE = 1e-6


class SimulationError(Exception):
    pass


class NonNormalizedStateError(SimulationError):
    pass


def initial_state(num_qubits: int) -> np.ndarray:
    state = np.zeros(1 << num_qubits, dtype=np.complex128)
    state[0] = 1.0
    return state


def apply_gate(state: np.ndarray, gate: Gate, num_qubits: int) -> None:
    """Apply one gate in place; O(2^n) work via strided amplitude access."""
    if gate.kind is GateKind.CX:
        _apply_cx(state, gate.targets[0], gate.targets[1], num_qubits)
    elif gate.kind is GateKind.CZ:
        _apply_cz(state, gate.targets[0], gate.targets[1], num_qubits)
    elif gate.kind is GateKind.SWAP:
        _apply_swap(state, gate.targets[0], gate.targets[1], num_qubits)
    else:
        _apply_single(state, gate_matrix(gate.kind, gate.param),
                      gate.targets[0], num_qubits)


def _apply_single(state: np.ndarray, m: np.ndarray, q: int, n: int) -> None:
    # View with qubit q isolated on the middle axis: (high bits, q, low bits).
    view = state.reshape(1 << (n - q - 1), 2, 1 << q)
    a0 = view[:, 0, :].copy()
    a1 = view[:, 1, :]
    view[:, 0, :] = m[0, 0] * a0 + m[0, 1] * a1
    view[:, 1, :] = m[1, 0] * a0 + m[1, 1] * a1


def _indices_with_bits(n: int, bits: dict[int, int]) -> np.ndarray:
    """All amplitude indices whose qubit bits match the given {qubit: value}."""
    idx = np.arange(1 << n)
    mask = np.ones(1 << n, dtype=bool)
    for q, v in bits.items():
        mask &= ((idx >> q) & 1) == v
    return idx[mask]


def _apply_cx(state: np.ndarray, control: int, target: int, n: int) -> None:
    i0 = _indices_with_bits(n, {control: 1, target: 0})
    i1 = i0 | (1 << target)
    state[i0], state[i1] = state[i1].copy(), state[i0].copy()


def _apply_cz(state: np.ndarray, a: int, b: int, n: int) -> None:
    i11 = _indices_with_bits(n, {a: 1, b: 1})
    state[i11] *= -1.0


def _apply_swap(state: np.ndarray, a: int, b: int, n: int) -> None:
    i01 = _indices_with_bits(n, {a: 0, b: 1})
    i10 = (i01 ^ (1 << a)) ^ (1 << b)
    state[i01], state[i10] = state[i10].copy(), state[i01].copy()


def run_statevector(circuit: Circuit,
                    max_qubits: int = DEFAULT_MAX_QUBITS) -> np.ndarray:
    """Evolve |0...0> through the circuit's gates in order."""
    if circuit.num_qubits > max_qubits:
        raise SizeOutOfRangeError(
            f"circuit has {circuit.num_qubits} qubits, limit is {max_qubits}"
        )
    state = initial_state(circuit.num_qubits)
    for gate in circuit.gates:
        apply_gate(state, gate, circuit.num_qubits)
    return state


def exact_probabilities(state: np.ndarray) -> np.ndarray:
    return np.abs(state) ** 2


def sample(state: np.ndarray, shots: int, seed: int) -> Histogram:
    """Draw a shot histogram from the measurement distribution of the state.

    Deterministic in (state, shots, seed). Outcomes with probability below
    ZERO_PROB_CUTOFF receive exactly zero counts.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    p = exact_probabilities(state)
    total = p.sum()
    if abs(total - 1.0) > NORM_TOLERANCE:
        raise NonNormalizedStateError(f"state norm^2 = {total!r}, expected 1")
    p = np.where(p < ZERO_PROB_CUTOFF, 0.0, p)
    p /= p.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, p)
    return Histogram(tuple(counts.tolist()), shots)


def run_and_sample(circuit: Circuit, shots: int, seed: int) -> Histogram:
    """Full device path: evolve once, then sample all shots."""
    return sample(run_statevector(circuit), shots, seed)
