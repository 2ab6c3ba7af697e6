"""In-process statevector simulator device.

Evolves the 2^n-amplitude state once, then draws all shots from the final
probability distribution. Sampling uses numpy's PCG64 generator so a (state,
shots, seed) triple is reproducible across runs and machines.

One kernel, `apply_gate`, applies every gate kind through its unitary from
`circuit.gate_rows`, which alone defines the gate set (`circuit.gate_matrix`
is its array form). The view layout of a gate depends only on its targets
and the register size, so it is computed once per pair and cached.

Amplitude index k encodes the basis state with qubit i at bit i of k
(qubit 0 least-significant), matching the histogram outcome convention.
"""
from __future__ import annotations

import functools
from itertools import product

import numpy as np

from .circuit import (
    Circuit,
    DEFAULT_MAX_QUBITS,
    Gate,
    Histogram,
    SizeOutOfRangeError,
    gate_rows,
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


@functools.lru_cache(maxsize=1024)
def _view_layout(targets: tuple[int, ...], num_qubits: int):
    """Reshape shape and transpose axes that view a 2^n state with one
    length-2 axis per target, the targets leading in gate order (the shape
    is high bits, target, middle bits, target, low bits), and the index of
    each block of that view, in row order."""
    descending = sorted(targets, reverse=True)
    shape, rest = [], num_qubits
    for q in descending:
        shape += (1 << (rest - q - 1), 2)
        rest = q
    shape.append(1 << rest)
    axes = (*[2 * descending.index(q) + 1 for q in targets],
            *range(0, len(shape), 2))
    return tuple(shape), axes, tuple(product((0, 1), repeat=len(targets)))


def apply_gate(state: np.ndarray, gate: Gate, num_qubits: int) -> None:
    """Apply one gate in place from its `gate_rows` unitary, in O(2^n).

    The state is viewed with one length-2 axis per target, so block r holds
    the amplitudes whose target bits spell r (first target high). Only the
    blocks of non-identity rows are rewritten, from the rows' nonzero
    entries, and a row with only its diagonal entry scales its block in
    place: CX and SWAP move two quarter-blocks, CZ negates one, Z/S/T/RZ
    touch one half.
    """
    shape, axes, block_bits = _view_layout(gate.targets, num_qubits)
    view = state.reshape(shape).transpose(axes)
    blocks = [view[bits] for bits in block_bits]
    updates = []
    for r, row in enumerate(gate_rows(gate.kind, gate.param)):
        if row.count(0) == len(row) - 1 and row[r]:
            if row[r] != 1:  # unitary, so no other row reads block r
                blocks[r] *= row[r]
            continue
        value = None
        for c, x in enumerate(row):
            if x and value is None:
                value = x * blocks[c]
            elif x:  # in place, so each product is freed before the next
                value += x * blocks[c]
        updates.append((r, value))
    for r, value in updates:  # every value is a fresh array
        blocks[r][...] = value


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
    ZERO_PROB_CUTOFF receive exactly zero counts. The histogram is built
    from the draw's nonzero entries, at most `shots` of them, so no
    2^n-entry Python object is made.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    num_qubits = state.size.bit_length() - 1
    if num_qubits < 1 or state.size != 1 << num_qubits:
        raise ValueError(f"state length must be a power of two >= 2, got {state.size}")
    p = exact_probabilities(state)
    total = p.sum()
    if abs(total - 1.0) > NORM_TOLERANCE:
        raise NonNormalizedStateError(f"state norm^2 = {total!r}, expected 1")
    p = np.where(p < ZERO_PROB_CUTOFF, 0.0, p)
    p /= p.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, p)
    outcomes = np.flatnonzero(counts)
    return Histogram.from_outcomes(num_qubits, outcomes.tolist(),
                                   counts[outcomes].tolist(), shots)


def run_and_sample(circuit: Circuit, shots: int, seed: int) -> Histogram:
    """Full device path: evolve once, then sample all shots."""
    return sample(run_statevector(circuit), shots, seed)
