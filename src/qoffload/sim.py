"""In-process statevector simulator device.

Evolves the 2^n-amplitude state once, then draws all shots from the final
probability distribution. Sampling uses numpy's PCG64 generator so a (state,
shots, seed) triple is reproducible across runs and machines.

One kernel, `apply_gate`, applies every gate kind through its unitary from
`circuit.gate_rows`, which alone defines the gate set (`circuit.gate_matrix`
is its array form). The view layout of a gate depends only on its targets
and the register size, so it is computed once per pair and cached.

`run_statevector` skips that kernel where a circuit's structure makes the
work cheap, and its state stays equal to gate-by-gate `apply_gate`'s, bit
for bit but for the sign of a zero amplitude:
- The leading one-qubit gates act on |0...0>, so they make a product state.
  One gate per qubit is taken, on qubits in ascending order. That qubit is
  still |0> when its gate comes, so the gate leaves its first column (a, b),
  read from `gate_rows`, and the state is written at once. These are the
  products `apply_gate` makes on the same block; the other half of the
  qubit is all zeros, so `apply_gate` would only add exact zeros to them.
- A run of two or more gates whose rows permute the basis (X, CX, SWAP) is
  one gather. Its index is built by applying the run with `apply_gate` to
  the indices themselves, and is kept for small registers only.

`run_statevector(circuit, stop)` evolves only the first `stop` gates, and
`evolve`, its loop after the product prefix, continues a state from any
gate, so jobs that share a prefix can run it once. Such a state still
equals gate-by-gate `apply_gate`'s by the rule above, so its histograms are
`run_and_sample`'s, seed for seed.

Amplitude index k encodes the basis state with qubit i at bit i of k
(qubit 0 least-significant), matching the histogram outcome convention.
"""
from __future__ import annotations

import functools
from itertools import groupby, islice, product

import numpy as np

from .circuit import (
    Circuit,
    DEFAULT_MAX_QUBITS,
    Gate,
    GateKind,
    Histogram,
    PARAMETRIC_KINDS,
    SizeOutOfRangeError,
    gate_rows,
)

# Probabilities below this are treated as exact zeros when sampling, so
# analytically forbidden outcomes never appear in a histogram.
ZERO_PROB_CUTOFF = 1e-15

NORM_TOLERANCE = 1e-6

# Kinds whose rows are a 0/1 permutation matrix: a run of them only moves
# amplitudes. A run's gather index takes 8 bytes per amplitude, so runs are
# fused only up to 11 qubits (16 KiB an index), and at most 16 indices are
# kept (256 KiB). From 12 qubits on, gate time outweighs per-call overhead,
# and a gather saves nothing that pays for its index.
_PERMUTATION_KINDS = frozenset(
    kind for kind in GateKind if kind not in PARAMETRIC_KINDS
    and all(row.count(1) == 1 and row.count(0) == len(row) - 1
            for row in gate_rows(kind)))
_FUSE_MAX_QUBITS = 11


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


def run_statevector(circuit: Circuit, stop: int | None = None) -> np.ndarray:
    """Evolve |0...0> through the circuit's gates in order, or through its
    first `stop` gates: the product-state prefix first, then the rest by
    `evolve`."""
    n = circuit.num_qubits
    if n > DEFAULT_MAX_QUBITS:  # a hand-built `Circuit` may be larger
        raise SizeOutOfRangeError(
            f"circuit has {n} qubits, limit is {DEFAULT_MAX_QUBITS}")
    state = initial_state(n)
    start = _write_product_prefix(state, islice(circuit.gates, stop))
    return evolve(state, islice(circuit.gates, start, stop), n)


def evolve(state: np.ndarray, gates, num_qubits: int) -> np.ndarray:
    """The state after `gates`, applied in order to `state`, which is
    changed in place or dropped: each permutation run of a register of at
    most `_FUSE_MAX_QUBITS` as one gather, and every other gate by
    `apply_gate`."""
    fuse = num_qubits <= _FUSE_MAX_QUBITS
    for permutes, run in groupby(
            gates, lambda gate: fuse and gate.kind in _PERMUTATION_KINDS):
        # Only a permutation run is copied. A tuple of a long run of other
        # gates is a heap block between state-sized arrays: on 12-18 qubit
        # jobs it kept about 1 MB more of the heap resident at the peak.
        if permutes:
            run = tuple(run)
            if len(run) > 1:
                state = state.take(_permutation(run, num_qubits))
                continue
        for gate in run:
            apply_gate(state, gate, num_qubits)
    return state


def _write_product_prefix(state: np.ndarray, gates) -> int:
    """Write the product state of the leading gates into |0...0> in place,
    and return how many gates that took.

    A gate is taken while it is a one-qubit gate, of any kind, on a qubit
    above every qubit taken so far. That qubit is still |0>, so the gate
    leaves its rows' first column (a, b): with h = 2^q, the upper half
    `state[h:2h]` becomes `state[:h] * b` and the lower half is scaled by
    a. No product of gate entries is computed in Python.
    """
    top, taken = -1, 0
    for gate in gates:
        q = gate.targets[0]
        if len(gate.targets) > 1 or q <= top:
            break
        rows = gate_rows(gate.kind, gate.param)
        a, b, h = rows[0][0], rows[1][0], 1 << q
        if b:
            np.multiply(state[:h], b, out=state[h:2 * h])
        if a != 1:
            state[:h] *= a
        top, taken = q, taken + 1
    return taken


@functools.lru_cache(maxsize=16)
def _permutation(run: tuple[Gate, ...], num_qubits: int) -> np.ndarray:
    """The read-only gather index of a run of permutation gates:
    `state.take(index)` is the state after the run. Threads share the kept
    indices."""
    index = np.arange(1 << num_qubits, dtype=np.complex128)
    for gate in run:
        apply_gate(index, gate, num_qubits)
    index = index.real.astype(np.intp)
    index.setflags(write=False)
    return index


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
