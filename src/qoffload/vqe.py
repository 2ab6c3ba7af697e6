"""Variational quantum eigensolver on top of the offload runtime.

Hardware-efficient ansatz (one RY per qubit per layer, CX ring entanglers),
Pauli-sum expectation estimation and a Nelder-Mead variational loop.
Shots = 0 selects exact (shot-free) expectation values, used for optimizer
validation. The RY/CX-ring ansatz gives real states, so exact mode simulates
it here on float64 amplitudes, with no circuit, no complex state and nothing
of the simulator's, once per parameter vector; each CX ring is one gather
through an index kept for the last register size. Every Pauli term is read
off that one state at once, with one gather and one matrix-vector product
over a table of stacked rows built once per Hamiltonian and register size:
a term with an odd number of Y factors is 0 on a real state and has no row,
and every other term has a gather index and a sign row. The last table that
fits a fixed byte budget is kept; a larger one is built and read in blocks
of terms at each evaluation.
Sampled mode is the device-faithful path: one basis-rotated job per term,
all submitted before any is waited on (`target nowait` regions, then a
`taskwait`), so a remote device runs an evaluation's jobs as one batch
request and the evaluation pays one link latency leg.
"""
from __future__ import annotations

import functools
import itertools
import math
import time
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .circuit import (DEFAULT_MAX_QUBITS, Circuit, GateParameterError,
                      create_circuit)
from .runtime import DeviceKind, DeviceRegistry, JobFailedError

PAULI_CHARS = frozenset("IXYZ")


class VqeError(Exception):
    pass


class VqeAbortedError(VqeError):
    """Device failure mid-optimization; carries the partial energy trace."""

    def __init__(self, message: str, energy_trace: list[float]):
        super().__init__(message)
        self.energy_trace = energy_trace


@dataclass(frozen=True)
class PauliTerm:
    """Weighted Pauli string. Character j acts on qubit (n - 1 - j): the
    string reads most-significant qubit first, matching outcome bit order."""

    coefficient: float
    operators: str

    def __post_init__(self):
        if not math.isfinite(self.coefficient):
            raise VqeError("coefficient must be finite")
        if not self.operators or set(self.operators) - PAULI_CHARS:
            raise VqeError(f"invalid Pauli string {self.operators!r}")

    @functools.cached_property
    def is_identity(self) -> bool:
        # Cached in the instance's __dict__, outside the dataclass fields.
        return not self.operators.strip("I")


@dataclass(frozen=True)
class Hamiltonian:
    terms: tuple[PauliTerm, ...]
    num_qubits: int

    @classmethod
    def from_terms(cls, terms) -> "Hamiltonian":
        """Build from (coefficient, operators) pairs or PauliTerms; duplicate
        operator strings are merged by summing coefficients."""
        items = [t if isinstance(t, PauliTerm) else PauliTerm(*t) for t in terms]
        if not items:
            raise VqeError("Hamiltonian needs at least one term")
        n = len(items[0].operators)
        if any(len(t.operators) != n for t in items):
            raise VqeError("all Pauli strings must have the same length")
        merged: dict[str, float] = {}
        for t in items:
            merged[t.operators] = merged.get(t.operators, 0.0) + t.coefficient
        return cls(tuple(PauliTerm(c, ops) for ops, c in merged.items()), n)

    @classmethod
    def parse(cls, text: str) -> "Hamiltonian":
        """One term per line: `coefficient operator-string`; `#` comments."""
        terms = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise VqeError(f"line {lineno}: expected 'coefficient operators'")
            try:
                coeff = float(parts[0])
            except ValueError:
                raise VqeError(f"line {lineno}: bad coefficient {parts[0]!r}")
            terms.append(PauliTerm(coeff, parts[1].upper()))
        if not terms:
            raise VqeError("no terms in Hamiltonian input")
        return cls.from_terms(terms)

    @classmethod
    def load(cls, path) -> "Hamiltonian":
        with open(path, encoding="utf-8") as f:
            return cls.parse(f.read())


@dataclass(frozen=True)
class AnsatzSpec:
    num_qubits: int
    layers: int

    def __post_init__(self):
        if not 1 <= self.num_qubits <= DEFAULT_MAX_QUBITS:
            raise VqeError(f"num_qubits must be in [1, {DEFAULT_MAX_QUBITS}], "
                           f"got {self.num_qubits}")
        if self.layers < 1:
            raise VqeError("layers must be >= 1")

    @property
    def num_parameters(self) -> int:
        return self.layers * self.num_qubits


def _angles(spec: AnsatzSpec, theta) -> list:
    """`theta` as a list, checked to hold one finite angle per parameter.
    A non-finite angle raises the error its RY gate would."""
    theta = list(theta)
    if len(theta) != spec.num_parameters:
        raise VqeError(
            f"expected {spec.num_parameters} parameters, got {len(theta)}"
        )
    if not all(map(math.isfinite, theta)):
        raise GateParameterError("ry parameter must be finite")
    return theta


def build_ansatz_body(spec: AnsatzSpec, theta) -> Circuit:
    """Unmeasured ansatz circuit: per layer, RY on every qubit then a CX
    ring i -> (i+1) mod n (no ring for a single qubit)."""
    theta = _angles(spec, theta)
    n = spec.num_qubits
    circuit = create_circuit(n)
    for layer in range(spec.layers):
        for q in range(n):
            circuit.ry(q, theta[layer * n + q])
        if n > 1:
            for q in range(n):
                circuit.cx(q, (q + 1) % n)
    return circuit


@functools.lru_cache(maxsize=1)
def _ring_index(num_qubits: int) -> np.ndarray:
    """The read-only gather index of the CX ring on n >= 2 qubits:
    `state.take(index)` is the state after the ring. Entry k is the basis
    state that the ring sends to k, so it is k with the ring undone, last
    CX first; CX(q, t) flips bit t of k where bit q is set."""
    index = np.arange(1 << num_qubits, dtype=np.int64)
    for q in reversed(range(num_qubits)):
        index ^= (index >> q & 1) << (q + 1) % num_qubits
    index.setflags(write=False)
    return index


def _ansatz_state(spec: AnsatzSpec, theta: list) -> np.ndarray:
    """The float64 amplitudes of the ansatz at `theta`, checked by
    `_angles`: the state `sim.run_statevector(build_ansatz_body(spec,
    theta))` gives, whose imaginary part is 0, built with no circuit.

    RY(t) is [[c, -s], [s, c]] with c = cos(t/2) and s = sin(t/2). So the
    first layer turns |0...0> into the product of its qubits' (c, s) pairs,
    each CX ring is one gather through `_ring_index(n)`, and each later RY
    is one elementwise update of the state viewed with the qubit's bit as
    its middle axis. The products and sums are those that
    `sim` makes on the real parts, so the amplitudes equal its own.
    """
    n = spec.num_qubits
    pairs = [(math.cos(t / 2.0), math.sin(t / 2.0)) for t in theta]
    state = np.array(pairs[0])
    for pair in pairs[1:n]:  # qubit q is bit q: its pair is the outer axis
        state = np.multiply.outer(pair, state).ravel()
    for layer in range(spec.layers):
        if layer:
            for q, (c, s) in enumerate(pairs[layer * n:(layer + 1) * n]):
                view = state.reshape(-1, 2, 1 << q)
                state = view * c
                state += view[:, ::-1] * np.array([[-s], [s]])
                state = state.reshape(-1)
        if n > 1:
            state = state.take(_ring_index(n))
    return state


def basis_change(body: Circuit, operators: str) -> Circuit:
    """Rotate each non-Z axis into the measurement basis (X via H, Y via
    SDG then H), then finalize. `body` is left untouched."""
    if len(operators) != body.num_qubits:
        raise VqeError(
            f"operator string of length {len(operators)} for "
            f"{body.num_qubits}-qubit circuit"
        )
    circuit = body.copy()
    n = body.num_qubits
    for q in range(n):
        op = operators[n - 1 - q]
        if op == "X":
            circuit.h(q)
        elif op == "Y":
            circuit.sdg(q)
            circuit.h(q)
    return circuit.measure()


# Bit digits of a Pauli string's masks: flips (X, Y) and phase signs (Y, Z).
_FLIP_BITS = str.maketrans("IXYZ", "0110")
_SIGN_BITS = str.maketrans("IXYZ", "0011")


def _pauli_masks(operators: str) -> tuple[int, int]:
    """(x, z) bit masks of a Pauli string, qubit q at bit q. The string reads
    most-significant qubit first, as a binary numeral does."""
    return (int(operators.translate(_FLIP_BITS), 2),
            int(operators.translate(_SIGN_BITS), 2))


def _signs(index: np.ndarray, mask: int) -> np.ndarray:
    """(-1)^popcount(k & mask) for each k in `index`, an int64 array: the
    bits are folded onto bit 0 by XOR."""
    bits = index & mask
    for shift in (32, 16, 8, 4, 2, 1):
        bits ^= bits >> shift
    return np.where(bits & 1, -1.0, 1.0)


class _TermTable(NamedTuple):
    """The rows of the terms whose Pauli string has an even number of Y
    factors, in term order. As
    P|k> = i^nY (-1)^popcount(k & z) |k ^ x>,
    on a real state <P> = i^nY sum_k psi[k ^ x] (-1)^popcount(k & z) psi[k]:
    row r of `gather` is k ^ x and of `signs` the parity factor times
    i^nY, which is +-1 for an even nY. A term with an odd nY has no row: on
    a real state its sum is real and i^nY imaginary, so its <P> is 0."""

    gather: np.ndarray  # R x 2^n int64
    signs: np.ndarray  # R x 2^n float64
    terms: np.ndarray  # the term index of each row


def _build_table(operators: tuple[str, ...], num_qubits: int) -> _TermTable:
    """The read-only table of `operators` on `num_qubits` qubits."""
    ny = [ops.count("Y") for ops in operators]
    terms = [t for t, n in enumerate(ny) if n % 2 == 0]
    masks = np.array([_pauli_masks(operators[t]) for t in terms],
                     dtype=np.int64).reshape(-1, 2)
    index = np.arange(1 << num_qubits)
    gather = index ^ masks[:, :1]
    signs = _signs(index, index.size - 1)[index & masks[:, 1:]]
    signs *= np.array([(-1.0) ** (ny[t] // 2) for t in terms])[:, None]
    terms = np.array(terms, dtype=np.intp)
    for array in (gather, signs, terms):
        array.setflags(write=False)
    return _TermTable(gather, signs, terms)


# A table costs 16 bytes per amplitude per row (an int64 gather index and a
# float64 sign row), so a process keeps one, and only within this fixed
# budget. The kept table is read-only, and `lru_cache` keeps its slot
# consistent, so threads that evaluate at once can share it.
_TERM_ROWS_BUDGET = 32 << 20
_ROW_BYTES = 16
_kept_table = functools.lru_cache(maxsize=1)(_build_table)


def _term_values(operators: tuple[str, ...], num_qubits: int,
                 state: np.ndarray) -> list[float]:
    """<P> of each string on `state`, the float64 amplitudes of a real
    state, read through the table kept for the last (strings, register
    size) that fits `_TERM_ROWS_BUDGET`. A table over the budget is never
    kept: it is built and read afresh at each call, in blocks of terms that
    each fit the budget (one term, if one alone does not)."""
    block = max(1, _TERM_ROWS_BUDGET // (_ROW_BYTES << num_qubits))
    if len(operators) <= block:
        tables = [(0, _kept_table(operators, num_qubits))]
    else:
        tables = ((start, _build_table(operators[start:start + block],
                                       num_qubits))
                  for start in range(0, len(operators), block))
    values = np.zeros(len(operators))
    for start, table in tables:
        rows = state[table.gather]
        rows *= table.signs
        values[start + table.terms] = rows @ state
    return values.tolist()


def _seed_stream(base: int) -> Iterator[int]:
    """Deterministic per-job seeds: base, base + 1, ... modulo 2^64."""
    return (seed & 0xFFFFFFFFFFFFFFFF for seed in itertools.count(int(base)))


def estimate_expectation(hamiltonian: Hamiltonian, spec: AnsatzSpec, theta,
                         shots: int, registry: DeviceRegistry | None = None,
                         device_name: str | None = None,
                         seeds: Iterator[int] | int = 0) -> float:
    """<H> at the given parameters: identity terms add their coefficient,
    every other term its coefficient times <P>, in term order. <P> is exact
    when `shots == 0` and sampled on the device otherwise."""
    if spec.num_qubits != hamiltonian.num_qubits:
        raise VqeError("ansatz and Hamiltonian qubit counts differ")
    if shots < 0:
        raise VqeError("shots must be >= 0")
    terms = [term for term in hamiltonian.terms if not term.is_identity]
    if shots == 0:
        values = _exact_values(spec, _angles(spec, theta), terms, registry,
                               device_name)
    else:
        values = _sampled_values(build_ansatz_body(spec, theta), terms,
                                 shots, registry, device_name, seeds)
    values = iter(values)
    energy = 0.0
    for term in hamiltonian.terms:
        energy += (term.coefficient if term.is_identity
                   else term.coefficient * next(values))
    return energy


def _exact_values(spec: AnsatzSpec, theta: list, terms: list[PauliTerm],
                  registry: DeviceRegistry | None,
                  device_name: str | None) -> list[float]:
    """<P> of each term, read off the ansatz state at `theta`, checked by
    `_angles`."""
    if registry is not None and device_name is not None:
        if registry.device(device_name).kind is DeviceKind.REMOTE:
            raise VqeError("exact mode is local-simulator only")
    if not terms:
        return []
    return _term_values(tuple(term.operators for term in terms),
                        spec.num_qubits, _ansatz_state(spec, theta))


def _sampled_values(body: Circuit, terms: list[PauliTerm], shots: int,
                    registry: DeviceRegistry | None, device_name: str | None,
                    seeds: Iterator[int] | int) -> list[float]:
    """<P> of each term from one basis-rotated job per term, seeds drawn in
    term order. All are submitted (`target nowait`) before any is waited on
    (`taskwait`); a failed job raises `JobFailedError` once every job has
    finished."""
    if registry is None or device_name is None:
        raise VqeError("sampled mode requires a device")
    if isinstance(seeds, int):
        seeds = _seed_stream(seeds)
    # The circuits are built first, so that the jobs are queued together and
    # a remote device's worker finds them all in one batch.
    circuits = [basis_change(body, term.operators) for term in terms]
    handles = [registry.submit_async(device_name, circuit, shots, next(seeds))
               for circuit in circuits]
    try:
        histograms = [registry.wait(handle).histogram for handle in handles]
    except JobFailedError:
        # As at a `taskwait`, the evaluation ends only once all its jobs have.
        for handle in handles:
            handle.wait()
        raise
    values = []
    for term, histogram in zip(terms, histograms):
        x, z = _pauli_masks(term.operators)
        signs = _signs(np.asarray(histogram.outcomes), x | z)
        # Each partial sum is an integer of at most `shots`, so exact in any
        # order: the dense sum's value, bit for bit.
        values.append(float(
            signs @ np.asarray(histogram.outcome_counts, dtype=float)) / shots)
    return values


@dataclass
class VqeConfig:
    initial_theta: list[float]
    max_iterations: int = 200
    tolerance: float = 1e-8
    shots: int = 0
    seed: int = 0
    device_name: str | None = None


@dataclass
class VqeReport:
    best_energy: float
    best_theta: list[float]
    iterations: int
    energy_trace: list[float]
    total_wall_time: float
    iteration_round_trips: list[float]


# Nelder-Mead coefficients: reflection, expansion, contraction, shrink.
NM_ALPHA, NM_GAMMA, NM_RHO, NM_SIGMA = 1.0, 2.0, 0.5, 0.5
NM_STEP = 0.5  # initial simplex displacement, radians


def optimize(hamiltonian: Hamiltonian, spec: AnsatzSpec, config: VqeConfig,
             registry: DeviceRegistry | None = None) -> VqeReport:
    """Minimize the energy with Nelder-Mead; stops when the simplex energy
    spread drops below the tolerance or the iteration budget is spent."""
    theta0 = np.asarray(config.initial_theta, dtype=float)
    if theta0.size != spec.num_parameters:
        raise VqeError(
            f"initial theta has {theta0.size} entries, "
            f"ansatz needs {spec.num_parameters}"
        )
    if not np.all(np.isfinite(theta0)):
        raise VqeError("initial theta must be finite")
    if config.max_iterations < 0:
        raise VqeError("max_iterations must be >= 0")
    # `Job`'s rule, but from 0, which selects exact mode.
    if type(config.shots) is not int:
        raise VqeError("shots must be an integer")
    if config.shots < 0:
        raise VqeError("shots must be >= 0")
    if math.isnan(config.tolerance):
        raise VqeError("tolerance must not be NaN")
    seeds = _seed_stream(config.seed)
    trace: list[float] = []
    round_trips: list[float] = []

    def energy(theta: np.ndarray) -> float:
        try:
            value = estimate_expectation(
                hamiltonian, spec, theta, config.shots,
                registry, config.device_name, seeds,
            )
        except VqeError:
            raise
        except Exception as exc:
            raise VqeAbortedError(f"device failure: {exc}", trace) from exc
        trace.append(value)
        return value

    start = time.monotonic()
    dim = theta0.size
    simplex = [theta0]
    for i in range(dim):
        vertex = theta0.copy()
        vertex[i] += NM_STEP
        simplex.append(vertex)
    values = [energy(v) for v in simplex]

    iterations = 0
    while iterations < config.max_iterations:
        iter_start = time.monotonic()
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if values[-1] - values[0] < config.tolerance:
            break
        iterations += 1

        centroid = np.mean(simplex[:-1], axis=0)
        reflected = centroid + NM_ALPHA * (centroid - simplex[-1])
        f_reflected = energy(reflected)
        if f_reflected < values[0]:
            expanded = centroid + NM_GAMMA * (reflected - centroid)
            f_expanded = energy(expanded)
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
        else:
            if f_reflected < values[-1]:
                contracted = centroid + NM_RHO * (reflected - centroid)
            else:
                contracted = centroid + NM_RHO * (simplex[-1] - centroid)
            f_contracted = energy(contracted)
            if f_contracted < min(f_reflected, values[-1]):
                simplex[-1], values[-1] = contracted, f_contracted
            else:
                best = simplex[0]
                simplex = [best] + [best + NM_SIGMA * (v - best)
                                    for v in simplex[1:]]
                values = [values[0]] + [energy(v) for v in simplex[1:]]
        round_trips.append(time.monotonic() - iter_start)

    order = np.argsort(values, kind="stable")
    best_index = int(order[0])
    return VqeReport(
        best_energy=float(values[best_index]),
        best_theta=[float(x) for x in simplex[best_index]],
        iterations=iterations,
        energy_trace=trace,
        total_wall_time=time.monotonic() - start,
        iteration_round_trips=round_trips,
    )
