"""Variational quantum eigensolver on top of the offload runtime.

Hardware-efficient ansatz (one RY per qubit per layer, CX ring entanglers),
Pauli-sum expectation estimation and a Nelder-Mead variational loop.
Shots = 0 selects exact (shot-free) expectation values on the local
simulator, used for optimizer validation: the ansatz is simulated once per
parameter vector and every Pauli term is read off that one statevector.
Sampled mode is the device-faithful path: one basis-rotated job per term,
all submitted before any is waited on (`target nowait` regions, then a
`taskwait`), so a remote device runs an evaluation's jobs as one batch
request and the evaluation pays one link latency leg.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import sim
from .circuit import Circuit, create_circuit
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

    @property
    def is_identity(self) -> bool:
        return set(self.operators) == {"I"}


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
        if self.num_qubits < 1 or self.layers < 1:
            raise VqeError("num_qubits and layers must be >= 1")

    @property
    def num_parameters(self) -> int:
        return self.layers * self.num_qubits


def build_ansatz_body(spec: AnsatzSpec, theta) -> Circuit:
    """Unmeasured ansatz circuit: per layer, RY on every qubit then a CX
    ring i -> (i+1) mod n (no ring for a single qubit)."""
    theta = list(theta)
    if len(theta) != spec.num_parameters:
        raise VqeError(
            f"expected {spec.num_parameters} parameters, got {len(theta)}"
        )
    n = spec.num_qubits
    circuit = create_circuit(n)
    for layer in range(spec.layers):
        for q in range(n):
            circuit.ry(q, theta[layer * n + q])
        if n > 1:
            for q in range(n):
                circuit.cx(q, (q + 1) % n)
    return circuit


def build_ansatz(spec: AnsatzSpec, theta) -> Circuit:
    return build_ansatz_body(spec, theta).measure()


def basis_change(body: Circuit, operators: str) -> Circuit:
    """Rotate each non-Z axis into the measurement basis (X via H, Y via
    SDG then H), then finalize. `body` is left untouched."""
    if len(operators) != body.num_qubits:
        raise VqeError(
            f"operator string of length {len(operators)} for "
            f"{body.num_qubits}-qubit circuit"
        )
    circuit = body.copy(unmeasured=True)
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


def _parity_signs(num_qubits: int, operators: str) -> np.ndarray:
    """+1/-1 per outcome index: parity of measured bits at the term's
    non-identity positions."""
    x, z = _pauli_masks(operators)
    return _signs(np.arange(1 << num_qubits), x | z)


def _pauli_expectation(state: np.ndarray, index: np.ndarray,
                       parity: np.ndarray, operators: str) -> float:
    """<psi|P|psi> read directly off the state, where `index` is
    arange(len(state)) and `parity` is (-1)^popcount(index).
    P|k> = i^nY (-1)^popcount(k & z) |k ^ x>, so
    <P> = i^nY sum_k (-1)^popcount(k & z) conj(psi[k ^ x]) psi[k]."""
    x, z = _pauli_masks(operators)
    value = np.vdot(state[index ^ x], parity[index & z] * state)
    return float((1j ** operators.count("Y") * value).real)


class _SeedStream:
    """Deterministic per-job seed sequence derived from a base seed."""

    def __init__(self, base: int):
        self.base = int(base)
        self.count = 0

    def next(self) -> int:
        seed = (self.base + self.count) & 0xFFFFFFFFFFFFFFFF
        self.count += 1
        return seed


def estimate_expectation(hamiltonian: Hamiltonian, spec: AnsatzSpec, theta,
                         shots: int, registry: DeviceRegistry | None = None,
                         device_name: str | None = None,
                         seeds: _SeedStream | int = 0) -> float:
    """<H> at the given parameters. Identity terms contribute their
    coefficient analytically. Exact mode simulates the ansatz once and reads
    every other term off that statevector. Sampled mode submits one
    basis-rotated device job per non-identity term, drawing seeds in term
    order, before it waits for any; a failed job raises `JobFailedError`
    once every job of the evaluation has finished. Terms are summed in term
    order in both modes."""
    if spec.num_qubits != hamiltonian.num_qubits:
        raise VqeError("ansatz and Hamiltonian qubit counts differ")
    if isinstance(seeds, int):
        seeds = _SeedStream(seeds)
    exact = shots == 0
    if not exact and (registry is None or device_name is None):
        raise VqeError("sampled mode requires a device")
    if exact and registry is not None and device_name is not None:
        if registry.device(device_name).kind is DeviceKind.REMOTE:
            raise VqeError("exact mode is local-simulator only")

    body = build_ansatz_body(spec, theta)
    if exact and not all(term.is_identity for term in hamiltonian.terms):
        state = sim.run_statevector(body)
        index = np.arange(state.size)
        parity = _signs(index, state.size - 1)
    if not exact:
        # The circuits are built first, so that the jobs are queued together
        # and a remote device's worker finds them all in one batch.
        circuits = [basis_change(body, term.operators)
                    for term in hamiltonian.terms if not term.is_identity]
        handles = [registry.submit_async(device_name, circuit, shots,
                                         seeds.next())
                   for circuit in circuits]
        waited = iter(handles)
    energy = 0.0
    for term in hamiltonian.terms:
        if term.is_identity:
            energy += term.coefficient
            continue
        if exact:
            expectation = _pauli_expectation(state, index, parity,
                                             term.operators)
        else:
            signs = _parity_signs(spec.num_qubits, term.operators)
            try:
                result = registry.wait(next(waited))
            except JobFailedError:
                # As at a `taskwait`, the evaluation ends only once all its
                # jobs have.
                for handle in handles:
                    handle.wait()
                raise
            histogram = result.histogram
            # Each partial sum is an integer of at most `shots`, so exact
            # in any order: the dense sum's value, bit for bit.
            expectation = float(
                signs[np.asarray(histogram.outcomes)]
                @ np.asarray(histogram.outcome_counts, dtype=float)) / shots
        energy += term.coefficient * expectation
    return energy


@dataclass
class VqeConfig:
    initial_theta: list[float]
    max_iterations: int = 200
    tolerance: float = 1e-8
    shots: int = 0
    seed: int = 0
    device_name: str | None = None
    simplex_step: float = 0.5  # initial simplex displacement, radians


@dataclass
class VqeReport:
    best_energy: float
    best_theta: list[float]
    iterations: int
    energy_trace: list[float]
    total_wall_time: float
    iteration_round_trips: list[float]

    def to_dict(self) -> dict:
        return {
            "best_energy": self.best_energy,
            "best_theta": list(self.best_theta),
            "iterations": self.iterations,
            "energy_trace": list(self.energy_trace),
            "total_wall_time": self.total_wall_time,
            "iteration_round_trips": list(self.iteration_round_trips),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VqeReport":
        return cls(
            best_energy=float(d["best_energy"]),
            best_theta=[float(x) for x in d["best_theta"]],
            iterations=int(d["iterations"]),
            energy_trace=[float(x) for x in d["energy_trace"]],
            total_wall_time=float(d["total_wall_time"]),
            iteration_round_trips=[float(x) for x in d["iteration_round_trips"]],
        )


# Nelder-Mead coefficients: reflection, expansion, contraction, shrink.
NM_ALPHA, NM_GAMMA, NM_RHO, NM_SIGMA = 1.0, 2.0, 0.5, 0.5


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
    seeds = _SeedStream(config.seed)
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
        vertex[i] += config.simplex_step
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
