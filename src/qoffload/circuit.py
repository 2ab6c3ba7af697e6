"""Gate-level circuit IR.

A circuit is an ordered list of gates over a single n-qubit register, plus a
terminal full-register measurement marker. Once measured, a circuit is frozen
and ready to be offloaded. Outcome bit ordering: qubit i contributes 2^i to the
outcome index (qubit 0 least-significant).

`gate_rows` alone defines the gate set, as rows of Python complex numbers;
`gate_matrix` is its numpy array form.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress
from operator import lt

import numpy as np

# Register-size bound; keeps the statevector under ~256 MiB of complex
# doubles. Every register is held to it: no device allows more.
DEFAULT_MAX_QUBITS = 24


class CircuitError(Exception):
    """Base for circuit construction errors."""


class SizeOutOfRangeError(CircuitError):
    pass


class IndexOutOfRangeError(CircuitError):
    pass


class DuplicateTargetsError(CircuitError):
    pass


class GateAfterMeasureError(CircuitError):
    pass


class DoubleMeasureError(CircuitError):
    pass


class GateParameterError(CircuitError):
    pass


class GateKind(Enum):
    """Supported gate set; values are the qelib1.inc mnemonics."""

    H = "h"
    X = "x"
    Y = "y"
    Z = "z"
    S = "s"
    SDG = "sdg"
    T = "t"
    TDG = "tdg"
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    CX = "cx"
    CZ = "cz"
    SWAP = "swap"


TWO_QUBIT_KINDS = frozenset({GateKind.CX, GateKind.CZ, GateKind.SWAP})
PARAMETRIC_KINDS = frozenset({GateKind.RX, GateKind.RY, GateKind.RZ})


@dataclass(frozen=True)
class Gate:
    """One gate application: kind, target qubit indices, optional angle."""

    kind: GateKind
    targets: tuple[int, ...]
    param: float | None = None

    def __post_init__(self):
        arity = 2 if self.kind in TWO_QUBIT_KINDS else 1
        if len(self.targets) != arity:
            raise IndexOutOfRangeError(
                f"{self.kind.value} takes {arity} target(s), got {len(self.targets)}"
            )
        if arity == 2 and self.targets[0] == self.targets[1]:
            raise DuplicateTargetsError(
                f"{self.kind.value} targets must be distinct, got {self.targets}"
            )
        if any(t < 0 for t in self.targets):
            raise IndexOutOfRangeError(f"negative qubit index in {self.targets}")
        if self.kind in PARAMETRIC_KINDS:
            if self.param is None:
                raise GateParameterError(f"{self.kind.value} requires a parameter")
            if not math.isfinite(self.param):
                raise GateParameterError(f"{self.kind.value} parameter must be finite")
        elif self.param is not None:
            raise GateParameterError(f"{self.kind.value} takes no parameter")


@dataclass
class Circuit:
    """Ordered gate sequence over one quantum register."""

    num_qubits: int
    gates: list[Gate] = field(default_factory=list)
    measured: bool = False

    def apply(self, gate: Gate) -> "Circuit":
        if self.measured:
            raise GateAfterMeasureError("cannot append a gate after measurement")
        if any(t >= self.num_qubits for t in gate.targets):
            raise IndexOutOfRangeError(
                f"gate targets {gate.targets} exceed register size {self.num_qubits}"
            )
        self.gates.append(gate)
        return self

    # Convenience constructors mirroring the offload-API call style.
    def h(self, q: int) -> "Circuit":
        return self.apply(Gate(GateKind.H, (q,)))

    def x(self, q: int) -> "Circuit":
        return self.apply(Gate(GateKind.X, (q,)))

    def y(self, q: int) -> "Circuit":
        return self.apply(Gate(GateKind.Y, (q,)))

    def z(self, q: int) -> "Circuit":
        return self.apply(Gate(GateKind.Z, (q,)))

    def s(self, q: int) -> "Circuit":
        return self.apply(Gate(GateKind.S, (q,)))

    def sdg(self, q: int) -> "Circuit":
        return self.apply(Gate(GateKind.SDG, (q,)))

    def t(self, q: int) -> "Circuit":
        return self.apply(Gate(GateKind.T, (q,)))

    def tdg(self, q: int) -> "Circuit":
        return self.apply(Gate(GateKind.TDG, (q,)))

    def rx(self, q: int, theta: float) -> "Circuit":
        return self.apply(Gate(GateKind.RX, (q,), theta))

    def ry(self, q: int, theta: float) -> "Circuit":
        return self.apply(Gate(GateKind.RY, (q,), theta))

    def rz(self, q: int, theta: float) -> "Circuit":
        return self.apply(Gate(GateKind.RZ, (q,), theta))

    def cx(self, control: int, target: int) -> "Circuit":
        return self.apply(Gate(GateKind.CX, (control, target)))

    def cz(self, a: int, b: int) -> "Circuit":
        return self.apply(Gate(GateKind.CZ, (a, b)))

    def swap(self, a: int, b: int) -> "Circuit":
        return self.apply(Gate(GateKind.SWAP, (a, b)))

    def measure(self) -> "Circuit":
        """Record the terminal full-register measurement; freezes the circuit."""
        if self.measured:
            raise DoubleMeasureError("circuit already measured")
        self.measured = True
        return self

    def copy(self) -> "Circuit":
        """An unmeasured circuit with the same register and gates."""
        return Circuit(self.num_qubits, list(self.gates))


def create_circuit(num_qubits: int) -> Circuit:
    """New empty circuit over a register of the given size."""
    if not (isinstance(num_qubits, int) and 1 <= num_qubits <= DEFAULT_MAX_QUBITS):
        raise SizeOutOfRangeError(
            f"register size must be in [1, {DEFAULT_MAX_QUBITS}], got {num_qubits!r}")
    return Circuit(num_qubits)


@dataclass(frozen=True, init=False)
class Histogram:
    """Shot counts of a measured register, held as its nonzero entries.

    `outcomes` holds, in increasing order, the outcome integers measured at
    least once, and `outcome_counts` how often each was; at most `shots`
    entries, however large the register. `counts` is the dense view, a
    tuple of 2^num_qubits Python ints indexed by outcome, built on first
    access and cached in the instance's __dict__, outside the fields.
    `Histogram.from_outcomes` builds a histogram from the nonzero entries
    and checks its invariants; `Histogram(counts, shots)` checks dense
    counts' length, types and signs, then calls `from_outcomes`.
    Histograms of the same counts are equal however they were built.
    """

    num_qubits: int
    outcomes: tuple[int, ...]
    outcome_counts: tuple[int, ...]
    shots: int

    def __init__(self, counts, shots: int):
        counts = tuple(counts)
        n = len(counts)
        if n < 2 or n & (n - 1):
            raise ValueError(f"counts length must be a power of two >= 2, got {n}")
        # `type(x) is int` rejects bools and floats, as `from_outcomes` does.
        if not {*map(type, counts)} <= {int}:
            raise ValueError("counts must be integers")
        if min(counts) < 0:
            raise ValueError("negative count")
        sparse = Histogram.from_outcomes(n.bit_length() - 1,
                                         compress(range(n), counts),
                                         filter(None, counts), shots)
        # Fields are set through `__dict__`, past the frozen `__setattr__`.
        self.__dict__.update(sparse.__dict__, counts=counts)

    @classmethod
    def from_outcomes(cls, num_qubits: int, outcomes, counts,
                      shots: int) -> "Histogram":
        """The histogram whose nonzero entries are `counts[i]` shots of
        `outcomes[i]`: Python ints, outcomes strictly increasing and in
        [0, 2^num_qubits), counts positive and summing to `shots`."""
        outcomes, counts = tuple(outcomes), tuple(counts)
        if type(num_qubits) is not int or num_qubits < 1:
            raise ValueError(f"num_qubits must be a positive integer, got {num_qubits!r}")
        if type(shots) is not int or shots < 1:
            raise ValueError(f"shots must be a positive integer, got {shots!r}")
        if len(outcomes) != len(counts):
            raise ValueError(f"{len(outcomes)} outcomes but {len(counts)} counts")
        # `type(x) is int` rejects bools; a set of types is built in C.
        if not {*map(type, outcomes), *map(type, counts)} <= {int}:
            raise ValueError("outcomes and counts must be integers")
        if not all(map(lt, outcomes, outcomes[1:])):
            raise ValueError("outcomes must be strictly increasing")
        if outcomes and (outcomes[0] < 0
                         or outcomes[-1].bit_length() > num_qubits):
            raise ValueError(f"outcome out of range for {num_qubits} qubits")
        if counts and min(counts) < 1:
            raise ValueError("counts must be positive")
        total = sum(counts)
        if total != shots:
            raise ValueError(f"counts sum {total} != shots {shots}")
        histogram = cls.__new__(cls)
        histogram.__dict__.update(num_qubits=num_qubits, outcomes=outcomes,
                                  outcome_counts=counts, shots=shots)
        return histogram

    @functools.cached_property
    def counts(self) -> tuple[int, ...]:
        """The dense view. Threads that build it at once store equal
        tuples, so the view needs no lock."""
        dense = [0] * (1 << self.num_qubits)
        for outcome, count in zip(self.outcomes, self.outcome_counts):
            dense[outcome] = count
        return tuple(dense)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_T_PHASE = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))  # e^(i pi/4)


def _complex_rows(*rows) -> tuple[tuple[complex, ...], ...]:
    return tuple(tuple(complex(x) for x in row) for row in rows)


_FIXED_ROWS = {
    GateKind.H: _complex_rows((_INV_SQRT2, _INV_SQRT2),
                              (_INV_SQRT2, -_INV_SQRT2)),
    GateKind.X: _complex_rows((0, 1), (1, 0)),
    GateKind.Y: _complex_rows((0, -1j), (1j, 0)),
    GateKind.Z: _complex_rows((1, 0), (0, -1)),
    GateKind.S: _complex_rows((1, 0), (0, 1j)),
    GateKind.SDG: _complex_rows((1, 0), (0, -1j)),
    GateKind.T: _complex_rows((1, 0), (0, _T_PHASE)),
    GateKind.TDG: _complex_rows((1, 0), (0, _T_PHASE.conjugate())),
    GateKind.CX: _complex_rows((1, 0, 0, 0),
                               (0, 1, 0, 0),
                               (0, 0, 0, 1),
                               (0, 0, 1, 0)),
    GateKind.CZ: _complex_rows((1, 0, 0, 0),
                               (0, 1, 0, 0),
                               (0, 0, 1, 0),
                               (0, 0, 0, -1)),
    GateKind.SWAP: _complex_rows((1, 0, 0, 0),
                                 (0, 0, 1, 0),
                                 (0, 1, 0, 0),
                                 (0, 0, 0, 1)),
}


def gate_rows(kind: GateKind,
              param: float | None = None) -> tuple[tuple[complex, ...], ...]:
    """Conventional unitary for a gate kind, as a tuple of rows of Python
    complex numbers (2x2, or 4x4 in |q1 q0> order with the first target as
    the high bit for controlled gates). This alone defines the gate set:
    the simulator applies every gate through these rows."""
    if kind in PARAMETRIC_KINDS:
        if param is None:
            raise GateParameterError(f"{kind.value} requires a parameter")
        t = param / 2.0
        c, s = math.cos(t), math.sin(t)
        if kind is GateKind.RX:
            return (complex(c), -1j * s), (-1j * s, complex(c))
        if kind is GateKind.RY:
            return (complex(c), complex(-s)), (complex(s), complex(c))
        return (complex(c, -s), 0j), (0j, complex(c, s))
    if param is not None:
        raise GateParameterError(f"{kind.value} takes no parameter")
    return _FIXED_ROWS[kind]


def gate_matrix(kind: GateKind, param: float | None = None) -> np.ndarray:
    """`gate_rows` as a fresh complex numpy array."""
    return np.array(gate_rows(kind, param), dtype=complex)


def bell_circuit() -> Circuit:
    """H on qubit 0, CX 0->1, measured: the two-qubit Bell-state program."""
    return create_circuit(2).h(0).cx(0, 1).measure()


def ghz3_circuit() -> Circuit:
    """Three-qubit GHZ-state program."""
    return create_circuit(3).h(0).cx(0, 1).cx(1, 2).measure()
