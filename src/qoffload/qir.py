"""QIR text emission (base-profile style) and a structural checker.

Output is textual LLVM-flavored IR only: a single `@main` entry block with one
`__quantum__qis__<op>__body` call per gate, one `mz` call per qubit for the
terminal measurement, and an `entry_point` attribute group. Qubit and result
operands use the null / inttoptr encoding of the QIR base profile.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal

from .circuit import Circuit, GateKind, PARAMETRIC_KINDS

_QIR_NAMES = {
    GateKind.H: "h",
    GateKind.X: "x",
    GateKind.Y: "y",
    GateKind.Z: "z",
    GateKind.S: "s",
    GateKind.SDG: "sdg",
    GateKind.T: "t",
    GateKind.TDG: "tdg",
    GateKind.RX: "rx",
    GateKind.RY: "ry",
    GateKind.RZ: "rz",
    GateKind.CX: "cnot",
    GateKind.CZ: "cz",
    GateKind.SWAP: "swap",
}


class QirShapeError(Exception):
    pass


def _double(value: float) -> str:
    """Lowercase scientific form with the shortest round-trip mantissa,
    e.g. 0.25 -> '2.5e-1', pi -> '3.141592653589793e0'."""
    if value == 0.0:
        return "0e0"
    sign, digits, exponent = Decimal(repr(float(value))).as_tuple()
    mantissa = "".join(str(d) for d in digits)
    exp10 = exponent + len(digits) - 1
    head = mantissa[0]
    tail = mantissa[1:].rstrip("0")
    body = f"{head}.{tail}" if tail else head
    return f"{'-' if sign else ''}{body}e{exp10}"


def _static_pointer(kind: str, index: int) -> str:
    """The `%Qubit*` or `%Result*` operand of a static index."""
    if index == 0:
        return f"%{kind}* null"
    return f"%{kind}* inttoptr (i64 {index} to %{kind}*)"


def emit_qir(circuit: Circuit) -> str:
    if not circuit.measured:
        raise ValueError("circuit must be finalized (measured) before emission")
    lines = ["define void @main() #0 {", "entry:"]
    for g in circuit.gates:
        args = []
        if g.kind in PARAMETRIC_KINDS:
            args.append(f"double {_double(g.param)}")
        args.extend(_static_pointer("Qubit", t) for t in g.targets)
        lines.append(
            f"  call void @__quantum__qis__{_QIR_NAMES[g.kind]}__body({', '.join(args)})"
        )
    for q in range(circuit.num_qubits):
        lines.append(
            f"  call void @__quantum__qis__mz__body("
            f"{_static_pointer('Qubit', q)}, {_static_pointer('Result', q)})"
        )
    lines.append("  ret void")
    lines.append("}")
    lines.append("")
    lines.append('attributes #0 = { "entry_point" }')
    return "\n".join(lines) + "\n"


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
