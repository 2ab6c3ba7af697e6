"""QIR text emission (base-profile style).

Output is textual LLVM-flavored IR only: a single `@main` entry block with one
`__quantum__qis__<op>__body` call per gate, one `mz` call per qubit for the
terminal measurement, and an `entry_point` attribute group. Qubit and result
operands use the null / inttoptr encoding of the QIR base profile.
"""
from __future__ import annotations

from decimal import Decimal

from .circuit import Circuit, GateKind, PARAMETRIC_KINDS

# Each kind's QIR operation is its QASM mnemonic, but for CX.
_QIR_NAMES = {**{kind: kind.value for kind in GateKind}, GateKind.CX: "cnot"}


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
