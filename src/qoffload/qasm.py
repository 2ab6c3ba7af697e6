"""OpenQASM 2.0 emission and parsing.

The emitter writes the canonical layout: header, `qreg q[n];`, `creg c[n];`,
one gate line per gate, `measure q -> c;`. `emit(parse(text))` is the
canonical re-serialization of `text`. The parser reads that shape, with any
register names, one `;`-terminated statement at a time, and rejects the
rest of the QASM 2.0 grammar as unsupported:

    OPENQASM 2.0;
    include "qelib1.inc";
    qreg NAME[SIZE];
    creg NAME[SIZE];
    GATE NAME[INDEX];                   h x y z s sdg t tdg
    GATE(EXPR) NAME[INDEX];             rx ry rz
    GATE NAME[INDEX],NAME[INDEX];       cx cz swap
    measure NAME -> NAME;

Blanks (space, tab, CR, LF) and `//` comments, which run to the end of the
line, may stand between statements and between any two tokens of one; two
names must be parted by at least one. A name is a letter or `_` followed by
letters, digits and `_`, in Unicode's sense as `str.isalpha` and
`str.isalnum` take it. SIZE and INDEX are decimal integers: the sizes are
equal and within the circuit IR's 1..24 qubits, and each INDEX is below
SIZE. EXPR is an optional `-` and then numbers and `pi` joined by `*` and
`/`, folded left to right to a finite value.

Every rejection raises a `QasmError` with a 1-based line and column: those
of the field at fault when one field of a well-shaped statement fails its
check (the version, include file, a register name, size or index, or a
division by zero), else those of the statement's first character.
"""
from __future__ import annotations

import math
import re

from .circuit import (
    Circuit,
    CircuitError,
    Gate,
    GateKind,
    PARAMETRIC_KINDS,
    TWO_QUBIT_KINDS,
    create_circuit,
)

QASM_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'

_MNEMONICS = {k.value: k for k in GateKind}


class QasmError(Exception):
    """Parse failure with 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}, column {col}")
        self.message = message
        self.line = line
        self.col = col


class QasmSyntaxError(QasmError):
    pass


class UnsupportedConstructError(QasmError):
    pass


def _fmt_param(value: float) -> str:
    # Shortest decimal that round-trips through float().
    return repr(float(value))


def emit_qasm(circuit: Circuit) -> str:
    if not circuit.measured:
        raise ValueError("circuit must be finalized (measured) before emission")
    n = circuit.num_qubits
    lines = [f"qreg q[{n}];", f"creg c[{n}];"]
    for g in circuit.gates:
        name = g.kind.value
        if g.kind in PARAMETRIC_KINDS:
            name += f"({_fmt_param(g.param)})"
        operands = ",".join(f"q[{t}]" for t in g.targets)
        lines.append(f"{name} {operands};")
    lines.append("measure q -> c;")
    return QASM_HEADER + "\n".join(lines) + "\n"


_UNSUPPORTED_KEYWORDS = {"gate", "if", "barrier", "opaque", "reset", "U", "CX"}

# Comments are blanked to spaces before any statement is matched, so `_`,
# a run of blanks, is all that parts two tokens. Strings are kept whole, as
# a `//` inside one is not a comment. A `\b` after a name keeps a pattern
# from ending the name early: `hq[0]` is the gate `hq`, never `h q[0]`.
# No two blank runs meet without a required character between them, or a
# failed match would try every split of one run between the two.
_STRING_OR_COMMENT = re.compile(r'("[^"\n]*")|//[^\n]*')
_ = r"[ \t\r\n]*"
_BLANKS = re.compile(_)
_WORD = re.compile(r"\w*")
_NUMBER = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_FACTOR = rf"(?:{_NUMBER}|pi\b)"
_OPERAND = rf"(\w+){_}\[{_}(\d+){_}\]{_}"
_VERSION = re.compile(rf"OPENQASM\b{_}({_NUMBER}){_};")
_INCLUDE = re.compile(rf'include{_}"([^"\n]*)"{_};')
_QREG, _CREG = (re.compile(rf"{keyword}\b{_}(\w+){_}\[{_}(\d+){_}\]{_};")
                for keyword in ("qreg", "creg"))
_GATE = re.compile(
    rf"\w+\b{_}(?:\({_}((?:-{_})?{_FACTOR}(?:{_}[*/]{_}{_FACTOR})*){_}\){_})?"
    rf"{_OPERAND}(?:,{_}{_OPERAND})?;")
_MEASURE = re.compile(rf"measure\b{_}(\w+){_}->{_}(\w+){_};")
_PER_QUBIT_MEASURE = re.compile(rf"measure\b{_}\w+{_}\[")
_TERM = re.compile(rf"([*/]?)({_NUMBER}|pi)")


def _error(cls: type[QasmError], message: str, src: str, index: int) -> QasmError:
    line = src.count("\n", 0, index) + 1
    return cls(message, line, index - src.rfind("\n", 0, index))


def _statement(pattern: re.Pattern, src: str, pos: int, expected: str) -> re.Match:
    """Skip the blanks at `pos` and match the statement there to `pattern`."""
    start = _BLANKS.match(src, pos).end()
    m = pattern.match(src, start)
    if m is None:
        word = _WORD.match(src, start)[0]
        if word in _UNSUPPORTED_KEYWORDS:
            raise _error(UnsupportedConstructError,
                         f"unsupported construct {word!r}", src, start)
        raise _error(QasmSyntaxError, f"expected {expected}", src, start)
    return m


def _integer(src: str, m: re.Match, group: int) -> int:
    try:
        return int(m[group])
    except ValueError:  # more digits than int() reads from a string
        raise _error(QasmSyntaxError, "integer too long", src,
                     m.start(group)) from None


def _is_name(word: str) -> bool:
    return word[:1].isalpha() or word[:1] == "_"


def _register(src: str, m: re.Match) -> tuple[str, int]:
    name = m[1]
    if not _is_name(name):
        raise _error(QasmSyntaxError, f"invalid register name {name!r}",
                     src, m.start(1))
    return name, _integer(src, m, 2)


def _qubit(src: str, m: re.Match, group: int, qreg: str, size: int) -> int:
    """The index of the operand in `group` (name) and `group + 1` (index)."""
    if m[group] != qreg:
        raise _error(QasmSyntaxError, f"unknown register {m[group]!r}",
                     src, m.start(group))
    index = _integer(src, m, group + 1)
    if index >= size:
        raise _error(QasmSyntaxError,
                     f"qubit index {index} out of range for {qreg}[{size}]",
                     src, m.start(group + 1))
    return index


def _fold(src: str, m: re.Match) -> float:
    """The value of the parameter expression in group 1 of a gate match."""
    expr = "".join(m[1].split())  # `_GATE` has checked no blank parts a number
    value = 1.0
    for op, factor in _TERM.findall(expr):
        x = math.pi if factor == "pi" else float(factor)
        if op == "/" and x == 0.0:
            raise _error(QasmSyntaxError, "division by zero", src, m.start(1))
        value = value / x if op == "/" else value * x
    return -value if expr[0] == "-" else value


def parse_qasm(text: str, memo: dict | None = None) -> Circuit:
    """Parse the supported OpenQASM 2.0 subset into a finalized circuit.

    `memo`, if given, maps a gate statement's text, from its first
    character to its `;`, and the qreg's name and size to the `Gate` it
    parsed to. A statement found there is not parsed again, and only one
    that parsed is stored, so errors are raised as without a memo."""
    src = _STRING_OR_COMMENT.sub(lambda m: m[1] or " " * len(m[0]), text)
    m = _statement(_VERSION, src, 0, "'OPENQASM 2.0;'")
    if m[1] != "2.0":
        raise _error(UnsupportedConstructError,
                     f"unsupported OPENQASM version {m[1]}", src, m.start(1))
    m = _statement(_INCLUDE, src, m.end(), "'include \"qelib1.inc\";'")
    if m[1] != "qelib1.inc":
        raise _error(UnsupportedConstructError,
                     f"unsupported include {m[1]!r}", src, m.start(1))
    m = _statement(_QREG, src, m.end(), "'qreg' declaration")
    qreg, qreg_size = _register(src, m)
    try:
        circuit = create_circuit(qreg_size)
    except CircuitError as exc:
        raise _error(QasmSyntaxError, str(exc), src, m.start(2)) from None
    m = _statement(_CREG, src, m.end(), "'creg' declaration")
    creg, creg_size = _register(src, m)
    if creg_size != qreg_size:
        raise _error(QasmSyntaxError,
                     f"creg size {creg_size} does not match qreg size {qreg_size}",
                     src, m.start(2))

    pos = m.end()
    while (start := _BLANKS.match(src, pos).end()) < len(src):
        if memo is not None:
            end = src.find(";", start) + 1
            gate = memo.get((src[start:end], qreg, qreg_size))
            if gate is not None:
                circuit.apply(gate)
                pos = end
                continue
        word = _WORD.match(src, start)[0]
        if word == "measure":
            break
        kind = _MNEMONICS.get(word)
        if kind is None:
            if not _is_name(word):
                raise _error(QasmSyntaxError, "expected statement", src, start)
            what = "construct" if word in _UNSUPPORTED_KEYWORDS else "gate"
            raise _error(UnsupportedConstructError,
                         f"unsupported {what} {word!r}", src, start)
        m = _GATE.match(src, start)
        if (m is None or (m[1] is None) == (kind in PARAMETRIC_KINDS)
                or (m[4] is None) == (kind in TWO_QUBIT_KINDS)):
            raise _error(QasmSyntaxError, f"malformed {word!r} statement",
                         src, start)
        targets = tuple(_qubit(src, m, group, qreg, qreg_size)
                        for group in (2, 4) if m[group] is not None)
        param = None if m[1] is None else _fold(src, m)
        try:
            gate = Gate(kind, targets, param)
            circuit.apply(gate)
        except CircuitError as exc:
            raise _error(QasmSyntaxError, str(exc), src, start) from None
        pos = m.end()
        if memo is not None:  # `_GATE` ends at the statement's only `;`
            memo[src[start:pos], qreg, qreg_size] = gate
    else:
        raise _error(QasmSyntaxError, "missing terminal measurement", src, pos)

    m = _MEASURE.match(src, start)
    if m is None:
        if _PER_QUBIT_MEASURE.match(src, start):
            raise _error(
                UnsupportedConstructError,
                "per-qubit measurement (only full-register measure is supported)",
                src, start)
        raise _error(QasmSyntaxError, "malformed 'measure' statement", src, start)
    for group, name in ((1, qreg), (2, creg)):
        if m[group] != name:
            raise _error(QasmSyntaxError, f"unknown register {m[group]!r}",
                         src, m.start(group))
    rest = _BLANKS.match(src, m.end()).end()
    if rest < len(src):
        cls = (UnsupportedConstructError if _is_name(_WORD.match(src, rest)[0])
               else QasmSyntaxError)
        raise _error(cls, "statement after measurement", src, rest)
    return circuit.measure()
