import math
import random
import time
from pathlib import Path

import pytest

from qoffload.circuit import Gate, GateKind, bell_circuit, create_circuit
from qoffload.qasm import (
    QasmError,
    QasmSyntaxError,
    UnsupportedConstructError,
    emit_qasm,
    parse_qasm,
)

from oracles import random_circuit

GOLDEN_BELL = (Path(__file__).parent / "golden" / "bell.qasm").read_text()
# Everything after the version line that a two-qubit program declares.
HEADER = 'include "qelib1.inc";\nqreg q[2];\ncreg c[2];\n'


class TestEmit:
    def test_bell_byte_exact(self):
        assert emit_qasm(bell_circuit()) == GOLDEN_BELL

    def test_empty_circuit(self):
        out = emit_qasm(create_circuit(1).measure())
        assert out == ('OPENQASM 2.0;\ninclude "qelib1.inc";\n'
                       "qreg q[1];\ncreg c[1];\nmeasure q -> c;\n")

    def test_rz_line(self):
        c = create_circuit(3).rz(1, 0.5).measure()
        assert "rz(0.5) q[1];" in emit_qasm(c).split("\n")

    def test_unfinalized_rejected(self):
        with pytest.raises(ValueError):
            emit_qasm(create_circuit(1).h(0))

    def test_all_mnemonics(self):
        c = (create_circuit(3).h(0).x(1).y(2).z(0).s(1).sdg(2).t(0).tdg(1)
             .rx(0, 0.1).ry(1, 0.2).rz(2, 0.3).cx(0, 1).cz(1, 2).swap(0, 2)
             .measure())
        lines = emit_qasm(c).split("\n")
        assert "sdg q[2];" in lines
        assert "rx(0.1) q[0];" in lines
        assert "cx q[0],q[1];" in lines
        assert "swap q[0],q[2];" in lines


class TestParse:
    def test_bell_listing(self):
        c = parse_qasm(GOLDEN_BELL)
        assert c.num_qubits == 2
        assert c.gates == [Gate(GateKind.H, (0,)), Gate(GateKind.CX, (0, 1))]
        assert c.measured

    def test_empty_program(self):
        text = ('OPENQASM 2.0;\ninclude "qelib1.inc";\n'
                "qreg q[1];\ncreg c[1];\nmeasure q -> c;\n")
        c = parse_qasm(text)
        assert c.num_qubits == 1 and c.gates == [] and c.measured

    def test_pi_expressions(self):
        text = ('OPENQASM 2.0;\ninclude "qelib1.inc";\n'
                "qreg q[2];\ncreg c[2];\n"
                "rx(pi/2) q[0];\nry(2*pi) q[1];\nrz(-pi/4) q[0];\n"
                "rx(3*pi/2) q[1];\nry(pi) q[0];\nrz(0.25) q[1];\n"
                "measure q -> c;\n")
        c = parse_qasm(text)
        params = [g.param for g in c.gates]
        expected = [math.pi / 2, 2 * math.pi, -math.pi / 4,
                    3 * math.pi / 2, math.pi, 0.25]
        for got, want in zip(params, expected):
            assert abs(got - want) < 1e-15

    def test_renames_to_canonical_registers(self):
        text = ('OPENQASM 2.0;\ninclude "qelib1.inc";\n'
                "qreg reg[2];\ncreg bits[2];\nh reg[0];\nmeasure reg -> bits;\n")
        c = parse_qasm(text)
        assert "h q[0];" in emit_qasm(c)

    def test_size_mismatch(self):
        text = ('OPENQASM 2.0;\ninclude "qelib1.inc";\n'
                "qreg q[2];\ncreg c[3];\nmeasure q -> c;\n")
        with pytest.raises(QasmSyntaxError, match="does not match"):
            parse_qasm(text)

    def test_index_out_of_declared_range(self):
        text = ('OPENQASM 2.0;\ninclude "qelib1.inc";\n'
                "qreg q[2];\ncreg c[2];\nh q[4];\nmeasure q -> c;\n")
        with pytest.raises(QasmSyntaxError, match="out of range") as exc:
            parse_qasm(text)
        assert exc.value.line == 5

    @pytest.mark.parametrize("stmt,name", [
        ("barrier q;", "barrier"),
        ("if (c==1) x q[0];", "if"),
        ("opaque foo q;", "opaque"),
        ("reset q[0];", "reset"),
        ("gate mygate a { h a; }", "gate"),
    ])
    def test_unsupported_constructs_named(self, stmt, name):
        text = ('OPENQASM 2.0;\ninclude "qelib1.inc";\n'
                f"qreg q[2];\ncreg c[2];\n{stmt}\nmeasure q -> c;\n")
        with pytest.raises(UnsupportedConstructError, match=name):
            parse_qasm(text)

    def test_per_qubit_measure_unsupported(self):
        text = ('OPENQASM 2.0;\ninclude "qelib1.inc";\n'
                "qreg q[2];\ncreg c[2];\nmeasure q[0] -> c[0];\n")
        with pytest.raises(UnsupportedConstructError, match="per-qubit"):
            parse_qasm(text)

    def test_qasm3_version_rejected(self):
        with pytest.raises(UnsupportedConstructError, match="version"):
            parse_qasm("OPENQASM 3.0;\n")

    def test_error_positions_reported(self):
        with pytest.raises(QasmError) as exc:
            parse_qasm('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2]\ncreg c[2];\n')
        assert exc.value.line >= 3

    @pytest.mark.parametrize("body", [
        "qreg q[2];\ncreg c[2];\nry(1e999) q[0];\nmeasure q -> c;\n",
        "qreg q[2];\ncreg c[2];\nrx(1e308*10) q[0];\nmeasure q -> c;\n",
        "qreg q[25];\ncreg c[25];\nmeasure q -> c;\n",
        "qreg q[2];\ncreg c[2];\ncx q[1],q[1];\nmeasure q -> c;\n",
        "qreg q[2];\ncreg c[2];\nh q[" + "0" * 5000 + "];\nmeasure q -> c;\n",
    ], ids=["inf-literal", "inf-product", "over-ir-bound", "same-targets",
            "5000-digit-index"])
    def test_circuit_faults_are_positioned_qasm_errors(self, body):
        with pytest.raises(QasmError) as exc:
            parse_qasm('OPENQASM 2.0;\ninclude "qelib1.inc";\n' + body)
        assert exc.value.line >= 1 and exc.value.col >= 1

    @pytest.mark.parametrize("body, cls, message, line, col", [
        ('include "other.inc";\n', UnsupportedConstructError,
         "unsupported include 'other.inc'", 2, 10),
        ('include "qelib1.inc";\nbarrier q;\n', UnsupportedConstructError,
         "unsupported construct 'barrier'", 3, 1),
        ('include "qelib1.inc";\nqreg 1q[2];\n', QasmSyntaxError,
         "invalid register name '1q'", 3, 6),
        (f"{HEADER}h r[0];\nmeasure q -> c;\n", QasmSyntaxError,
         "unknown register 'r'", 5, 3),
        (f"{HEADER}rz(pi/0) q[0];\nmeasure q -> c;\n", QasmSyntaxError,
         "division by zero", 5, 4),
        (f"{HEADER}measure q -> d;\n", QasmSyntaxError,
         "unknown register 'd'", 5, 14),
    ], ids=["include", "keyword-in-header", "register-name",
            "gate-register", "division-by-zero", "measure-register"])
    def test_rejected_at_line_and_column(self, body, cls, message, line, col):
        with pytest.raises(cls, match=message) as exc:
            parse_qasm("OPENQASM 2.0;\n" + body)
        assert (exc.value.line, exc.value.col) == (line, col)


PI_PROGRAM = ('OPENQASM 2.0;\ninclude "qelib1.inc";\n'
              "qreg q[2];\ncreg c[2];\nrx(pi/2) q[0];\nry(-3*pi/4) q[1];\n"
              "rz(0.5/pi) q[0];\ncx q[0],q[1];\nmeasure q -> c;\n")


class TestAcceptedLanguage:
    """Blanks and comments may stand between any two tokens."""

    @pytest.mark.parametrize("program", [GOLDEN_BELL, PI_PROGRAM],
                             ids=["bell", "pi"])
    @pytest.mark.parametrize("respell", [
        lambda t: t.replace(" ", " // note; \"x\"\n  "),
        lambda t: t.replace("q[", "q\n[").replace(",", "\n,"),
        lambda t: t.replace(") q[", ")q[").replace(" -> ", "->"),
        lambda t: t.replace("[", " [ ").replace("]", " ] ").replace("(", "( "),
        lambda t: t.replace("\n", " "),
        lambda t: t.replace("\n", "\r\n\t"),
    ], ids=["comments", "newline-in-statement", "no-optional-spaces",
            "spaced-brackets", "one-line", "crlf-tabs"])
    def test_respelled_program_parses_equal(self, program, respell):
        text = respell(program)
        assert text != program
        assert parse_qasm(text) == parse_qasm(program)

    @pytest.mark.parametrize("stmt,cls", [
        ("hq[0];", UnsupportedConstructError),
        ("tdgq[0];", UnsupportedConstructError),
        ("h q[0]", QasmSyntaxError),
        ("measure q -> c;\nh q[0];", UnsupportedConstructError),
    ], ids=["hq", "tdgq", "no-semicolon", "after-measure"])
    def test_rejected_with_error_class(self, stmt, cls):
        text = ('OPENQASM 2.0;\ninclude "qelib1.inc";\n'
                f"qreg q[2];\ncreg c[2];\n{stmt}\nmeasure q -> c;\n")
        with pytest.raises(cls):
            parse_qasm(text)

    @pytest.mark.parametrize("tail", [
        lambda n: "h" + " " * n,
        lambda n: "h" + " " * n + ";",
        lambda n: "rx" + "(" * n,
        lambda n: "rx(" + " " * n,
        lambda n: "rx(-" + " " * n,
        lambda n: "rx(pi" + " " * n + "*",
        lambda n: "rx(" + "pi*" * (n // 3),
        lambda n: "rx(" + "1" * n + "*",
        lambda n: "h q[" + "0" * n,
        lambda n: "h " + "q" * n,
        lambda n: "// " + "/" * n,
        lambda n: '"' * n,
    ], ids=["blanks", "blanks-semicolon", "parens", "paren-blanks",
            "minus-blanks", "factor-blanks", "products", "digits", "index",
            "name", "comment", "quotes"])
    def test_parse_time_linear_in_statement_length(self, tail):
        # Texts from clients reach the server's parser, so no statement may
        # make a pattern backtrack more than linearly in its length.
        def parse_rejected(text):
            with pytest.raises(QasmError):
                parse_qasm(text)

        assert _parse_time_ratio(tail, parse_rejected) < 8

    @pytest.mark.parametrize("tail", [
        lambda n: "rx(pi" + " " * n + "*pi) q[0];",
        lambda n: "rx(" + " " * n + "pi) q[0];",
        lambda n: "rx(-" + " " * n + "pi) q[0];",
        lambda n: "cx q[0]" + " " * n + ",q[1];",
    ], ids=["factor-blanks", "paren-blanks", "minus-blanks", "operand-blanks"])
    def test_accepted_parse_time_linear_in_statement_length(self, tail):
        def parse_accepted(text):
            assert len(parse_qasm(text + "\nmeasure q -> c;\n").gates) == 1

        assert _parse_time_ratio(tail, parse_accepted) < 8


def _parse_time_ratio(tail, parse, reps=5):
    """Best time of `parse` on a statement 2^18 long over one 2^16 long."""
    def best_time(n):
        text = ('OPENQASM 2.0;\ninclude "qelib1.inc";\n'
                "qreg q[2];\ncreg c[2];\n" + tail(n))
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            parse(text)
            times.append(time.perf_counter() - t0)
        return min(times)

    return best_time(2**18) / best_time(2**16)


class TestRoundTrip:
    def test_random_circuits(self):
        rng = random.Random(1337)
        for _ in range(200):
            c = random_circuit(rng, rng.randint(1, 5), rng.randint(0, 25))
            back = parse_qasm(emit_qasm(c))
            assert back.num_qubits == c.num_qubits
            assert back.measured
            assert len(back.gates) == len(c.gates)
            for got, want in zip(back.gates, c.gates):
                assert got.kind == want.kind and got.targets == want.targets
                if want.param is not None:
                    assert abs(got.param - want.param) < 1e-12

    def test_canonical_reserialization_fixed_point(self):
        text = ('OPENQASM 2.0;\ninclude "qelib1.inc";\n'
                "qreg r[2];\ncreg k[2];\nrx(pi/2) r[0];\ncx r[0],r[1];\n"
                "measure r -> k;\n")
        canonical = emit_qasm(parse_qasm(text))
        assert emit_qasm(parse_qasm(canonical)) == canonical


def _tokens_of(text):
    # crude whitespace-and-punctuation split good enough for mutation fuzzing
    import re
    return re.findall(r'"[^"]*"|->|[A-Za-z_][A-Za-z0-9_.]*|\d+\.\d+|\d+|[;\[\](),]',
                      text)


class TestMutationFuzz:
    def test_single_token_deletions_always_positioned_errors(self):
        tokens = _tokens_of(GOLDEN_BELL)
        assert len(tokens) > 20
        for i in range(len(tokens)):
            mutated = " ".join(tokens[:i] + tokens[i + 1:])
            try:
                parse_qasm(mutated)
            except QasmError as exc:
                assert exc.line >= 1 and exc.col >= 1
            # a deletion that still parses (none for the Bell program) is fine;
            # the requirement is no uncontrolled crash

    def test_truncations_never_crash(self):
        for i in range(len(GOLDEN_BELL)):
            try:
                parse_qasm(GOLDEN_BELL[:i])
            except QasmError:
                pass


def _error_of(text, memo=None):
    with pytest.raises(QasmError) as exc:
        parse_qasm(text, memo)
    return type(exc.value), str(exc.value), exc.value.line, exc.value.col


def _program(qreg, size, *lines):
    """A program on `qreg[size]` whose gate statements are `lines`."""
    return (f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg {qreg}[{size}];\n'
            f"creg c[{size}];\n" + "".join(f"{line}\n" for line in lines)
            + f"measure {qreg} -> c;\n")


class TestStatementMemo:
    """`parse_qasm(text, memo)` parses each gate statement that texts share
    once, and parses what it cannot reuse as without a memo."""

    def test_shared_statements_parse_once_to_equal_circuits(self):
        rng = random.Random(77)
        body = random_circuit(rng, 4, 12, measured=False)
        texts = []
        for _ in range(6):
            circuit = body.copy()
            for gate in random_circuit(rng, 4, 3, measured=False).gates:
                circuit.apply(gate)
            texts.append(emit_qasm(circuit.measure()))
        memo = {}
        parsed = [parse_qasm(text, memo) for text in texts]
        assert parsed == [parse_qasm(text) for text in texts]
        # One entry per distinct gate line, and one `Gate` object for each.
        lines = {line for text in texts for line in text.splitlines()
                 if not line.startswith(("OPENQASM", "include", "qreg",
                                         "creg", "measure"))}
        assert len(memo) == len(lines)
        for circuit in parsed[1:]:
            assert all(a is b
                       for a, b in zip(circuit.gates, parsed[0].gates[:12]))

    @pytest.mark.parametrize("bad", [
        "h q[4];",
        "cx q[1],q[1];",
        "ry(1/0) q[0];",
        "h r[0];",
        "ry(0.5)q[0]x;",
        "u q[0];",
    ], ids=["index", "same-targets", "division", "register", "malformed",
            "unsupported"])
    def test_error_after_a_filled_memo_is_the_error_alone(self, bad):
        shared = ("h q[0];", "ry(0.5) q[1];", "cx q[0],q[1];")
        memo = {}
        parse_qasm(_program("q", 4, *shared), memo)
        parse_qasm(_program("q", 4, *reversed(shared)), memo)
        filled = dict(memo)
        text = _program("q", 4, *shared, bad, "x q[2];")
        assert _error_of(text, memo) == _error_of(text)
        assert memo == filled  # only statements that parsed are stored

    @pytest.mark.parametrize("qreg, size, message", [
        ("q", 2, "qubit index 3 out of range for q[2] at line 5, column 5"),
        ("r", 4, "unknown register 'q' at line 5, column 3"),
    ], ids=["another-size", "another-name"])
    def test_statement_of_another_register_is_not_reused(self, qreg, size,
                                                         message):
        memo = {}
        parse_qasm(_program("q", 4, "h q[3];"), memo)
        text = _program(qreg, size, "h q[3];")
        assert _error_of(text, memo) == _error_of(text)
        assert _error_of(text, memo)[1] == message
