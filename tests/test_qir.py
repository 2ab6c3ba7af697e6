import random
from pathlib import Path

import pytest

from qoffload.circuit import bell_circuit, create_circuit
from qoffload.qir import emit_qir, _double

from oracles import (QirShapeError, check_qir_shape, parse_qir_calls,
                     random_circuit)

GOLDEN_BELL_LL = (Path(__file__).parent / "golden" / "bell.ll").read_text()

BELL_PREFIXES = [
    "define void @main() #0 {",
    "entry:",
    "call void @__quantum__qis__h__body(",
    "call void @__quantum__qis__cnot__body(",
    "call void @__quantum__qis__mz__body(",
    "ret void",
]


class TestEmit:
    def test_bell_prefixes_in_order(self):
        text = emit_qir(bell_circuit())
        pos = 0
        for prefix in BELL_PREFIXES:
            found = text.find(prefix, pos)
            assert found >= 0, f"missing {prefix!r} after offset {pos}"
            pos = found + len(prefix)

    def test_bell_golden(self):
        assert emit_qir(bell_circuit()) == GOLDEN_BELL_LL

    def test_empty_circuit_only_mz(self):
        text = emit_qir(create_circuit(1).measure())
        body = text.split("entry:\n")[1].split("  ret void")[0]
        calls = [ln for ln in body.splitlines() if ln.strip()]
        assert len(calls) == 1
        assert calls[0].startswith("  call void @__quantum__qis__mz__body(")

    def test_rx_operand_rendering(self):
        c = create_circuit(2).rx(1, 0.25).measure()
        assert ("call void @__quantum__qis__rx__body(double 2.5e-1, "
                "%Qubit* inttoptr (i64 1 to %Qubit*))") in emit_qir(c)

    def test_qubit_zero_is_null(self):
        text = emit_qir(create_circuit(1).h(0).measure())
        assert "call void @__quantum__qis__h__body(%Qubit* null)" in text

    def test_attributes_line(self):
        assert 'attributes #0 = { "entry_point" }' in emit_qir(bell_circuit())

    def test_unfinalized_rejected(self):
        with pytest.raises(ValueError):
            emit_qir(create_circuit(1).h(0))


class TestDoubleFormat:
    @pytest.mark.parametrize("value,expected", [
        (0.25, "2.5e-1"),
        (1.0, "1e0"),
        (-0.5, "-5e-1"),
        (3.141592653589793, "3.141592653589793e0"),
        (1e-10, "1e-10"),
        (12.5, "1.25e1"),
        (0.0, "0e0"),
    ])
    def test_values(self, value, expected):
        assert _double(value) == expected

    def test_round_trips(self):
        rng = random.Random(2)
        for _ in range(200):
            x = rng.uniform(-100, 100)
            assert float(_double(x)) == x


class TestShapeChecker:
    def test_call_counts(self):
        rng = random.Random(9)
        for _ in range(30):
            c = random_circuit(rng, rng.randint(1, 4), rng.randint(0, 15))
            calls = parse_qir_calls(emit_qir(c))
            gate_calls = [x for x in calls if x.op != "mz"]
            mz_calls = [x for x in calls if x.op == "mz"]
            assert len(gate_calls) == len(c.gates)
            assert len(mz_calls) == c.num_qubits

    def test_check_passes_for_emitted(self):
        rng = random.Random(10)
        for _ in range(20):
            c = random_circuit(rng, rng.randint(1, 4), rng.randint(0, 15))
            check_qir_shape(emit_qir(c), c)

    def test_detects_missing_define(self):
        with pytest.raises(QirShapeError, match="define"):
            parse_qir_calls("entry:\n  ret void\n}")

    def test_detects_dropped_call(self):
        c = bell_circuit()
        text = emit_qir(c)
        mutated = "\n".join(ln for ln in text.split("\n")
                            if "cnot" not in ln)
        with pytest.raises(QirShapeError):
            check_qir_shape(mutated, c)

    def test_detects_malformed_operand(self):
        text = emit_qir(bell_circuit()).replace("%Qubit* null", "%Qubit* 0", 1)
        with pytest.raises(QirShapeError):
            parse_qir_calls(text)

    def test_detects_missing_ret(self):
        text = emit_qir(bell_circuit()).replace("  ret void\n", "")
        with pytest.raises(QirShapeError):
            parse_qir_calls(text)
