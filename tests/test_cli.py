import json
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from qoffload.cli import _parse_endpoint, main
from qoffload.resman import ResmanClient, serve
from qoffload.vqe import VqeReport

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture
def h2min_file(tmp_path):
    path = tmp_path / "h2min.txt"
    path.write_text("# 2-qubit test Hamiltonian\n-1.0 ZZ\n0.5 XI\n0.5 IX\n")
    return str(path)


class TestBell:
    def test_counts_printed(self, capsys):
        assert main(["bell", "--shots", "1000", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "outcome count"
        counts = {ln.split()[0]: int(ln.split()[1]) for ln in lines[1:5]}
        assert counts["01"] == 0 and counts["10"] == 0
        assert counts["00"] + counts["11"] == 1000

    def test_single_shot(self, capsys):
        assert main(["bell", "--shots", "1", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        values = [int(ln.split()[1]) for ln in out.strip().split("\n")[1:5]]
        assert sorted(values) == [0, 0, 0, 1]

    def test_stdout_reproducible(self, capsys):
        main(["bell", "--shots", "500", "--seed", "13"])
        first = capsys.readouterr().out
        main(["bell", "--shots", "500", "--seed", "13"])
        second = capsys.readouterr().out
        assert first == second

    def test_json_round_trips(self, capsys):
        assert main(["bell", "--shots", "100", "--seed", "5", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert sum(doc["counts"]) == 100
        assert doc["seed"] == 5

    def test_unreachable_endpoint_exit_2(self, capsys):
        rc = main(["bell", "--device", "qpu", "--endpoint", "127.0.0.1:1"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("latency_ms", ["-5", "nan", "inf", "1e13"])
    def test_bad_latency_exit_3(self, capsys, latency_ms):
        assert main(["bell", "--shots", "1", "--latency-ms", latency_ms]) == 3
        assert capsys.readouterr().err == (
            "error: latency must be from 0 to 3600 seconds\n")

    @pytest.mark.parametrize("shots", ["0", "-3"])
    def test_shots_below_one_exit_3(self, capsys, shots):
        assert main(["bell", "--shots", shots]) == 3
        assert capsys.readouterr().err == (
            "error: shots must be an integer >= 1\n")

    @pytest.mark.parametrize("device", [[], ["--latency-ms", "0"]],
                             ids=["sim", "qpu"])
    @pytest.mark.parametrize("from_env", [False, True], ids=["flag", "env"])
    def test_negative_seed_exit_3(self, capsys, monkeypatch, device,
                                  from_env):
        argv = ["bell", "--shots", "10", *device]
        if from_env:
            monkeypatch.setenv("QOFFLOAD_SEED", "-1")
        else:
            argv += ["--seed", "-1"]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "error: seed must be an integer from 0 to 2**64 - 1\n")

    @pytest.mark.parametrize("device", [[], ["--latency-ms", "0"]],
                             ids=["sim", "qpu"])
    def test_seed_of_2_to_the_64_exit_3(self, capsys, device):
        argv = ["bell", "--shots", "10", "--seed", str(2 ** 64), *device]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "error: seed must be an integer from 0 to 2**64 - 1\n")

    def test_seed_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("QOFFLOAD_SEED", "13")
        main(["bell", "--shots", "500"])
        from_env = capsys.readouterr().out
        monkeypatch.delenv("QOFFLOAD_SEED")
        main(["bell", "--shots", "500", "--seed", "13"])
        assert capsys.readouterr().out == from_env


class TestTranspile:
    def test_builtin_bell_qasm_golden(self, capsys):
        assert main(["transpile", "--builtin", "bell", "--to", "qasm"]) == 0
        assert capsys.readouterr().out == (GOLDEN_DIR / "bell.qasm").read_text()

    def test_builtin_bell_qir_prefixes(self, capsys):
        assert main(["transpile", "--builtin", "bell", "--to", "qir"]) == 0
        out = capsys.readouterr().out
        pos = 0
        for prefix in ["define void @main() #0 {", "entry:",
                       "__quantum__qis__h__body(",
                       "__quantum__qis__cnot__body(",
                       "__quantum__qis__mz__body(", "ret void"]:
            pos = out.index(prefix, pos) + len(prefix)

    def test_file_roundtrip_with_check(self, tmp_path, capsys):
        src = tmp_path / "in.qasm"
        src.write_text((GOLDEN_DIR / "bell.qasm").read_text())
        out_file = tmp_path / "out.qasm"
        rc = main(["transpile", str(src), "--to", "qasm", "--check",
                   "-o", str(out_file)])
        assert rc == 0
        assert out_file.read_text() == (GOLDEN_DIR / "bell.qasm").read_text()

    def test_ghz3_builtin(self, capsys):
        assert main(["transpile", "--builtin", "ghz3", "--to", "qasm"]) == 0
        out = capsys.readouterr().out
        assert "qreg q[3];" in out and "cx q[1],q[2];" in out

    def test_parse_error_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.qasm"
        bad.write_text("OPENQASM 2.0;\nqreg q[2;\n")
        rc = main(["transpile", str(bad), "--to", "qir"])
        assert rc == 3
        assert "line" in capsys.readouterr().err

    def test_missing_input_exit_3(self, capsys):
        assert main(["transpile", "--to", "qasm"]) == 3

    def test_undecodable_input_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.qasm"
        bad.write_bytes(b"\xff\xfe")
        assert main(["transpile", str(bad), "--to", "qasm"]) == 3
        assert "cannot read" in capsys.readouterr().err

    def test_unwritable_output_exit_3(self, tmp_path, capsys):
        out_file = tmp_path / "missing" / "out.qasm"
        rc = main(["transpile", "--builtin", "bell", "--to", "qasm",
                   "-o", str(out_file)])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot write" in captured.err


class TestVqe:
    def test_exact_mode_energy(self, h2min_file, capsys):
        rc = main(["vqe", h2min_file, "--shots", "0", "--layers", "2",
                   "--max-iters", "400", "--tol", "1e-12"])
        assert rc == 0
        out = capsys.readouterr().out
        energy = float(out.split("\n")[0].split()[1])
        assert abs(energy - (-1.4142135623730951)) < 1e-4

    def test_single_z(self, tmp_path, capsys):
        path = tmp_path / "z.txt"
        path.write_text("1.0 Z\n")
        rc = main(["vqe", str(path), "--shots", "0", "--layers", "1",
                   "--max-iters", "200", "--tol", "1e-12"])
        assert rc == 0
        energy = float(capsys.readouterr().out.split("\n")[0].split()[1])
        assert abs(energy - (-1.0)) < 1e-6

    def test_json_round_trips(self, h2min_file, capsys):
        rc = main(["vqe", h2min_file, "--shots", "0", "--layers", "1",
                   "--max-iters", "50", "--json"])
        assert rc == 0
        report = VqeReport(**json.loads(capsys.readouterr().out))
        assert report.iterations <= 50

    def test_bad_hamiltonian_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 QQ\n")
        assert main(["vqe", str(path)]) == 3

    def test_missing_file_exit_3(self, capsys):
        assert main(["vqe", "/nonexistent/h.txt"]) == 3

    def test_undecodable_file_exit_3(self, tmp_path, capsys):
        path = tmp_path / "h.txt"
        path.write_bytes(b"\xff\xfe")
        assert main(["vqe", str(path)]) == 3
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--layers", "0"], "--layers must be >= 1"),
        (["--layers", "-1"], "--layers must be >= 1"),
        (["--theta0", "nan"], "initial theta must be finite"),
        (["--theta0", "inf"], "initial theta must be finite"),
        (["--theta0=-inf", "--latency-ms", "0", "--shots", "8"],
         "initial theta must be finite"),
        (["--shots", "-5"], "shots must be >= 0"),
        (["--shots", "-5", "--latency-ms", "0"], "shots must be >= 0"),
        (["--max-iters", "-1"], "max_iterations must be >= 0"),
        (["--tol", "nan"], "tolerance must not be NaN"),
        (["--max-iters", "-1", "--tol", "nan", "--latency-ms", "0",
          "--shots", "8"], "max_iterations must be >= 0"),
    ])
    def test_bad_flag_exit_3(self, h2min_file, capsys, flags, message):
        assert main(["vqe", h2min_file, *flags]) == 3
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("num_qubits", [25, 30])
    @pytest.mark.parametrize("shots", ["0", "100"])
    def test_register_over_bound_exit_3(self, tmp_path, capsys, num_qubits,
                                        shots):
        path = tmp_path / "big.txt"
        path.write_text(f"1.0 {'Z' * num_qubits}\n")
        assert main(["vqe", str(path), "--shots", shots]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: num_qubits must be in [1, 24], "
                                f"got {num_qubits}\n")

    def test_latency_increases_wall_time(self, h2min_file, capsys):
        times = []
        for latency in ("0", "20"):
            rc = main(["vqe", h2min_file, "--shots", "32", "--layers", "1",
                       "--max-iters", "3", "--tol", "0", "--seed", "1",
                       "--latency-ms", latency, "--json"])
            assert rc == 0
            doc = json.loads(capsys.readouterr().out)
            times.append(doc["total_wall_time"])
        assert times[1] > times[0]

    def test_remote_device_matches_protocol(self, h2min_file, capsys):
        srv = serve()
        try:
            endpoint = f"{srv.address[0]}:{srv.address[1]}"
            rc = main(["vqe", h2min_file, "--shots", "256", "--layers", "1",
                       "--max-iters", "5", "--seed", "3",
                       "--device", "qpu", "--endpoint", endpoint, "--json"])
            assert rc == 0
            doc = json.loads(capsys.readouterr().out)
            assert len(doc["energy_trace"]) > 0
        finally:
            srv.shutdown()


class TestCommandLine:
    @pytest.mark.parametrize("argv", [
        ["vqe", "H", "--shots", "abc"],
        ["vqe", "H", "--theta0", "-inf"],
        ["bell", "--bogus"],
        [],
    ], ids=["non-int-shots", "flag-like-value", "unknown-flag",
            "no-subcommand"])
    def test_malformed_command_line_exit_3(self, capsys, argv):
        # argparse would exit 2, the code for a device failure.
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "usage" not in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [["--help"], ["bell", "--help"]])
    def test_help_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["bell", "--device", "qpu", "--endpoint", "127.0.0.1:70000"],
        ["bell", "--device", "qpu", "--endpoint", "127.0.0.1:65536"],
        ["bell", "--device", "qpu", "--endpoint", "127.0.0.1:\u00b2"],
        ["bell", "--device", "qpu", "--endpoint", "127.0.0.1:" + "9" * 5000],
        ["serve", "--bind", "127.0.0.1:70000"],
    ], ids=["endpoint-70000", "endpoint-65536", "superscript-digit",
            "5000-digit-port", "bind-70000"])
    def test_port_out_of_range_exit_3(self, capsys, argv):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: endpoint must be host:port")
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, endpoint", [
        ("127.0.0.1:0", ("127.0.0.1", 0)),
        ("localhost:65535", ("localhost", 65535)),
        ("host:07117", ("host", 7117)),
    ])
    def test_port_in_range_accepted(self, text, endpoint):
        assert _parse_endpoint(text) == endpoint

    def test_malformed_seed_env_var_exit_3(self, capsys, monkeypatch):
        monkeypatch.setenv("QOFFLOAD_SEED", "abc")
        assert main(["bell", "--shots", "10"]) == 3
        assert capsys.readouterr().err.startswith("error: QOFFLOAD_SEED")


class TestServe:
    def _spawn(self, *extra):
        proc = subprocess.Popen(
            [sys.executable, "-m", "qoffload.cli", "serve",
             "--bind", "127.0.0.1:0", *extra],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline().strip()
        host, port = line.rsplit(" ", 1)[1].rsplit(":", 1)
        return proc, (host, int(port))

    def test_serve_ping_and_clean_shutdown(self):
        proc, address = self._spawn()
        try:
            with ResmanClient(address) as client:
                client.ping()
        finally:
            proc.send_signal(signal.SIGINT)
            proc.communicate(timeout=10)  # waits and closes the pipes
            assert proc.returncode == 0

    def test_serve_latency_round_trip(self):
        from qoffload.circuit import bell_circuit
        from qoffload.resman import client_submit

        proc, address = self._spawn("--latency-ms", "50")
        try:
            result = client_submit(address, bell_circuit(), 50, 1)
            assert result.wall_time >= 0.05  # one request, one 50 ms leg
        finally:
            proc.send_signal(signal.SIGINT)
            proc.communicate(timeout=10)

    def test_bind_in_use_exit_4(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        sock.listen()
        port = sock.getsockname()[1]
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "qoffload.cli", "serve",
                 "--bind", f"127.0.0.1:{port}"],
                capture_output=True, text=True, timeout=20,
            )
            assert proc.returncode == 4
            assert "bind error" in proc.stderr
        finally:
            sock.close()

    @pytest.mark.parametrize("flags, message", [
        (["--capacity", "0"], "capacity must be from 1 to 24"),
        (["--capacity", "25"], "capacity must be from 1 to 24"),
        (["--latency-ms", "-5"], "latency must be from 0 to 3600 seconds"),
        (["--latency-ms", "nan"], "latency must be from 0 to 3600 seconds"),
        (["--latency-ms", "inf"], "latency must be from 0 to 3600 seconds"),
    ])
    def test_bad_flag_exit_3(self, flags, message):
        proc = subprocess.run(
            [sys.executable, "-m", "qoffload.cli", "serve",
             "--bind", "127.0.0.1:0", *flags],
            capture_output=True, text=True, timeout=20,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""  # exited before `listening on`
        assert proc.stderr == f"error: {message}\n"
