"""Command-line interface.

Subcommands: bell (run the builtin Bell program), transpile (QASM/QIR
emission), serve (resource-manager service), vqe (variational eigensolver).
Exit codes: 0 success, 2 device/connection failure, 3 parse/input failure,
4 server lifecycle failure. Timing goes to stderr so stdout is reproducible
for a fixed seed.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading

from . import resman, vqe as vqe_mod
from .circuit import Circuit, bell_circuit, ghz3_circuit
from .qasm import QasmError, emit_qasm, parse_qasm
from .qir import emit_qir
from .runtime import (
    Device,
    DeviceKind,
    DeviceRegistry,
    RuntimeError_,
)

EXIT_OK = 0
EXIT_DEVICE = 2
EXIT_INPUT = 3
EXIT_SERVER = 4

_BUILTINS = {"bell": bell_circuit, "ghz3": ghz3_circuit}


class CliError(Exception):
    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as an input failure (exit 3);
    argparse's own exit 2 is the code for a device failure."""

    def error(self, message: str):
        raise CliError(message, EXIT_INPUT)


def _parse_endpoint(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not (sep and port.isascii() and port.isdigit() and len(port) <= 5
            and int(port) <= 65535):
        raise CliError(f"endpoint must be host:port with a port from 0 to "
                       f"65535, got {text!r}", EXIT_INPUT)
    return host, int(port)


def _env_default(args, attr: str, env: str, convert=str) -> None:
    # Flags win over environment variables.
    if getattr(args, attr, None) is None and os.environ.get(env):
        try:
            setattr(args, attr, convert(os.environ[env]))
        except ValueError as exc:
            raise CliError(f"{env}: {exc}", EXIT_INPUT)


def _make_registry(args) -> tuple[DeviceRegistry, str, object | None]:
    """Registry with the selected device; returns (registry, name, server)
    where server is a CLI-owned in-process resource manager, if any."""
    registry = DeviceRegistry()
    server = None
    if args.device == "sim":
        registry.register(Device("sim", DeviceKind.LOCAL_SIMULATOR))
        return registry, "sim", None
    latency_ms = getattr(args, "latency_ms", None)
    if latency_ms is not None:
        # Spin up a local service with the requested injected latency and
        # route jobs through the real wire protocol.
        try:
            server = resman.serve(latency=latency_ms / 1000.0)
        except ValueError as exc:
            raise CliError(str(exc), EXIT_INPUT)
        endpoint = server.address
    else:
        if args.endpoint is None:
            raise CliError("--device qpu requires --endpoint (or QOFFLOAD_ENDPOINT)",
                           EXIT_INPUT)
        endpoint = _parse_endpoint(args.endpoint)
    registry.register(Device("qpu", DeviceKind.REMOTE, endpoint=endpoint))
    return registry, "qpu", server


def _histogram_lines(counts, shots) -> list[str]:
    n = len(counts).bit_length() - 1
    lines = ["outcome count"]
    for k, c in enumerate(counts):
        lines.append(f"{format(k, f'0{n}b')} {c}")
    lines.append(f"total {shots}")
    return lines


def cmd_bell(args) -> int:
    if args.shots < 1:
        raise CliError("--shots must be >= 1", EXIT_INPUT)
    registry, name, server = _make_registry(args)
    try:
        result = registry.submit_sync(name, bell_circuit(), args.shots, args.seed)
    except (RuntimeError_, OSError) as exc:
        raise CliError(f"device error: {exc}", EXIT_DEVICE)
    finally:
        registry.shutdown()
        if server is not None:
            server.shutdown()
    if args.json:
        print(json.dumps({
            "device": name,
            "shots": args.shots,
            "seed": args.seed,
            "counts": list(result.histogram.counts),
        }))
    else:
        print("\n".join(_histogram_lines(result.histogram.counts, args.shots)))
    print(f"wall_time_s {result.wall_time:.6f}", file=sys.stderr)
    return EXIT_OK


def _load_input_circuit(args) -> Circuit:
    if args.builtin is not None:
        if args.input is not None:
            raise CliError("give either an input file or --builtin, not both",
                           EXIT_INPUT)
        return _BUILTINS[args.builtin]()
    if args.input is None:
        raise CliError("missing input: give a .qasm file or --builtin", EXIT_INPUT)
    try:
        with open(args.input, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise CliError(f"cannot read {args.input}: {exc}", EXIT_INPUT)
    try:
        return parse_qasm(text)
    except QasmError as exc:
        raise CliError(f"parse error: {exc}", EXIT_INPUT)


def cmd_transpile(args) -> int:
    circuit = _load_input_circuit(args)
    output = emit_qasm(circuit) if args.to == "qasm" else emit_qir(circuit)
    if args.to == "qasm" and args.check:
        if parse_qasm(output) != circuit:
            raise CliError("round-trip check failed", EXIT_INPUT)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as f:
            f.write(output)
    else:
        sys.stdout.write(output)
    return EXIT_OK


def cmd_serve(args) -> int:
    host, port = _parse_endpoint(args.bind)
    try:
        server = resman.serve(host, port,
                              capacity=args.capacity,
                              latency=args.latency_ms / 1000.0,
                              result_ttl=args.ttl_s)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_INPUT)
    except OSError as exc:
        raise CliError(f"bind error on {args.bind}: {exc}", EXIT_SERVER)
    stop = threading.Event()
    # Installed before the address is printed: a client may signal as soon
    # as it has read it.
    signal.signal(signal.SIGINT, lambda *a: stop.set())
    signal.signal(signal.SIGTERM, lambda *a: stop.set())
    print(f"listening on {server.address[0]}:{server.address[1]}", flush=True)
    stop.wait()
    server.shutdown()  # drains the running job
    print("shut down", file=sys.stderr)
    return EXIT_OK


def cmd_vqe(args) -> int:
    try:
        hamiltonian = vqe_mod.Hamiltonian.load(args.hamiltonian)
    except OSError as exc:
        raise CliError(f"cannot read {args.hamiltonian}: {exc}", EXIT_INPUT)
    except vqe_mod.VqeError as exc:
        raise CliError(f"bad Hamiltonian: {exc}", EXIT_INPUT)
    if args.layers < 1:
        raise CliError("--layers must be >= 1", EXIT_INPUT)
    try:
        spec = vqe_mod.AnsatzSpec(hamiltonian.num_qubits, args.layers)
    except vqe_mod.VqeError as exc:
        raise CliError(str(exc), EXIT_INPUT)
    config = vqe_mod.VqeConfig(
        initial_theta=[args.theta0] * spec.num_parameters,
        max_iterations=args.max_iters,
        tolerance=args.tol,
        shots=args.shots,
        seed=args.seed,
    )
    registry, name, server = _make_registry(args)
    if args.shots > 0 or args.device != "sim":
        config.device_name = name
    try:
        report = vqe_mod.optimize(hamiltonian, spec, config, registry)
    except vqe_mod.VqeAbortedError as exc:
        print(json.dumps({"error": str(exc), "energy_trace": exc.energy_trace}),
              file=sys.stderr)
        raise CliError(f"device error: {exc}", EXIT_DEVICE)
    except vqe_mod.VqeError as exc:
        raise CliError(str(exc), EXIT_INPUT)
    finally:
        registry.shutdown()
        if server is not None:
            server.shutdown()
    if args.json:
        print(json.dumps(report.to_dict()))
    else:
        print(f"best_energy {report.best_energy!r}")
        print(f"iterations {report.iterations}")
        print(f"evaluations {len(report.energy_trace)}")
    print(f"wall_time_s {report.total_wall_time:.6f}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qoffload",
        description="Quantum task-offloading runtime: simulate, transpile, "
                    "serve a resource manager, run VQE.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_device_flags(p):
        p.add_argument("--device", choices=["sim", "qpu"], default="sim")
        p.add_argument("--endpoint", default=None,
                       help="resource manager host:port (env QOFFLOAD_ENDPOINT)")
        p.add_argument("--latency-ms", type=float, default=None, dest="latency_ms",
                       help="run against an in-process resource manager with "
                            "this injected per-message latency (implies "
                            "--device qpu)")
        p.add_argument("--seed", type=int, default=None,
                       help="sampling seed (env QOFFLOAD_SEED)")
        p.add_argument("--json", action="store_true")

    p_bell = sub.add_parser("bell", help="run the builtin Bell program")
    p_bell.add_argument("--shots", type=int, default=1000)
    add_device_flags(p_bell)
    p_bell.set_defaults(func=cmd_bell)

    p_tr = sub.add_parser("transpile", help="emit QASM or QIR text")
    p_tr.add_argument("input", nargs="?", default=None, help="input .qasm file")
    p_tr.add_argument("--builtin", choices=sorted(_BUILTINS), default=None)
    p_tr.add_argument("--to", choices=["qasm", "qir"], required=True)
    p_tr.add_argument("-o", "--output", default=None)
    p_tr.add_argument("--check", action="store_true",
                      help="re-parse QASM output and verify equality")
    p_tr.set_defaults(func=cmd_transpile)

    p_srv = sub.add_parser("serve", help="run the resource manager service")
    p_srv.add_argument("--bind", default="127.0.0.1:7117")
    p_srv.add_argument("--latency-ms", type=float, default=0.0, dest="latency_ms")
    p_srv.add_argument("--capacity", type=int, default=24)
    p_srv.add_argument("--ttl-s", type=float, default=600.0, dest="ttl_s")
    p_srv.set_defaults(func=cmd_serve)

    p_vqe = sub.add_parser("vqe", help="run the variational eigensolver")
    p_vqe.add_argument("hamiltonian", help="Hamiltonian file: 'coeff paulis' lines")
    p_vqe.add_argument("--layers", type=int, default=2)
    p_vqe.add_argument("--shots", type=int, default=0,
                       help="0 = exact expectation values (local only)")
    p_vqe.add_argument("--max-iters", type=int, default=200, dest="max_iters")
    p_vqe.add_argument("--tol", type=float, default=1e-8)
    p_vqe.add_argument("--theta0", type=float, default=0.1,
                       help="initial value for every parameter")
    add_device_flags(p_vqe)
    p_vqe.set_defaults(func=cmd_vqe)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _env_default(args, "endpoint", "QOFFLOAD_ENDPOINT")
        _env_default(args, "seed", "QOFFLOAD_SEED", int)
        if getattr(args, "seed", None) is None:
            args.seed = 0
        if getattr(args, "latency_ms", None) is not None \
                and hasattr(args, "device") and args.command != "serve":
            args.device = "qpu"
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
