"""Host-side quantum task-offloading runtime.

Gate-level circuit construction, blocking/asynchronous offload to devices
(in-process statevector simulator or a remote resource-manager service),
OpenQASM 2.0 / QIR text transpilation, and a VQE application.
"""
from .circuit import (
    Circuit,
    Gate,
    GateKind,
    Histogram,
    bell_circuit,
    create_circuit,
    gate_matrix,
    ghz3_circuit,
)
from .qasm import emit_qasm, parse_qasm
from .qir import emit_qir
from .runtime import Device, DeviceKind, DeviceRegistry, JobResult
from .sim import exact_probabilities, run_statevector, sample

__version__ = "0.1.0"

__all__ = [
    "Circuit", "Gate", "GateKind", "Histogram", "bell_circuit",
    "create_circuit", "gate_matrix", "ghz3_circuit",
    "emit_qasm", "parse_qasm", "emit_qir",
    "Device", "DeviceKind", "DeviceRegistry", "JobResult",
    "exact_probabilities", "run_statevector", "sample",
    "__version__",
]
