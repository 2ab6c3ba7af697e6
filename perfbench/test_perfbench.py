"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench

They run every workload at a tiny size, traced and untraced, check the metric
names, and show that each correctness gate rejects a corrupted output.
"""
from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

PROGRAM = run.load_program()

import oracle  # noqa: E402  (after the program is on sys.path)
import workloads  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

TINY = {
    "vqe-exact": workloads.VqeShape(qubits=3, layers=1, terms=4, iterations=2,
                                    shots=0, latency_ms=None),
    "vqe-remote-10ms": workloads.VqeShape(qubits=2, layers=1, terms=3,
                                          iterations=1, shots=256,
                                          latency_ms=10.0, problems=2),
    "job-stream": workloads.StreamShape(sizes=(3, 5), one_qubit_gates=4,
                                        two_qubit_gates_each=1, shots=64),
}


def tiny(name: str, seed: int = 3):
    return workloads.make(name, PROGRAM, seed, TINY[name])


def names(section: str) -> list[str]:
    return [m["name"] for m in BENCH[section]]


def test_tiny_workloads_cover_the_declared_ones():
    assert sorted(TINY) == sorted(names("workloads")) == sorted(workloads.SHAPES)


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke(workload, trace):
    values, units, failures, tracer = run.execute(tiny(workload), 0.0, trace)
    assert failures == []
    assert sum(u.failed for u in units) == 0
    assert len(units) >= run.MIN_UNITS
    assert sorted(values) == sorted(names("per_layer" if trace else "end_to_end"))
    if trace:
        assert tracer.missing == []
        assert tracer.spans
        assert all(s["end"] >= s["start"] for s in tracer.spans)
    else:
        assert all(v > 0 for v in values.values())


def test_traced_counts_repeat_exactly():
    first, *_ = run.execute(tiny("vqe-remote-10ms"), 0.0, True)
    second, *_ = run.execute(tiny("vqe-remote-10ms"), 0.0, True)
    for key in ("vqe.evals", "vqe.jobs_per_eval", "runtime.jobs",
                "resman.requests_per_job.submit", "circuit.gates_simulated"):
        assert first[key] == second[key] > 0


def test_metric_names_and_units_are_well_formed():
    declared = [m["name"] for section in ("workloads", "end_to_end", "per_layer")
                for m in BENCH[section]]
    assert len(declared) == len(set(declared))
    for name in declared:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m


def test_exact_gate_rejects_corrupted_energy():
    workload = tiny("vqe-exact")
    _, units, failures, _ = run.execute(workload, 0.0, False)
    assert failures == []
    report = units[0].payload[0]
    bad = dataclasses.replace(report, best_energy=report.best_energy + 1e-6)
    reference = oracle.Oracle(workload.problems[0].terms, workload.shape.layers)
    assert oracle.check_vqe_exact(reference, [report]) == []
    assert oracle.check_vqe_exact(reference, [bad])


def test_sampled_gate_rejects_changed_trace_and_far_energy():
    workload = tiny("vqe-remote-10ms")
    _, units, failures, _ = run.execute(workload, 0.0, False)
    assert failures == []
    reports = [u.payload[0] for u in units]
    reference = oracle.Oracle(workload.problems[0].terms, workload.shape.layers)
    shots = workload.shape.shots

    trace = list(reports[1].energy_trace)
    trace[-1] = float(trace[-1] + 1e-12)
    changed = dataclasses.replace(reports[1], energy_trace=trace)
    assert oracle.check_vqe_sampled(reference, [reports[0], changed], shots)

    sigma = reference.sampled_sigma(reports[0].best_theta, shots)
    far = dataclasses.replace(reports[0],
                              best_energy=reports[0].best_energy + 12 * sigma)
    assert oracle.check_vqe_sampled(reference, [far, far], shots)
    assert oracle.check_vqe_sampled(reference, reports[:1], shots)


def test_histogram_gate_rejects_moved_count():
    workload = tiny("job-stream")
    run.execute(workload, 0.0, False)
    index, remote = next(iter(workload.checked.items()))
    circuit, seed = workload.jobs[index]
    local = PROGRAM.sim.run_and_sample(circuit, workload.shape.shots, seed)
    assert oracle.check_histograms([("job", remote, local)]) == []
    counts = list(remote.counts)
    src = next(i for i, c in enumerate(counts) if c > 0)
    counts[src] -= 1
    counts[(src + 1) % len(counts)] += 1
    moved = type(remote)(tuple(counts), remote.shots)
    assert oracle.check_histograms([("job", moved, local)])
    assert oracle.check_histograms([("job", None, local)])


def test_state_gate_checks_every_gate_kind():
    circuit = PROGRAM.circuit.create_circuit(3)
    for name in workloads.ONE_QUBIT:
        for q in range(3):
            if name in workloads.PARAMETRIC:
                getattr(circuit, name)(q, 0.3 + q)
            else:
                getattr(circuit, name)(q)
    circuit.cx(0, 2).cz(1, 0).swap(2, 1).h(1).cx(1, 0).swap(0, 2)
    program = PROGRAM.sim.run_statevector(circuit)
    reference = oracle.circuit_state(circuit)
    assert oracle.check_states([("circuit", program, reference)]) == []
    flipped = program.copy()
    flipped[np.argmax(np.abs(flipped))] *= -1  # a phase error
    assert oracle.check_states([("circuit", flipped, reference)])
    assert oracle.check_states([("circuit", program[:4], reference)])


def test_oracle_matches_program_on_a_known_state():
    # Two qubits, one layer at theta = (pi, 0): RY(pi) on qubit 0 gives |01>,
    # the CX ring 0->1, 1->0 maps it to |11> and then |10>.
    psi = oracle.ansatz_state(2, 1, [3.141592653589793, 0.0])
    assert abs(abs(psi[0b10]) - 1.0) < 1e-12
    spec = PROGRAM.vqe.AnsatzSpec(2, 1)
    state = PROGRAM.sim.run_statevector(
        PROGRAM.vqe.build_ansatz_body(spec, [3.141592653589793, 0.0]))
    assert abs(abs(state[0b10]) - 1.0) < 1e-12


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "vqe-exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
