"""Span tracing for the benchmark, installed from outside the program.

`Tracer.install()` replaces the public functions of `qoffload.sim`, `qasm`,
`resman`, `runtime` and `vqe` with wrappers that record spans (name, start,
end, parent span, job id) and counters, and returns a function that puts the
originals back. Nothing under `src/` knows about it. Spans stay in memory and
are written as JSON lines when the run ends; `layer_metrics` turns them into
the per-layer metrics named in BENCHMARK.json.

Job ids are the tracer's own: `DeviceRegistry.submit_async` assigns one, and
the device worker picks it up again from the job's (circuit, shots, seed).
Spans on resource-manager threads carry the id of the remote job in flight;
the runtime sends one remote job at a time per device, and the benchmark
uses one remote device.
"""
from __future__ import annotations

import collections
import functools
import itertools
import json
import sys
import threading
import time

import workloads
from metrics import percentile, safe_div

GATE_CLASSES = ("1q", "cx", "cz", "swap")
# Register sizes of the job-stream workload: the per-size kernel table.
TABLE_SIZES = tuple(sorted(set(workloads.SHAPES["job-stream"].sizes)))
AMPLITUDE_BYTES = 16  # complex128


def _gate_class(kind) -> str:
    name = kind.name.lower()
    return name if name in GATE_CLASSES else "1q"


class Tracer:
    """In-memory span and counter store; thread-safe."""

    def __init__(self):
        self.spans: list[dict] = []
        self.gates: dict[tuple[str, int], list] = {}
        self.counts: collections.Counter = collections.Counter()
        self.server_wall: list[float] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._jobs = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._job_keys: dict[tuple, collections.deque] = {}
        self._handles: dict = {}
        self._remote_job = None

    # Span recording

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, job=None, **attrs) -> dict:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if job is None:
            job = parent["job"] if parent else getattr(self._local, "job", None)
        if job is None:
            job = self._remote_job
        span = {"id": next(self._ids), "name": name,
                "parent": parent["id"] if parent else None, "job": job,
                "thread": threading.get_ident(), "start": time.monotonic(),
                "end": None}
        span.update(attrs)
        stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.monotonic()
        self._stack().pop()
        self.spans.append(span)

    def record(self, name: str, start: float, end: float, job) -> None:
        """A span whose interval was measured elsewhere (queue wait, job)."""
        self.spans.append({"id": next(self._ids), "name": name, "parent": None,
                           "job": job, "thread": threading.get_ident(),
                           "start": start, "end": end})

    def count(self, key: str) -> None:
        with self._lock:
            self.counts[key] += 1

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"header": header}) + "\n")
            for span in sorted(self.spans, key=lambda s: s["start"]):
                f.write(json.dumps(span) + "\n")

    # Wrappers

    def _timed(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if after is not None:
                after(span, args, result)
            return result
        return wrapper

    def _wrap_apply_gate(self, fn):
        gates, lock = self.gates, self._lock

        @functools.wraps(fn)
        def apply_gate(state, gate, num_qubits):
            start = time.perf_counter()
            fn(state, gate, num_qubits)
            elapsed = time.perf_counter() - start
            key = (_gate_class(gate.kind), num_qubits)
            with lock:
                entry = gates.get(key)
                if entry is None:
                    entry = gates[key] = [0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
        return apply_gate

    def _wrap_submit_async(self, fn):
        tracer = self

        @functools.wraps(fn)
        def submit_async(registry, device_name, circuit, shots, seed):
            job = next(tracer._jobs)
            key = (id(circuit), shots, seed)
            with tracer._lock:
                tracer._job_keys.setdefault(key, collections.deque()).append(job)
            span = tracer.begin("runtime.submit_async", job=job)
            try:
                handle = fn(registry, device_name, circuit, shots, seed)
            except Exception:
                with tracer._lock:
                    pending = tracer._job_keys[key]
                    pending.remove(job)
                    if not pending:
                        del tracer._job_keys[key]
                raise
            finally:
                tracer.end(span)
            with tracer._lock:
                tracer._handles[handle] = (job, span["start"])
            return handle
        return submit_async

    def _wrap_wait(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wait(registry, handle, timeout=None):
            with tracer._lock:
                job, submitted = tracer._handles.pop(handle, (None, None))
            span = tracer.begin("runtime.wait", job=job)
            try:
                result = fn(registry, handle, timeout)
            except Exception:
                tracer.count("runtime.failed")
                raise
            finally:
                tracer.end(span)
            if submitted is not None:
                tracer.record("runtime.job", submitted, span["end"], job)
            return result
        return wait

    def _wrap_backend_run(self, fn, remote: bool):
        tracer = self

        @functools.wraps(fn)
        def run(backend, job):
            key = (id(job.circuit), job.shots, job.seed)
            with tracer._lock:
                pending = tracer._job_keys.get(key)
                job_id = pending.popleft() if pending else None
                if pending is not None and not pending:
                    del tracer._job_keys[key]
            tracer.record("runtime.queue_wait", job.submitted_at,
                          time.monotonic(), job_id)
            tracer.count("runtime.jobs")
            if remote:
                tracer.count("resman.jobs")
                tracer._remote_job = job_id
            tracer._local.job = job_id
            span = tracer.begin("runtime.exec", job=job_id)
            try:
                return fn(backend, job)
            finally:
                tracer.end(span)
                tracer._local.job = None
                if remote:
                    tracer._remote_job = None
        return run

    def _wrap_request(self, fn):
        tracer = self

        @functools.wraps(fn)
        def request(client, msg):
            kind = msg.get("kind")
            span = tracer.begin("client.request", kind=kind)
            try:
                response = fn(client, msg)
            finally:
                tracer.end(span)
            tracer.count(f"resman.request.{kind}")
            if response.get("kind") == "Error":
                tracer.count("resman.errors")
            elif kind == "QueryStatus" and response.get("status") == "Done":
                tracer.count("resman.status_done")
            return response
        return request

    def _wrap_server_handle(self, fn):
        tracer = self

        @functools.wraps(fn)
        def handle(server, msg):
            span = tracer.begin("server.handle", kind=msg.get("kind"))
            try:
                return fn(server, msg)
            finally:
                tracer.end(span)
        return handle

    def _after_connect(self, span, args, result):
        self.count("resman.connections")

    def _after_fetch(self, span, args, result):
        with self._lock:
            self.server_wall.append(float(result[1]))

    @staticmethod
    def _after_bytes(span, args, result):
        span["bytes"] = len(result)

    # Installation

    def install(self):
        """Wrap the program's layer boundaries; returns the undo function."""
        from qoffload import qasm, runtime, sim, vqe
        from qoffload.resman import client, protocol, server

        def timed(after=None):
            return lambda name, fn: self._timed(name, fn, after)

        def special(make):
            return lambda name, fn: make(fn)

        plain = timed()
        patches = [
            (sim, "apply_gate", special(self._wrap_apply_gate)),
            (sim, "run_statevector", plain), (sim, "sample", plain),
            (sim, "exact_probabilities", plain), (sim, "run_and_sample", plain),
            (qasm, "emit_qasm", timed(self._after_bytes)),
            (qasm, "parse_qasm", plain),
            (protocol, "encode_frame", timed(self._after_bytes)),
            (protocol, "recv_message", plain), (protocol, "_recv_exact", plain),
            (client, "client_submit", plain),
            (client.ResmanClient, "__init__", timed(self._after_connect)),
            (client.ResmanClient, "request", special(self._wrap_request)),
            (client.ResmanClient, "fetch", timed(self._after_fetch)),
            (server.ResourceManagerServer, "_handle",
             special(self._wrap_server_handle)),
            (runtime.DeviceRegistry, "submit_async",
             special(self._wrap_submit_async)),
            (runtime.DeviceRegistry, "wait", special(self._wrap_wait)),
            (runtime.LocalSimulatorBackend, "run",
             special(lambda fn: self._wrap_backend_run(fn, remote=False))),
            (runtime.RemoteBackend, "run",
             special(lambda fn: self._wrap_backend_run(fn, remote=True))),
            (vqe, "optimize", plain), (vqe, "estimate_expectation", plain),
        ]
        undo: list[tuple[object, str, object]] = []
        for owner, attr, wrap in patches:
            original = owner.__dict__.get(attr)
            if original is None:
                # A later version of the program renamed or removed it: the
                # metrics that depend on this hook read 0.
                self.missing.append(f"{_short_name(owner)}.{attr}")
                continue
            wrapped = wrap(f"{_short_name(owner)}.{attr.strip('_')}", original)
            for target in _bindings(owner, attr, original):
                undo.append((target, attr, original))
                setattr(target, attr, wrapped)

        def uninstall():
            for target, attr, original in reversed(undo):
                setattr(target, attr, original)
        return uninstall


def _short_name(owner) -> str:
    """Last component of the module that defines `owner` (module or class)."""
    module = owner.__name__ if isinstance(owner, type(sys)) else owner.__module__
    return module.rsplit(".", 1)[-1]


def _bindings(owner, attr, original):
    """The owner, plus every qoffload module that imported the same function
    under the same name (`from .sim import run_statevector`)."""
    targets = [owner]
    if isinstance(owner, type(sys)):
        for name, module in list(sys.modules.items()):
            if (module is not owner and name.startswith("qoffload")
                    and module.__dict__.get(attr) is original):
                targets.append(module)
    return targets


# Derivation of per-layer metrics


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(tracer: Tracer, units: int) -> dict[str, float]:
    """Per-layer metrics from the spans of `units` traced units of work."""
    spans = tracer.spans
    by_name = collections.defaultdict(list)
    children = collections.defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
        if span["parent"] is not None:
            children[span["parent"]].append(span)

    def total_ms(name):
        return 1e3 * sum(_duration(s) for s in by_name[name])

    def mean_ms(name):
        return safe_div(total_ms(name), len(by_name[name]))

    def self_ms(span, child_names):
        covered = sum(_duration(c) for c in children[span["id"]]
                      if c["name"] in child_names)
        return 1e3 * (_duration(span) - covered)

    def decode_ms(span):  # recv_message minus the time spent waiting on bytes
        return self_ms(span, {"protocol.recv_exact"})

    metrics: dict[str, float] = {}
    counts = tracer.counts

    # sim and circuit
    amps = collections.Counter()
    secs = collections.Counter()
    gates_total = 0
    bytes_moved = 0
    for (cls, n), (count, seconds) in tracer.gates.items():
        amps[(cls, n)] += count * (1 << n)
        secs[(cls, n)] += seconds
        gates_total += count
        bytes_moved += count * (1 << n) * 2 * AMPLITUDE_BYTES
    for cls in GATE_CLASSES:
        a = sum(v for (c, _), v in amps.items() if c == cls)
        s = sum(v for (c, _), v in secs.items() if c == cls)
        metrics[f"sim.gate_ns_per_amp.{cls}"] = safe_div(1e9 * s, a)
        for n in TABLE_SIZES:
            metrics[f"sim.gate_ns_per_amp.{cls}.n{n}"] = safe_div(
                1e9 * secs[(cls, n)], amps[(cls, n)])
    metrics["sim.statevector_ms"] = mean_ms("sim.run_statevector")
    metrics["sim.statevector_calls"] = safe_div(
        len(by_name["sim.run_statevector"]), units)
    metrics["sim.bytes_moved_computed"] = safe_div(bytes_moved / 1e6, units)
    metrics["sim.sample_ms"] = mean_ms("sim.sample")
    metrics["sim.exact_probabilities_ms"] = mean_ms("sim.exact_probabilities")
    metrics["circuit.gates_simulated"] = safe_div(gates_total, units)

    # vqe
    sim_runtime = {"sim.run_statevector", "sim.exact_probabilities",
                   "sim.sample", "sim.run_and_sample",
                   "runtime.submit_async", "runtime.wait"}
    estimates = by_name["vqe.estimate_expectation"]
    evals = len(estimates)
    metrics["vqe.evals"] = safe_div(evals, units)
    estimate_ids = {s["id"] for s in estimates}
    metrics["vqe.jobs_per_eval"] = safe_div(
        sum(1 for s in by_name["runtime.submit_async"]
            if s["parent"] in estimate_ids), evals)
    metrics["vqe.estimate_self_ms"] = safe_div(
        sum(self_ms(s, sim_runtime) for s in estimates), evals)
    optimizes = by_name["vqe.optimize"]
    metrics["vqe.optimizer_self_ms"] = safe_div(
        sum(self_ms(s, {"vqe.estimate_expectation"}) for s in optimizes),
        len(optimizes))

    # resman
    remote_jobs = counts["resman.jobs"]
    for kind, key in (("SubmitJob", "submit"), ("QueryStatus", "status"),
                      ("FetchResult", "fetch")):
        metrics[f"resman.requests_per_job.{key}"] = safe_div(
            counts[f"resman.request.{kind}"], remote_jobs)
    metrics["resman.status_useful_ratio"] = safe_div(
        counts["resman.status_done"], counts["resman.request.QueryStatus"])
    metrics["resman.connections_per_job"] = safe_div(
        counts["resman.connections"], remote_jobs)
    leg_ms = 0.0
    for request in by_name["client.request"]:
        busy = 0.0
        for child in children[request["id"]]:
            if child["name"] == "protocol.encode_frame":
                busy += 1e3 * _duration(child)
            elif child["name"] == "protocol.recv_message":
                busy += decode_ms(child)
        leg_ms += 1e3 * _duration(request) - busy
    metrics["resman.leg_wait_ms"] = safe_div(leg_ms, remote_jobs)
    metrics["resman.encode_ms"] = safe_div(
        total_ms("protocol.encode_frame"), remote_jobs)
    metrics["resman.decode_ms"] = safe_div(
        sum(decode_ms(s) for s in by_name["protocol.recv_message"]), remote_jobs)
    metrics["resman.frame_bytes_per_job"] = safe_div(
        sum(s.get("bytes", 0) for s in by_name["protocol.encode_frame"]),
        remote_jobs)
    metrics["resman.server_exec_ms"] = safe_div(
        1e3 * sum(tracer.server_wall), len(tracer.server_wall))
    metrics["resman.errors"] = safe_div(counts["resman.errors"], units)

    # qasm
    metrics["qasm.emit_ms"] = mean_ms("qasm.emit_qasm")
    metrics["qasm.parse_ms"] = mean_ms("qasm.parse_qasm")
    metrics["qasm.bytes"] = safe_div(
        sum(s.get("bytes", 0) for s in by_name["qasm.emit_qasm"]),
        len(by_name["qasm.emit_qasm"]))

    # runtime
    queue_ms = [1e3 * _duration(s) for s in by_name["runtime.queue_wait"]]
    job_ms = [1e3 * _duration(s) for s in by_name["runtime.job"]]
    metrics["runtime.queue_wait_ms.p50"] = percentile(queue_ms, 50)
    metrics["runtime.queue_wait_ms.p90"] = percentile(queue_ms, 90)
    metrics["runtime.job_ms.p50"] = percentile(job_ms, 50)
    metrics["runtime.job_ms.p90"] = percentile(job_ms, 90)
    metrics["runtime.exec_ms"] = mean_ms("runtime.exec")
    metrics["runtime.jobs"] = safe_div(counts["runtime.jobs"], units)
    metrics["runtime.failed"] = safe_div(counts["runtime.failed"], units)
    return {k: float(v) for k, v in metrics.items()}
