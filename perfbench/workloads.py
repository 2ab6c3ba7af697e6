"""The three benchmark workloads.

Every workload is a closed loop: the caller waits for each reply before it
sends the next request. A workload generates all of its inputs from the seed
in `setup`, then runs one fixed unit of work per `unit` call; every unit of a
run does the same work, so counts repeat exactly and the remote VQE energy
trace can be compared bit for bit between units.

- vqe-exact: Nelder-Mead in exact mode on the local simulator. The cost is in
  `vqe` (one basis-rotated re-simulation and one parity-sign vector per term)
  and in `sim` dispatch on small states; `runtime`, `resman` and `qasm` are
  not touched, so gains there must leave it flat.
- vqe-remote-10ms: sampled VQE of three seeded problems through a remote
  device on an in-process resource manager with 10 ms injected latency, the
  set-up of the CLI's `--latency-ms`. Latency legs and polling set its time;
  `sim` does little.
- job-stream: a window of 2 outstanding `submit_async` handles (2 = the CPU
  count of the reference machine) to a remote device at 0 ms latency. Large
  states, 2^n-entry histograms and their frames make it payload-heavy.

The times of vqe-exact and job-stream are calibrated. Both only compute,
and on a shared machine the speed of a thread can halve for minutes at a
time. So their work is bracketed by a fixed calibration loop of the same
kind of work, and its time is scaled to the speed the loop had on the
machine the benchmark was written on: each evaluation of vqe-exact, and each
unit of job-stream, whose jobs overlap. vqe-remote-10ms waits on injected
latency and poll sleeps, which no loop stands for; it reports wall time.
"""
from __future__ import annotations

import collections
import json
import time
from dataclasses import dataclass

import numpy as np

import oracle

ONE_QUBIT = ("h", "x", "y", "z", "s", "sdg", "t", "tdg", "rx", "ry", "rz")
PARAMETRIC = frozenset({"rx", "ry", "rz"})
JOB_TIMEOUT_S = 60.0
# job-stream: outstanding submit_async handles, 2 = the CPU count of the
# reference machine; and passes over the register sizes per unit.
WINDOW = 2
CYCLES = 2
# What `calibration_seconds` measured on the machine the benchmark was
# written on, in its fast spells. Calibrated times are in seconds of that
# machine at that speed.
CALIBRATION_REF_S = 1.6e-3
# The same for `stream_calibration_seconds`: the median of its runs there, in
# a spell when `calibration_seconds` took about 3 ms, its slow mode.
STREAM_CALIBRATION_REF_S = 0.08


def calibration_seconds() -> float:
    """Time one fixed loop that shares no code with the program but does the
    kind of work an exact energy evaluation does: a Python loop over 1024
    indices and small numpy updates of a 1024-amplitude state. An evaluation
    took 30 to 32 loop times both when the machine ran fast and when it ran
    at half speed."""
    start = time.perf_counter()
    ones = 0
    for k in range(1024):
        ones += bin(k & 0x2AA).count("1")
    view = np.ones(1024, dtype=complex).reshape(32, 2, 16)
    for _ in range(100):
        a0 = view[:, 0, :].copy()
        view[:, 0, :] = 0.6 * a0 + 0.8 * view[:, 1, :]
        view[:, 1, :] = 0.8 * a0 - 0.6 * view[:, 1, :]
    return time.perf_counter() - start


def stream_calibration_seconds() -> float:
    """Time one fixed loop that shares no code with the program but does the
    kind of work a large job of job-stream does: strided and index-array
    updates of a 2^17-amplitude state, a multinomial draw of 4096 shots over
    its probabilities, and the counts turned into Python ints and sent
    through JSON. An 18-qubit job spends about 60% of its time in numpy
    kernels and most of the rest in Python objects of that size; the loop
    splits about evenly."""
    n = 17  # between the two largest register sizes
    start = time.perf_counter()
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    for q in range(n):
        view = state.reshape(1 << (n - q - 1), 2, 1 << q)
        a0 = view[:, 0, :].copy()
        view[:, 0, :] = 0.6 * a0 + 0.8 * view[:, 1, :]
        view[:, 1, :] = 0.8 * a0 - 0.6 * view[:, 1, :]
    index = np.arange(1 << n)
    for q in range(0, n - 1, 2):
        low = index[(((index >> q) & 1) == 1) & (((index >> (q + 1)) & 1) == 0)]
        high = low | (1 << (q + 1))
        state[low], state[high] = state[high].copy(), state[low].copy()
    p = np.abs(state) ** 2
    counts = np.random.default_rng(0).multinomial(4096, p / p.sum())
    json.loads(json.dumps({"counts": [int(c) for c in counts]}))
    return time.perf_counter() - start


@dataclass(frozen=True)
class VqeShape:
    qubits: int
    layers: int
    terms: int  # distinct Pauli strings, one of them the identity
    iterations: int
    shots: int  # 0 selects exact mode on the local simulator
    latency_ms: float | None  # None: no server; else in-process resman
    # Seeded problems optimized per unit. The evaluation count at a fixed
    # iteration budget varies with the problem; a sum over several varies less.
    problems: int = 1


@dataclass(frozen=True)
class StreamShape:
    sizes: tuple[int, ...]  # register sizes of one cycle, in order
    one_qubit_gates: int
    two_qubit_gates_each: int  # of CX, CZ and SWAP each
    shots: int


SHAPES = {
    "vqe-exact": VqeShape(qubits=10, layers=2, terms=41, iterations=10,
                          shots=0, latency_ms=None),
    "vqe-remote-10ms": VqeShape(qubits=4, layers=2, terms=6, iterations=5,
                                shots=1024, latency_ms=10.0, problems=3),
    # Five jobs a cycle: with a window of 2 a job waits for its predecessor,
    # so its latency is set by a pair of sizes. Five distinct pairs put the
    # median inside one of them rather than in the gap between two.
    "job-stream": StreamShape(sizes=(12, 14, 16, 18, 14),
                              one_qubit_gates=30, two_qubit_gates_each=10,
                              shots=4096),
}


@dataclass
class Unit:
    """One fixed unit of work: its time and the latency of each operation,
    in completion order; calibrated, for a calibrated workload."""

    seconds: float
    ops: list[float]
    failed: int
    payload: object = None

    @property
    def attempted(self) -> int:
        return len(self.ops)


def random_terms(rng: np.random.Generator, qubits: int,
                 count: int) -> list[tuple[float, str]]:
    """The identity plus count-1 distinct non-identity Pauli strings."""
    identity = "I" * qubits
    terms = [(float(rng.uniform(-1.0, 1.0)), identity)]
    seen = {identity}
    while len(terms) < count:
        ops = "".join(rng.choice(list("IXYZ"), qubits))
        if ops not in seen:
            seen.add(ops)
            terms.append((float(rng.uniform(-1.0, 1.0)), ops))
    return terms


def random_circuit(create_circuit, rng: np.random.Generator, n: int,
                   shape: StreamShape):
    """A measured circuit with a fixed mix of gate kinds and of target qubits
    in seeded order. Kernel cost depends on the target qubit, so fixing the
    multiset of targets keeps the work of a job the same across seeds."""
    one = shape.one_qubit_gates
    two = 3 * shape.two_qubit_gates_each
    kinds = ["1q"] * one + ["cx", "cz", "swap"] * shape.two_qubit_gates_each
    rng.shuffle(kinds)
    targets = iter(rng.permutation([i % n for i in range(one)]))
    firsts = iter(rng.permutation([i % n for i in range(two)]))
    offsets = iter(rng.permutation([1 + i % (n - 1) for i in range(two)]))
    circuit = create_circuit(n)
    for kind in kinds:
        if kind == "1q":
            name = ONE_QUBIT[int(rng.integers(len(ONE_QUBIT)))]
            q = int(next(targets))
            if name in PARAMETRIC:
                getattr(circuit, name)(q, float(rng.uniform(-np.pi, np.pi)))
            else:
                getattr(circuit, name)(q)
        else:
            a = int(next(firsts))
            getattr(circuit, kind)(a, (a + int(next(offsets))) % n)
    return circuit.measure()


@dataclass
class VqeProblem:
    terms: list[tuple[float, str]]
    hamiltonian: object
    config: object


class VqeWorkload:
    # Evaluations run one after another: a unit's time is the sum of its
    # evaluations and the optimizer's work between them.
    sequential = True

    def __init__(self, program, shape: VqeShape, seed: int):
        self.program = program
        self.shape = shape
        self.seed = seed
        self.server = None
        self.registry = None
        self.device = None
        self.calibrated = shape.latency_ms is None

    @property
    def largest_state_bytes(self) -> int:
        return (1 << self.shape.qubits) * 16

    def setup(self) -> None:
        vqe, runtime = self.program.vqe, self.program.runtime
        shape = self.shape
        if shape.latency_ms is not None:
            self.server = self.program.resman.serve(
                latency=shape.latency_ms / 1000.0)
            self.registry = runtime.DeviceRegistry()
            self.device = "qpu"
            self.registry.register(runtime.Device(
                self.device, runtime.DeviceKind.REMOTE,
                endpoint=self.server.address))
        rng = np.random.default_rng([self.seed, 1])
        self.spec = vqe.AnsatzSpec(shape.qubits, shape.layers)
        self.problems = []
        for _ in range(shape.problems):
            terms = random_terms(rng, shape.qubits, shape.terms)
            theta = [float(x) for x in rng.uniform(
                -np.pi, np.pi, shape.qubits * shape.layers)]
            config = vqe.VqeConfig(
                initial_theta=theta, max_iterations=shape.iterations,
                tolerance=0.0, shots=shape.shots,
                seed=int(rng.integers(2**31)), device_name=self.device)
            self.problems.append(VqeProblem(
                terms, vqe.Hamiltonian.from_terms(terms), config))
        # Warm-up: one energy evaluation with its own job seeds.
        first = self.problems[0]
        vqe.estimate_expectation(first.hamiltonian, self.spec,
                                 first.config.initial_theta, shape.shots,
                                 self.registry, self.device,
                                 seeds=first.config.seed + 2**32)

    def teardown(self) -> None:
        if self.registry is not None:
            self.registry.shutdown()
            self.registry = None
        if self.server is not None:
            self.server.shutdown()
            self.server = None

    def unit(self) -> Unit:
        """Optimize every problem once; the payload is their reports."""
        vqe = self.program.vqe
        ops: list[float] = []
        # Calibration times: one before the unit and one after each
        # evaluation, so that evaluation i lies between loops i and i + 1.
        loops = [calibration_seconds()] if self.calibrated else []
        estimate = vqe.estimate_expectation

        def timed_estimate(*args, **kwargs):
            start = time.perf_counter()
            try:
                return estimate(*args, **kwargs)
            finally:
                ops.append(time.perf_counter() - start)
                if self.calibrated:
                    loops.append(calibration_seconds())

        reports = []
        failed = 0
        vqe.estimate_expectation = timed_estimate
        start = time.perf_counter()
        try:
            for problem in self.problems:
                try:
                    reports.append(vqe.optimize(
                        problem.hamiltonian, self.spec, problem.config,
                        self.registry))
                except vqe.VqeAbortedError:
                    reports.append(None)
                    failed += 1
        finally:
            elapsed = time.perf_counter() - start - sum(loops[1:])
            vqe.estimate_expectation = estimate
        if self.calibrated:
            between = elapsed - sum(ops)
            ops = [op * 2 * CALIBRATION_REF_S / (before + after)
                   for op, before, after in zip(ops, loops, loops[1:])]
            elapsed = sum(ops) + between * CALIBRATION_REF_S / float(
                np.median(loops))
        return Unit(elapsed, ops, failed, reports)

    def check(self, units: list[Unit]) -> list[str]:
        failures = []
        for j, problem in enumerate(self.problems):
            reports = [u.payload[j] for u in units]
            if any(r is None for r in reports):
                failures.append(f"problem {j}: an optimization aborted")
                continue
            reference = oracle.Oracle(problem.terms, self.shape.layers)
            if self.shape.shots == 0:
                found = oracle.check_vqe_exact(reference, reports)
            else:
                found = oracle.check_vqe_sampled(reference, reports,
                                                 self.shape.shots)
            failures += [f"problem {j}: {f}" for f in found]
        return failures


class StreamWorkload:
    sequential = False  # a window of jobs overlap

    def __init__(self, program, shape: StreamShape, seed: int):
        self.program = program
        self.shape = shape
        self.seed = seed
        self.server = None
        self.registry = None
        self.calibrated = True
        self.loop = None  # the last calibration time, taken after a unit

    @property
    def largest_state_bytes(self) -> int:
        return (1 << max(self.shape.sizes)) * 16

    def setup(self) -> None:
        runtime = self.program.runtime
        rng = np.random.default_rng([self.seed, 2])
        self.jobs = [
            (random_circuit(self.program.circuit.create_circuit, rng, n,
                            self.shape), int(rng.integers(2**31)))
            for _ in range(CYCLES) for n in self.shape.sizes]
        self.server = self.program.resman.serve(latency=0.0)
        self.registry = runtime.DeviceRegistry()
        self.registry.register(runtime.Device(
            "qpu", runtime.DeviceKind.REMOTE, endpoint=self.server.address))
        first: dict[int, int] = {}
        for index, (circuit, _) in enumerate(self.jobs):
            first.setdefault(circuit.num_qubits, index)
        # The first job of each size; unit 0 keeps their histograms.
        self.checked_jobs = set(first.values())
        self.checked: dict[int, object] = {}
        # Warm-up: one job of the smallest size. The statistics of a run are
        # medians over its units, so a slower first unit does not move them.
        circuit, seed = self.jobs[first[min(first)]]
        self.registry.submit_sync("qpu", circuit, self.shape.shots, seed)
        self.loop = None

    def teardown(self) -> None:
        if self.registry is not None:
            self.registry.shutdown()
            self.registry = None
        if self.server is not None:
            self.server.shutdown()
            self.server = None

    def unit(self) -> Unit:
        """Run the batch of jobs. Calibrated, the unit is scaled by the mean
        of the calibration loops before and after it; the loop after one
        unit is the loop before the next."""
        if self.calibrated and self.loop is None:
            self.loop = stream_calibration_seconds()
        runtime = self.program.runtime
        shots = self.shape.shots
        ops: list[float] = []
        failed = 0
        keep = set() if self.checked else self.checked_jobs
        kept: dict[int, object] = {}
        pending: collections.deque = collections.deque()

        def complete():
            nonlocal failed
            index, submitted, handle = pending.popleft()
            try:
                result = self.registry.wait(handle, timeout=JOB_TIMEOUT_S)
            except (runtime.JobFailedError, TimeoutError):
                failed += 1
                result = None
            ops.append(time.perf_counter() - submitted)
            if index in keep:
                kept[index] = None if result is None else result.histogram

        start = time.perf_counter()
        for index, (circuit, seed) in enumerate(self.jobs):
            if len(pending) >= WINDOW:
                complete()
            submitted = time.perf_counter()
            handle = self.registry.submit_async("qpu", circuit, shots, seed)
            pending.append((index, submitted, handle))
        while pending:
            complete()
        elapsed = time.perf_counter() - start
        if keep:
            self.checked = kept
        if self.calibrated:
            before, self.loop = self.loop, stream_calibration_seconds()
            scale = 2 * STREAM_CALIBRATION_REF_S / (before + self.loop)
            elapsed *= scale
            ops = [op * scale for op in ops]
        return Unit(elapsed, ops, failed)

    def check(self, units: list[Unit]) -> list[str]:
        """One job of each register size: its remote histogram against the
        local simulator, and the simulator's state against the oracle's own
        contraction."""
        sim = self.program.sim
        pairs, states = [], []
        for index, remote in sorted(self.checked.items()):
            circuit, seed = self.jobs[index]
            label = f"job {index} ({circuit.num_qubits} qubits)"
            local = sim.run_and_sample(circuit, self.shape.shots, seed)
            pairs.append((label, remote, local))
            states.append((label, sim.run_statevector(circuit),
                           oracle.circuit_state(circuit)))
        if len(pairs) < len(self.checked_jobs):
            return ["not every register size has a checked job"]
        return oracle.check_histograms(pairs) + oracle.check_states(states)


def make(name: str, program, seed: int, shape=None):
    shape = shape or SHAPES[name]
    if isinstance(shape, StreamShape):
        return StreamWorkload(program, shape, seed)
    return VqeWorkload(program, shape, seed)
