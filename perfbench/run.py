"""qoffload benchmark: one workload per run, end-to-end or traced by layer.

    python3 perfbench/run.py --workload vqe-exact --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
`src/` of that checkout and nowhere else. With `--trace 0` the run reports
the end-to-end metrics of BENCHMARK.json, measured with tracing off. With
`--trace 1` it measures half the time untraced and half with span wrappers
installed, writes the spans to `perfbench/out/` as JSON lines, and reports
the per-layer metrics plus the tracing overhead. A human-readable report
goes to standard output first; the last line is the JSON result. Correctness
gates run after the timed region; the exit code is 1 when one fails.
"""
from __future__ import annotations

import argparse
import base64
import importlib
import json
import os
import pickle
import platform
import resource
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 12  # set-ups in fresh interpreters; setup_s takes their median
MIN_UNITS = 2  # untraced units at least: the repeatability gate needs two
STRETCH = 20  # consecutive operations behind op_ms.* and ops_per_s
LAYERS = ("circuit", "sim", "qasm", "runtime", "vqe", "resman")
# What `python_loop_seconds` measured on the machine the benchmark was
# written on: its median over minutes when that machine's speed switched
# between two modes every second or two. Calibrated set-up times are in
# seconds of that machine.
PYTHON_LOOP_REF_S = 7.2e-3
# Prints the calibrated time a fresh interpreter takes to import the program
# and set up a workload; the arguments are this directory, the seed and the
# pickled shape of the workload.
SETUP_PROBE = """import base64, pickle, sys, time
sys.path.insert(0, sys.argv[1])
import run
before = run.python_loop_seconds()
start = time.perf_counter()
program = run.load_program()
imported = time.perf_counter() - start
import workloads
workload = workloads.make(None, program, int(sys.argv[2]),
                          pickle.loads(base64.b64decode(sys.argv[3])))
start = time.perf_counter()
workload.setup()
elapsed = imported + time.perf_counter() - start
workload.teardown()
after = run.python_loop_seconds()
print(elapsed * 2 * run.PYTHON_LOOP_REF_S / (before + after))
"""


def load_program() -> types.SimpleNamespace:
    """Import the qoffload layers from this checkout's `src/`."""
    src = ROOT / "src"
    if not (src / "qoffload" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qoffload sources under {src}")
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"qoffload.{name}")
               for name in LAYERS}
    origin = Path(modules["sim"].__file__).resolve().parent
    if origin != src / "qoffload":
        raise SystemExit(f"perfbench: imported qoffload from {origin}, "
                         f"expected {src / 'qoffload'}")
    return types.SimpleNamespace(**modules)


def python_loop_seconds() -> float:
    """The fastest of three runs of a pure Python loop over 20000 indices.
    It needs no numpy, so a fresh interpreter can time it before importing
    the program. Set-up time, mostly imports, followed it closely enough to
    be calibrated by it."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        ones = 0
        for k in range(20000):
            ones += bin(k & 0x2AA).count("1")
        best = min(best, time.perf_counter() - start)
    return best


def setup_seconds(workload) -> float:
    """Calibrated time to import the program (numpy included) and set the
    workload up, in a fresh interpreter: this process has imported the
    program already, and a second set-up here would find the first one's
    memory and threads in place. The time is scaled by PYTHON_LOOP_REF_S
    over the mean of the loops run just before and after it."""
    shape = base64.b64encode(pickle.dumps(workload.shape)).decode()
    probe = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(HERE), str(workload.seed),
         shape], capture_output=True, text=True, check=True, timeout=120)
    return float(probe.stdout)


def machine_facts(largest_state_bytes: int) -> dict:
    import numpy

    llc = None
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level >= 3:
            llc = size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "llc": llc,
        "largest_state_bytes": largest_state_bytes,
        "bytes_moved": "computed from array sizes, not measured",
    }


def measure(workload, seconds: float, min_units: int):
    """Run whole units until `seconds` have passed, `min_units` are done and
    more than STRETCH operations have completed.

    Also returns the peak RSS in MB at the point where `min_units` were done:
    a fixed amount of work, so that memory the program keeps per job (the
    server retains fetched results for minutes) does not grow with speed.
    """
    units = []
    ops = 0
    peak_rss_mb = 0.0
    deadline = time.perf_counter() + seconds
    while (len(units) < min_units or ops <= STRETCH
           or time.perf_counter() < deadline):
        units.append(workload.unit())
        ops += units[-1].attempted
        if len(units) == min_units:
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
    return units, peak_rss_mb


def time_to_solution(units, stepwise: bool) -> float:
    """Time of one unit of work.

    Calibrated units, whose times have the machine's speed taken out, and
    units whose operations overlap are timed whole, and their median counts.
    Wall-time units that repeat the same operations in the same order are
    timed step by step at the best speed the run saw: the fastest run of each
    operation, plus the fastest time spent between operations. The speed of
    a shared machine switches between modes for seconds at a time, and other
    tenants only ever slow the program down.
    """
    import numpy as np

    import metrics

    counts = {u.attempted for u in units}
    if not stepwise or len(counts) != 1:
        return metrics.median([u.seconds for u in units])
    steps = np.array([u.ops for u in units]).min(axis=0).sum()
    between = min(u.seconds - sum(u.ops) for u in units)
    return float(steps + between)


def end_to_end(units, stepwise: bool, setup_s: float,
               peak_rss_mb: float) -> dict:
    """End-to-end metrics of the untraced units.

    Latency percentiles of units timed step by step come from the fastest
    stretch of STRETCH consecutive operations, for the reason
    `time_to_solution` gives: a stretch is short enough that nearly every run
    sees one at the machine's best speed. Otherwise they are taken over every
    operation of the run. Throughput is a unit's operations over `tts_s`.
    """
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    import metrics

    latency_ms = [1e3 * op for u in units for op in u.ops]
    if stepwise:
        latency_ms = sliding_window_view(latency_ms, STRETCH)
        p50 = np.percentile(latency_ms, 50, axis=1).min()
        p90 = np.percentile(latency_ms, 90, axis=1).min()
    else:
        p50, p90 = np.percentile(latency_ms, [50, 90])
    tts_s = time_to_solution(units, stepwise)
    return {
        "setup_s": setup_s,
        "tts_s": tts_s,
        "op_ms.p50": float(p50),
        "op_ms.p90": float(p90),
        "ops_per_s": metrics.median([u.attempted for u in units]) / tts_s,
        "peak_rss_mb": peak_rss_mb,
    }


def execute(workload, seconds: float, trace: bool):
    """Set up, measure and check one workload.

    Returns (metrics, units, gate failures, tracer or None). Untraced, the
    metrics are the end-to-end ones; traced, the per-layer ones.
    """
    import metrics
    import spans

    if trace:
        # Traced times are wall times: a calibration loop between two
        # evaluations would count as optimizer time in the spans.
        workload.calibrated = False
    # Half the set-ups run before the measurement and half after it: the
    # machine's speed changes within seconds, and set-up time follows it.
    probes = 0 if trace else SETUPS // 2
    setup_times = [setup_seconds(workload) for _ in range(probes)]
    tracer = None
    try:
        workload.setup()
        if trace:
            plain, _ = measure(workload, seconds / 2, MIN_UNITS)
            tracer = spans.Tracer()
            uninstall = tracer.install()
            try:
                traced, _ = measure(workload, seconds / 2, 1)
            finally:
                uninstall()
            units = plain + traced
        else:
            units, peak_rss_mb = measure(workload, seconds, MIN_UNITS)
    finally:
        workload.teardown()
    setup_times += [setup_seconds(workload) for _ in range(probes)]
    failures = workload.check(units)

    stepwise = workload.sequential and not workload.calibrated
    if tracer is None:
        setup_s = metrics.median(setup_times)
        values = end_to_end(units, stepwise, setup_s, peak_rss_mb)
    else:
        values = spans.layer_metrics(tracer, len(traced))
        values["trace.overhead_pct"] = 100.0 * (
            time_to_solution(traced, stepwise)
            / time_to_solution(plain, stepwise) - 1)
    return values, units, failures, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program = load_program()
    import metrics
    import workloads

    if args.workload not in workloads.SHAPES:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.SHAPES)}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if args.trace else "end_to_end"]

    workload = workloads.make(args.workload, program, args.seed)
    values, units, failures, tracer = execute(workload, args.seconds,
                                              bool(args.trace))
    facts = machine_facts(workload.largest_state_bytes)
    if tracer is not None:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            **facts})
        print(f"spans: {path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
        if tracer.missing:
            print(f"hooks not found, their metrics read 0: {tracer.missing}",
                  file=sys.stderr)

    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        raise SystemExit(f"perfbench: metrics {sorted(set(values) ^ set(names))} "
                         "differ from BENCHMARK.json")
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)

    print(f"workload {args.workload} seed {args.seed}: {len(units)} units, "
          f"{attempted} operations, failed_ratio "
          f"{metrics.safe_div(failed, attempted):.4g}, "
          f"{'calibrated' if workload.calibrated else 'wall'} times")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    for m in declared:
        print(f"  {m['name']:<36} {values[m['name']]:>14.6g} {m['unit']}")
    for failure in failures:
        print(f"CORRECTNESS GATE FAILED: {failure}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
