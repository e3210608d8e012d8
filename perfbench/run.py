"""sparsepose benchmark: one command for the three user paths.

    python3 perfbench/run.py --workload oracle_estimate --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

One workload run generates (or reuses) the seeded scene bundles in a child
process, measures set-up, times operations for --seconds and checks every
output. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The lines
before it print every figure by name with its unit.

Run from the root of a checkout; inputs, dumps and span records go to
.perfbench_cache/ there. See perfbench/README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".perfbench_cache")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
WORKLOAD_NAMES = ("train_toy", "oracle_estimate", "fuse_tsdf")
SETUP_REPEATS = 7


def _package_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _quantile(values, q: int) -> float:
    """q-th percentile (q in 1..99) as statistics.quantiles gives it."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# Inputs: generated once per (workload, seed) in a child process
# ---------------------------------------------------------------------------


def ensure_inputs(workload: str, seed: int) -> tuple[str, float, bool]:
    """Directory of the workload's bundles, generation seconds, and whether
    this run generated them."""
    target = os.path.join(CACHE, "inputs", f"{workload}-{seed}")
    meta = os.path.join(target, "generated.json")
    if os.path.exists(meta):
        with open(meta) as f:
            return target, json.load(f)["seconds"], False
    tmp = f"{target}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, __file__, "--generate", tmp, "--workload", workload, "--seed", str(seed)],
                   check=True, env=_package_env(), stdout=subprocess.DEVNULL)
    seconds = time.perf_counter() - t0
    with open(os.path.join(tmp, "generated.json"), "w") as f:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds}, f)
    try:
        os.rename(tmp, target)
    except OSError:  # another run finished the same inputs first
        shutil.rmtree(tmp, ignore_errors=True)
    return target, seconds, True


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------


def machine_record() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):  # the layout differs across numpy versions
        blas = {}
    threads = None
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                threads = int(getattr(lib, sym)())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": threads,
    }


# ---------------------------------------------------------------------------
# One workload run
# ---------------------------------------------------------------------------


def measure_import() -> float:
    """Seconds to import the package modules the workloads use, in a fresh
    interpreter (the median of SETUP_REPEATS child processes)."""
    code = ("import time; t = time.perf_counter(); "
            "import sparsepose.pipeline, sparsepose.synthetic, sparsepose.metrics; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], check=True, env=_package_env(),
                             capture_output=True, text=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_window(work, seconds: float, tracer=None, min_passes: int = 1):
    """Whole passes until `seconds` have elapsed."""
    deadline = time.perf_counter() + seconds
    passes, ops = [], []
    while True:
        pass_s, op_ms = work.run_pass(tracer)
        passes.append(pass_s)
        ops.extend(op_ms)
        if time.perf_counter() >= deadline and len(passes) >= min_passes:
            return passes, ops


def run_workload(args) -> dict:
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    input_dir, generate_s, generated = ensure_inputs(args.workload, args.seed)

    t0 = time.perf_counter()
    import workloads  # imports the package
    import_in_process = time.perf_counter() - t0

    work_dir = os.path.join(CACHE, f"run-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        work = workloads.WORKLOADS[args.workload](workloads.bundle_dirs(input_dir), work_dir)
        if args.trace:
            result = _traced(work, args)
        else:
            result = _untraced(work, args)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result["info"].update(generate_s=(generate_s, "s"), inputs_generated_now=(int(generated), "bool"),
                          import_in_process_s=(import_in_process, "s"))
    result["machine"] = machine_record()
    return result


def _untraced(work, args) -> dict:
    loads = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        work.setup()
        loads.append(time.perf_counter() - t0)
    import_s, load_s = measure_import(), statistics.median(loads)
    setup_s = import_s + load_s
    work.warmup()
    passes, ops = run_window(work, args.seconds, min_passes=2)
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "op_ms_p50": (statistics.median(ops), "ms"),
        "op_ms_p90": (_quantile(ops, 90), "ms"),
        "pass_s": (statistics.median(passes), "s"),
    }
    info = {"ops": (len(ops), "count"), "passes": (len(passes), "count"),
            "setup_import_s": (import_s, "s"), "setup_load_s": (load_s, "s")}
    info.update(work.summary())
    return {"metrics": metrics, "info": info, "work": work}


def _traced(work, args) -> dict:
    """A cold traced pass first, so the process's first TSDF view is traced
    as a user's one-shot `fuse` would see it; then warm passes alternating
    untraced and traced, whose medians give the tracing overhead."""
    import layers
    from tracer import Tracer

    tracer = Tracer()
    layers.install(tracer)
    setup_op = tracer.begin_op("setup")
    work.setup()
    tracer.end_op(setup_op)
    work.run_pass(tracer)
    tracer.unpatch()
    cold_ops = len(tracer.ops)
    deadline = time.perf_counter() + args.seconds
    plain_ops, traced_ops = [], []
    while time.perf_counter() < deadline or not traced_ops:
        plain_ops.extend(work.run_pass()[1])
        layers.install(tracer)
        traced_ops.extend(work.run_pass(tracer)[1])
        tracer.unpatch()

    values = layers.per_layer(tracer, work.op_kind, skip_ops=cold_ops)
    traced_p50 = statistics.median(traced_ops)
    plain_p50 = statistics.median(plain_ops)
    values["trace.op_ms"] = traced_p50
    values["trace.overhead_ms"] = traced_p50 - plain_p50
    spans_path = os.path.join(CACHE, f"spans-{args.workload}-{args.seed}.json")
    with open(spans_path, "w") as f:
        json.dump({"ops": tracer.ops, "spans": tracer.records()}, f)
    spec = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
    metrics = {name: (float(values.get(name, 0.0)), unit) for name, unit in spec.items()}
    info = {"untraced_op_ms": (plain_p50, "ms"), "spans": (len(tracer.spans), "count"),
            "span_file": (os.path.relpath(spans_path, ROOT), "path")}
    split = layers.top_level_split(tracer, work.op_kind, skip_ops=cold_ops)
    info.update({f"split.{name}": (ms, "ms/op") for name, ms in split.items()})
    info["split.total"] = (sum(split.values()), "ms/op")
    info.update(work.summary())
    return {"metrics": metrics, "info": info, "work": work}


def load_spec() -> dict:
    with open(SPEC_PATH) as f:
        return json.load(f)


def emit(args, result) -> None:
    work = result["work"]
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  seconds {args.seconds}")
    for key, value in result["machine"].items():
        print(f"machine.{key} = {value}")
    for name, (value, unit) in {**result["info"], **result["metrics"]}.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{name} = {shown} {unit}")
    for failure in work.failures:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": work.failed == 0,
        "attempted": work.attempted,
        "failed": work.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }))


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    summary = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            out = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(out.stdout)
            sys.stderr.write(out.stderr)
            if out.returncode != 0:
                return out.returncode
            summary[f"{name}/trace{trace}"] = json.loads(out.stdout.strip().splitlines()[-1])
    os.makedirs(CACHE, exist_ok=True)
    with open(os.path.join(CACHE, f"report-{args.seed}.json"), "w") as f:
        json.dump(summary, f, indent=2)
    attempted = sum(r["attempted"] for r in summary.values())
    failed = sum(r["failed"] for r in summary.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--generate", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "sparsepose")) or not os.path.exists(SPEC_PATH):
        print(f"perfbench: no sparsepose sources under {SRC} or no BENCHMARK.json", file=sys.stderr)
        return 2
    if args.generate:
        sys.path.insert(0, BENCH_DIR)
        import workloads

        workloads.generate(args.workload, args.seed, args.generate)
        return 0
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.workload is None:
        return run_all(args)
    emit(args, run_workload(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
