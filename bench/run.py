"""Run one entkit benchmark workload and print its metrics.

    python3 bench/run.py --workload verify|classify-large|path|cli \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; entkit is imported from its ``src/``.
Set-up (imports, inputs, input files, warm-up) is timed, then the ops of the
workload's list run in turn, one at a time, pass after pass, until
``--seconds`` are used up (at least the workload's minimum number of whole
passes). Every output is checked. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the details: machine, per-pass and
per-op figures, failure reasons.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends half of
``--seconds`` untraced, then the other half in whole passes with the span
wrappers of ``spans.py`` installed, and reports the per-layer metrics (per
pass) plus the tracing overhead; its spans are written as JSONL under
``bench/out/``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
DEFAULT_SEED = 0xB05C
SETUP_REPS = 3

# BLAS threads are fixed before numpy loads, so every run uses the same count.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest sizes (smoke test)")
    return p.parse_args(argv)


def import_entkit():
    """Import entkit from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "entkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no entkit sources under {src}")
    sys.path.insert(0, str(src))
    import entkit

    if Path(entkit.__file__).resolve().parent != (src / "entkit").resolve():
        raise SystemExit(f"error: entkit imported from {entkit.__file__}, not {src}")


def import_seconds() -> float:
    """Median over SETUP_REPS fresh interpreters of the time to import entkit.

    The benchmark process imports entkit once; fresh interpreters repeat that
    part of set-up so that it is a median like the rest.
    """
    code = "import time; t = time.perf_counter(); import entkit; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    times = [
        float(subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                             text=True, check=True, timeout=120).stdout)
        for _ in range(SETUP_REPS)
    ]
    return statistics.median(times)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads() -> dict:
    """Thread count reported by each loaded OpenBLAS library."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return found
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                found[os.path.basename(lib)] = fn()
                break
    return found


def machine() -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": BLAS_THREADS,
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_commit": git_commit(),
    }


def set_up(workload, seed: int, workdir: str, tiny: bool):
    """Build the inputs and warm up: one pass of the tiny op list, one BLAS call."""
    import numpy as np

    ops = workload.build(seed, os.path.join(workdir, "inputs"), tiny)
    warm = run_passes(workload.build(seed, os.path.join(workdir, "warmup"), True), 0, 1)
    a = np.random.default_rng(seed).standard_normal((256, 256)) + 0j
    np.linalg.svd(a, compute_uv=False)
    return ops, warm["failures"]


def run_passes(ops, seconds: float, min_passes: int, recorder=None, whole_passes: bool = False) -> dict:
    """Closed loop over ops, one at a time, until `seconds` are used up.

    After `min_passes` whole passes the loop stops before the first op of
    which, by its mean latency so far, less than half would fit in `seconds`
    (with `whole_passes`, before the first such pass). A run so lasts
    `seconds` on average, whatever the host's speed, and overruns by at most
    half an op. Outputs are checked after each pass, outside the timed region.
    """
    latency_s: dict[str, list[float]] = {op.label: [] for op in ops}
    pass_s, failures = [], []
    attempted = failed = 0
    start = time.perf_counter()
    stop = False
    while not stop:
        results = []
        if recorder is not None:
            recorder.active = True
        p0 = time.perf_counter()
        for i, op in enumerate(ops):
            if len(pass_s) >= min_passes and (i == 0 or not whole_passes):
                expected = statistics.fmean(pass_s if whole_passes else latency_s[op.label])
                if time.perf_counter() - start + expected / 2 > seconds:
                    stop = True
                    break
            t = time.perf_counter()
            try:
                results.append((op, op.run(), None))
            except Exception as exc:  # a failing op is counted, the run goes on
                results.append((op, None, f"{type(exc).__name__}: {exc}"))
            latency_s[op.label].append(time.perf_counter() - t)
        else:
            pass_s.append(time.perf_counter() - p0)
        if recorder is not None:
            recorder.active = False
        for op, out, reason in results:
            if reason is None:
                try:
                    reason = op.check(out)
                except Exception as exc:
                    reason = f"check raised {type(exc).__name__}: {exc}"
            attempted += 1
            if reason is not None:
                failed += 1
                failures.append(f"{op.label}: {reason}")
    return {"pass_s": pass_s, "latency_s": latency_s, "attempted": attempted,
            "failed": failed, "failures": failures}


def op_means(run: dict) -> dict[str, float]:
    """Mean latency of each op of the list over the run, in seconds."""
    return {label: statistics.fmean(ts) for label, ts in run["latency_s"].items()}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup_s: float, run: dict) -> tuple[dict, dict]:
    means = op_means(run)
    wall_s = sum(means.values())
    tail_label = max(means, key=means.get)
    latency_s = run["latency_s"]
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(wall_s, "s"),
        "ops_per_s": metric(len(means) / wall_s, "1/s"),
        "op_p50_ms": metric(statistics.median(means.values()) * 1e3, "ms"),
        "op_tail_ms": metric(means[tail_label] * 1e3, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "passes": len(run["pass_s"]),
        "pass_s": run["pass_s"],
        "ops": sum(len(ts) for ts in latency_s.values()),
        "op_samples": {label: len(ts) for label, ts in latency_s.items()},
        "op_mean_ms": {label: m * 1e3 for label, m in means.items()},
        "op_median_ms": {label: statistics.median(ts) * 1e3 for label, ts in latency_s.items()},
        "op_min_ms": {label: min(ts) * 1e3 for label, ts in latency_s.items()},
        "op_tail": tail_label,
        "failed_frac": run["failed"] / run["attempted"],
    }
    return metrics, detail


def per_layer(recorder, untraced: dict, traced: dict) -> dict:
    import spans

    passes = len(traced["pass_s"])
    metrics = {}

    def add(name, value, unit):
        metrics[name] = metric(value / passes, unit)

    def add_fn(name, with_calls=True):
        if with_calls:
            add(name + ".calls", recorder.calls.get(name, 0), "count")
        add(name + ".self_s", recorder.self_ns.get(name, 0) / 1e9, "s")

    for layer, _, functions in spans.LAYER_FUNCTIONS:
        for fname in functions:
            add_fn(f"{layer}.{fname}")
    add_fn("verify.run_all", with_calls=False)
    for suite in spans.VERIFY_SUITES:
        add_fn(f"verify.{suite}", with_calls=False)
    for command in spans.CLI_COMMANDS:
        add_fn(f"cli.{command}", with_calls=False)
    for name, _, _ in spans.KERNELS:
        add_fn(name)
        add(name + ".flops_computed", recorder.counts.get(name + ".flops_computed", 0), "flop")
    counts = recorder.counts
    add("classify.witness_candidates", counts.get("classify.witness_candidates", 0), "count")
    add("classify.oracle_candidates", counts.get("classify.oracle_candidates", 0), "count")
    candidates = counts.get("classify.witness_candidates", 0)
    ratio = counts.get("classify.entangling_verdicts", 0) / candidates if candidates else 0.0
    metrics["classify.witness_hit_ratio"] = metric(ratio, "ratio")
    add("serialize.bytes_read", counts.get("serialize.bytes_read", 0), "bytes")
    add("serialize.bytes_written", counts.get("serialize.bytes_written", 0), "bytes")
    traced_wall = sum(op_means(traced).values())
    metrics["trace.overhead_s"] = metric(traced_wall - sum(op_means(untraced).values()), "s")
    total = sum(traced["pass_s"]) * 1e9
    metrics["trace.uncovered_frac"] = metric((total - recorder.top_ns) / total, "fraction")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    import_entkit()
    import workloads

    import_s = time.perf_counter() - T0
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR)
    try:
        setup_reps, warm_failures = [], []
        for _ in range(SETUP_REPS):
            t = time.perf_counter()
            ops, warm = set_up(workload, args.seed, workdir, args.tiny)
            setup_reps.append(time.perf_counter() - t)
            warm_failures += warm
        import_reps_s = import_seconds()
        setup_s = import_reps_s + statistics.median(setup_reps)

        # A traced run spends half its time untraced, half traced.
        seconds = args.seconds / 2 if args.trace else args.seconds
        untraced = run_passes(ops, seconds, workload.min_passes)
        runs = [untraced]
        metrics, detail = end_to_end(setup_s, untraced)
        if args.trace:
            import spans

            recorder = spans.Recorder()
            patches = spans.install(recorder)
            try:
                traced = run_passes(ops, seconds, 1, recorder, whole_passes=True)
            finally:
                patches.restore()
            runs.append(traced)
            trace_path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl"
            recorder.write_jsonl(str(trace_path))
            detail["traced_passes"] = len(traced["pass_s"])
            detail["trace_file"] = str(trace_path.relative_to(ROOT))
            detail["spans_dropped"] = recorder.dropped
            metrics = per_layer(recorder, untraced, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    failures = warm_failures + [f for r in runs for f in r["failures"]]
    detail.update({
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "import_s": import_s,
        "import_median_s": import_reps_s,
        "setup_reps_s": setup_reps,
        "failures": failures[:20],
        "machine": machine(),
    })
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not warm_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
