"""rvflstream benchmark: one workload, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload pixel_bayes --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout that holds this
file. Each repetition is one full ``rvflstream run`` through the public
runner API (``run_experiment`` plus ``emit_report``), and every
repetition's outputs are checked. Repetitions continue while the next
one is expected to end within ``--seconds``; there is always at least
one.

``--trace 0`` reports the end-to-end metrics. Set-up is timed in fresh
interpreters (``setup_probe.py``) so the import of rvflstream is cold
each time.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics from the traced ones, plus the tracing overhead.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Spans of the last traced repetition and a results record
with the environment are written under ``.bench_work/results/``.
"""

import argparse
import contextlib
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

import workloads
from tracing import Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 15  # timed cold set-ups, after one untimed warm-up
MIN_BEYOND = 10  # samples a reported percentile must have beyond it
PROBE_TIMEOUT_S = 120

# Name -> unit, in the order they are printed.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "observe_p50_ms": "ms",
    "observe_p90_ms": "ms",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
}
# Printed and recorded with every run but kept out of the JSON metrics,
# which must be nonzero on every workload and steady across seeds: a
# healthy run has fail_frac 0, offline_gap exists for ridge only, and
# final_acc and cum_regret are functions of the seed that swing with it
# in the lam = 1e-6 collapse on pixel_bayes.
REPORTED_ONLY = {"final_acc": "1", "cum_regret": "1", "offline_gap": "1",
                 "fail_frac": "1"}

PER_LAYER = {
    "solvers.woodbury_update.calls": "count",
    "solvers.woodbury_update.busy_ms": "ms",
    "solvers.woodbury_update.gflops": "GFLOP/s",
    "solvers.woodbury_update.roofline_frac": "1",
    "solvers.solve_spd.calls": "count",
    "solvers.solve_spd.busy_ms": "ms",
    "solvers.solve_spd.ldl_fallbacks": "count",
    "learners.step.calls": "count",
    "learners.step.busy_ms": "ms",
    "learners.step.self_ms": "ms",
    "learners.compute_adaptive_k.calls": "count",
    "learners.compute_adaptive_k.busy_ms": "ms",
    "learners.observe.self_ms": "ms",
    "learners.k_clamp_frac": "1",
    "network.extract_features.calls": "count",
    "network.extract_features.busy_ms": "ms",
    "network.extract_features.rows": "count",
    "learners.per_learner_probs.busy_ms": "ms",
    "network.fuse_probs.busy_ms": "ms",
    "metrics.immediate.calls": "count",
    "metrics.immediate.busy_ms": "ms",
    "learners.fit_baseline.busy_ms": "ms",
    "runner.emit_report.busy_ms": "ms",
    "runner.emit_report.bytes": "B",
    "runner.run_experiment.self_ms": "ms",
    "stream.load.busy_ms": "ms",
    "stream.split.busy_ms": "ms",
    "stream.batchify.busy_ms": "ms",
    "runner.stream_sha256.busy_ms": "ms",
    "trace.overhead_frac": "1",
}


def supported_percentile(values, p, min_beyond=MIN_BEYOND):
    """The p-th percentile of values, if at least min_beyond lie beyond it.

    The count beyond is n - ceil(n * p / 100), so p90 needs n >= 100.
    Raises ValueError when the sample is too small to report p.
    """
    n = len(values)
    beyond = n - math.ceil(n * p / 100)
    if beyond < min_beyond:
        raise ValueError(
            f"p{p} of {n} samples has {beyond} beyond it, need {min_beyond}"
        )
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def blas_threads():
    """Effective thread count of every OpenBLAS loaded in this process."""
    found = {}
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment(workload, seed):
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=30)
        lines = git.stdout.split()
        commit = lines[1] if git.returncode == 0 and Path(lines[0]) == ROOT else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS") if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def setup_times(config_path):
    """Cold set-up times of fresh interpreters, and the streams' hashes.

    The first probe only warms the file cache and is not timed.
    """
    times, hashes = [], set()
    for _ in range(SETUP_REPEATS + 1):
        probe = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
             str(config_path)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        out = json.loads(probe.stdout.strip().splitlines()[-1])
        times.append(out["setup_s"])
        hashes.add(out["stream_sha256"])
    return times[1:], hashes


def run_once(tree, out_dir, tracer=None):
    """One ``rvflstream run``: returns (report, model, stream, run_s).

    The model and the stream are the ones the runner builds, kept by
    swapping the runner's ContinualModel and stream_sha256 names for
    recorders for the length of the call; the loop never sees the
    difference.
    """
    from rvflstream import runner, validate_config

    config = validate_config(tree)
    models, streams = [], []
    model_class, stream_sha256 = runner.ContinualModel, runner.stream_sha256

    def record_model(*args, **kwargs):
        models.append(model_class(*args, **kwargs))
        return models[-1]

    def record_stream(stream):
        streams.append(stream)
        return stream_sha256(stream)

    runner.ContinualModel, runner.stream_sha256 = record_model, record_stream
    try:
        with tracer if tracer is not None else contextlib.nullcontext():
            start = time.perf_counter()
            report = runner.run_experiment(config)
            runner.emit_report(report, out_dir)
            run_s = time.perf_counter() - start
    finally:
        runner.ContinualModel, runner.stream_sha256 = model_class, stream_sha256
    return report, models[-1], streams[-1], run_s


def outputs(report):
    """The deterministic outputs of a run, for finiteness and identity checks."""
    trace = report.trace
    return {
        "stream_sha256": report.stream_hash,
        "final": dict(report.final),
        "trace": [list(trace.acc_seen), list(trace.acc_full), list(trace.regret),
                  list(trace.cum_regret), list(trace.kl)],
        "k_trace": [list(row) for row in report.k_trace_rows],
    }


def check(report, reference):
    """Reasons this run is wrong; empty when it is correct.

    A run is wrong if the learning loop read the task side channel, if
    any trace, k, final or wall-clock value is non-finite, or if its
    stream hash or outputs differ from the first run with this seed.
    """
    problems = []
    if not report.boundary_audit.get("ok"):
        problems.append(f"boundary audit failed: {report.boundary_audit}")
    out = outputs(report)
    values = [v for series in out["trace"] for v in series]
    values += [v for row in out["k_trace"] for v in row]
    values += [v for v in out["final"].values() if v is not None]
    values += list(report.wall_clock)
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite value in the report")
    if reference is not None:
        if out["stream_sha256"] != reference["stream_sha256"]:
            problems.append("stream_sha256 differs from the first run")
        elif out != reference:
            problems.append("outputs differ from the first run with this seed")
    return problems


def offline_gap(stream, model):
    """max over layers of |theta_rec - theta_off| / |theta_off| (Frobenius).

    theta_off is offline_ridge_fit on the whole stream with the model's
    own random features; only meaningful for the ridge style.
    """
    from rvflstream import offline_ridge_fit

    X = np.vstack([batch.X for batch in stream])
    Y = np.vstack([batch.Y for batch in stream])
    gaps = []
    for D, state in zip(model.eval_features(X), model.states):
        theta = offline_ridge_fit(D, Y, state.lam).theta
        gaps.append(np.linalg.norm(state.theta - theta) / np.linalg.norm(theta))
    return float(max(gaps))


def k_clamp_frac(report):
    """Share of recorded k values that sit on a clamp bound."""
    from rvflstream import learners

    bounds = (getattr(learners, "K_CLAMP_LO", 1e-6),
              getattr(learners, "K_CLAMP_HI", 1e6))
    values = [v for _, _, k_cur, k_next in report.k_trace_rows
              for v in (k_cur, k_next)]
    return sum(v in bounds for v in values) / len(values) if values else 0.0


def matmul_gflops(b, d, min_s=0.3, min_calls=10):
    """GFLOP/s of a plain ``D @ eta`` at (b, d), median of repeated calls."""
    rng = np.random.default_rng(0)
    D = rng.standard_normal((b, d))
    eta = rng.standard_normal((d, d))
    eta = eta @ eta.T
    times = []
    start = time.perf_counter()
    while len(times) < min_calls or time.perf_counter() - start < min_s:
        t0 = time.perf_counter()
        D @ eta
        times.append(time.perf_counter() - t0)
    return 2.0 * b * d * d / statistics.median(times) / 1e9


def layer_metrics(tracer, report):
    """Per-layer metrics of one traced repetition."""
    rows = summarize(tracer.spans)
    # solve_spd also runs in the offline baseline fits after the loop;
    # its metrics count only the calls under observe, the write path.
    write_path = summarize(tracer.spans, within="learners.observe")
    for name in ("solvers.solve_spd", "solvers.ldl_solve"):
        rows[name] = write_path[name]

    def row(name):
        return rows.get(name, {"calls": 0, "busy_ns": 0, "self_ns": 0})

    out = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = row(span)["calls"]
        elif field == "busy_ms":
            out[name] = row(span)["busy_ns"] / 1e6
        elif field == "self_ms":
            out[name] = row(span)["self_ns"] / 1e6
    out["solvers.solve_spd.ldl_fallbacks"] = row("solvers.ldl_solve")["calls"]
    out["network.extract_features.rows"] = tracer.counters["network.extract_features.rows"]
    out["runner.emit_report.bytes"] = tracer.counters["runner.emit_report.bytes"]
    busy_s = row("solvers.woodbury_update")["busy_ns"] / 1e9
    flops = tracer.counters["solvers.woodbury_update.flops"]
    out["solvers.woodbury_update.gflops"] = flops / busy_s / 1e9 if busy_s else 0.0
    out["learners.k_clamp_frac"] = k_clamp_frac(report)
    return out


def measure(tree, seconds, trace, out_dir):
    """Repeat the workload for about ``seconds``.

    With trace, repetitions alternate untraced and traced. A repetition
    that raises or fails its check is counted as failed, not fatal.
    Returns (reps, failures, tracers).
    """
    reps, failures, tracers = [], [], []
    reference = None
    start = time.perf_counter()
    rounds = 0
    while True:
        rounds += 1
        for traced in ((False, True) if trace else (False,)):
            tracer = Tracer() if traced else None
            try:
                report, model, stream, run_s = run_once(tree, out_dir, tracer)
            except Exception as exc:  # a failed run is a result, not a crash
                failures.append(f"{type(exc).__name__}: {exc}")
                continue
            problems = check(report, reference)
            if problems:
                failures.append("; ".join(problems))
                continue
            if reference is None:
                reference = outputs(report)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            reps.append({"traced": traced, "run_s": run_s, "report": report,
                         "model": model, "stream": stream, "rss_mb": rss_mb})
            if traced:
                tracers.append((tracer, report))
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            break
    return reps, failures, tracers


def end_to_end_metrics(reps, setup, rows_per_stream):
    """name -> (value, note) for every end-to-end metric.

    Peak RSS is read after the first run, so it is the high-water mark of
    a process that made one ``rvflstream run``, as a user's process does.
    """
    wall_ms = [w * 1e3 for r in reps for w in r["report"].wall_clock]
    run_s = [r["run_s"] for r in reps]
    rows = rows_per_stream * len(reps)
    return {
        "setup_s": (statistics.median(setup),
                    f"median of {len(setup)} cold set-ups"),
        "run_s": (statistics.median(run_s), f"median of {len(run_s)} runs"),
        "observe_p50_ms": (statistics.median(wall_ms),
                           f"median of {len(wall_ms)} observe calls"),
        "observe_p90_ms": (supported_percentile(wall_ms, 90),
                           f"p90 of {len(wall_ms)} observe calls"),
        "rows_per_s": (rows / (sum(wall_ms) / 1e3),
                       f"{rows} rows over {len(wall_ms)} observe calls"),
        "peak_rss_mb": (reps[0]["rss_mb"], "ru_maxrss after the first run"),
    }


def per_layer_metrics(reps, tracers):
    """name -> (value, note) for every per-layer metric."""
    per_rep = [layer_metrics(tracer, report) for tracer, report in tracers]
    note = f"median of {len(per_rep)} traced runs"
    metrics = {name: (statistics.median(m[name] for m in per_rep), note)
               for name in per_rep[0]}

    gflops = metrics["solvers.woodbury_update.gflops"][0]
    metrics["solvers.woodbury_update.gflops"] = (gflops, f"computed flops, {note}")
    shapes = Counter({key[1:]: n for key, n in tracers[-1][0].counters.items()
                      if isinstance(key, tuple)})
    if gflops and shapes:
        (b, d), _ = shapes.most_common(1)[0]
        ref = matmul_gflops(b, d)
        metrics["solvers.woodbury_update.roofline_frac"] = (
            gflops / ref, f"against D @ eta at b={b}, d={d}: {ref:.3f} GFLOP/s")
    else:
        metrics["solvers.woodbury_update.roofline_frac"] = (0.0, "no calls")

    traced_s = [r["run_s"] for r in reps if r["traced"]]
    plain_s = [r["run_s"] for r in reps if not r["traced"]]
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_s) / statistics.median(plain_s) - 1,
        f"median run_s of {len(traced_s)} traced over {len(plain_s)} untraced runs",
    )
    return {name: metrics[name] for name in PER_LAYER}


def print_self_times(tracer, run_s):
    print("self time by span, last traced run:")
    rows = sorted(summarize(tracer.spans).items(), key=lambda kv: -kv[1]["self_ns"])
    for name, row in rows:
        print(f"  {name:<32} {row['self_ns'] / 1e6:>12.3f} ms "
              f"{100 * row['self_ns'] / 1e9 / run_s:>6.1f}% {row['calls']:>8} calls")


def metric_line(name, value, unit, note):
    shown = float("nan") if value is None else value
    return f"{name:<40} {shown:>16.6g} {unit:<8} ({note})"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rvflstream" / "__init__.py").is_file():
        print(f"perfbench: no rvflstream sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rvflstream

    if Path(rvflstream.__file__).resolve().parent != SRC / "rvflstream":
        print(f"perfbench: imported rvflstream from {rvflstream.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}"
    run_dir = WORK / f"{tag}-{os.getpid()}"
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    try:
        tree = workloads.build(args.workload, args.seed, run_dir / "inputs")
        config_path = run_dir / "config.json"
        config_path.write_text(json.dumps(tree))
        env = environment(args.workload, args.seed)
        print("env " + json.dumps(env))

        setup, setup_hashes = ([], set()) if args.trace else setup_times(config_path)
        reps, failures, tracers = measure(tree, args.seconds, args.trace,
                                          run_dir / "report")
        for reason in failures:
            print(f"failed run: {reason}")
        if not reps or (args.trace and (not tracers or len(tracers) == len(reps))):
            print("perfbench: no run of each kind succeeded", file=sys.stderr)
            return 1

        # Checks and references after the timed region.
        problems = []
        stream_hash = reps[0]["report"].stream_hash
        if setup_hashes and setup_hashes != {stream_hash}:
            problems.append("set-up built another stream than the runner")
        # The last run is a traced one in traced mode; check() already
        # holds every run's outputs equal to the first run's.
        last = reps[-1]
        rows_per_stream = sum(len(batch.Y) for batch in last["stream"])
        gap = None
        if tree["style"]["kind"] == "ridge":
            gap = offline_gap(last["stream"], last["model"])
        attempted = len(reps) + len(failures)
        reported = {
            "final_acc": (last["report"].final["acc"], "final ACC"),
            "cum_regret": (last["report"].final["cum_regret"],
                           "final cumulative regret"),
            "offline_gap": (gap, "max over layers, ridge only"),
            "fail_frac": (len(failures) / attempted,
                          f"{len(failures)} of {attempted} runs failed"),
        }

        if args.trace:
            metrics, units = per_layer_metrics(reps, tracers), PER_LAYER
            tracer = tracers[-1][0]
            tracer.write(results_dir / f"{tag}.trace.jsonl")
            print_self_times(tracer, [r for r in reps if r["traced"]][-1]["run_s"])
        else:
            plain = [r for r in reps if not r["traced"]]
            metrics = end_to_end_metrics(plain, setup, rows_per_stream)
            units = END_TO_END

        for name, (value, note) in metrics.items():
            print(metric_line(name, value, units[name], note))
        for name, (value, note) in reported.items():
            print(metric_line(name, value, REPORTED_ONLY[name], note))
        for problem in problems:
            print(f"check failed: {problem}")

        values = {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()}
        record = {
            "env": env,
            "trace": args.trace,
            "metrics": values,
            "reported": {k: v for k, (v, _) in reported.items()},
            "stream_sha256": stream_hash,
            "failures": failures + problems,
        }
        (results_dir / f"{tag}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=2) + "\n")
        print(json.dumps({
            "correct": not failures and not problems,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": values,
        }))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
