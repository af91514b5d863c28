"""oqsynth benchmark: synthesize a channel, ship the artefacts, reach the oracle verdict.

Run from the repository root:

    python3 perfbench/run.py                       # every workload, one row each
    python3 perfbench/run.py --workload mixer-shared --seed 3 --seconds 50 --trace 0

Each workload runs in its own child process under an address-space limit,
so an oversized state merge raises MemoryError and counts as a failed job
instead of exhausting the host. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` wraps oqsynth's public functions from outside and
reports per-layer metrics plus the tracing overhead. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time counts from here, before numpy is imported

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

ADDRESS_SPACE_LIMIT = 3 << 30  # bytes, per workload process
SETUP_REPEATS = 3  # set-ups per run; setup_s is their median
RUN_TIMEOUT = 170.0  # seconds for every child of one workload together
# One BLAS thread: the workloads are dominated by single-threaded numpy
# code, and one thread keeps timings steady on a shared host.
BLAS_THREADS = 1

# The bounded end-to-end metrics. The per-job latency medians and
# error_rate are printed beside them, not bounded: error_rate is 0 on a
# correct run, and the medians spread furthest across runs (see README).
END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "synth_tail_ms": "ms",
    "verify_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "artifact_bytes": "B",
}


def per_layer_units() -> dict[str, str]:
    from tracing import GATE_KINDS, TRACED

    units = {}
    for qual in TRACED:
        units[f"{qual}.calls"] = "calls/job"
        units[f"{qual}.s"] = "s/job"
        units[f"{qual}.self_s"] = "s/job"
    units["simulator.run.peak_bytes"] = "B"
    units["simulator.run.gates_per_s"] = "1/s"
    units["circuit.sidecar_bytes"] = "B/job"
    units["circuit.text_bytes"] = "B/job"
    units["circuit.num_qubits"] = "qubits/job"
    for kind in GATE_KINDS:
        units[f"circuit.gates.{kind}"] = "gates/job"
    units["channel.json_bytes"] = "B/job"
    units["trace.overhead"] = "ratio"
    units["split.predicted_share"] = "ratio"
    return units


# --- child: one workload in one process ---------------------------------------


def _blas_context(np) -> dict:
    info = {"threads_requested": BLAS_THREADS}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    # OpenBLAS reports its live thread count; threadpoolctl is not required.
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _context(np, wl, seed: int) -> dict:
    import platform

    from workloads import EXCLUDED

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": _blas_context(np),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "address_space_limit": ADDRESS_SPACE_LIMIT,
        "workload": wl.shape(),
        "excluded": list(EXCLUDED),
    }


def _loop(wl, run_job, seconds: float) -> None:
    """Call ``run_job(0)``, ``run_job(1)``, ... until ``seconds`` have passed.

    The loop stops only at the end of a round: one job of each method in
    the rotation, so every round has the same method mix.
    """
    k = len(wl.methods)
    n = 0
    t_end = time.perf_counter() + seconds
    while True:
        run_job(n)
        n += 1
        if time.perf_counter() >= t_end and n % k == 0:
            return


def _job_time(r) -> float:
    return (r.synth_s or 0.0) + (r.verify_s or 0.0)


def _e2e(results, k: int) -> tuple[dict, dict]:
    """Bounded metrics, and the per-phase latency median and tail with its percentile.

    ``jobs_per_s`` is the median over rounds (one job of each of the ``k``
    methods, in order) of a round's verified jobs over its time, so a
    stall of a few seconds moves it less than a whole-run mean.
    """
    from jobs import tail

    rates = []
    for i in range(0, len(results) - k + 1, k):
        rnd = results[i:i + k]
        timed = sum(map(_job_time, rnd))
        rates.append(sum(r.failure is None for r in rnd) / timed if timed else 0.0)
    ok = [r for r in results if r.failure is None]
    metrics = {
        "jobs_per_s": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "artifact_bytes": statistics.fmean(r.artifact_bytes for r in ok) if ok else float("nan"),
    }
    latency = {}
    for name in ("synth", "verify"):
        xs = [1e3 * t for r in results if (t := getattr(r, f"{name}_s")) is not None]
        value, pct = tail(xs) if xs else (float("nan"), float("nan"))
        metrics[f"{name}_tail_ms"] = value
        latency[name] = {
            "p50_ms": statistics.median(xs) if xs else float("nan"),
            "tail_ms": value,
            "tail_percentile": pct,
            "samples": len(xs),
        }
    latency["rounds"] = len(rates)
    return metrics, latency


def _per_layer(tracer, traced, untraced, wl) -> tuple[dict, dict]:
    from tracing import GATE_KINDS

    n = len(traced)
    metrics = tracer.layer_metrics(n)
    peaks = {r.method: r.peak_bytes for r in traced if r.peak_bytes is not None}
    c = tracer.counts
    run_s = sum(s[2] - s[1] for s in tracer.spans if s[0] == "simulator.run")
    metrics["simulator.run.peak_bytes"] = max(peaks.values(), default=0)
    metrics["simulator.run.gates_per_s"] = c["simulator.run.gates"] / run_s if run_s else 0.0
    for key in ("circuit.sidecar_bytes", "circuit.text_bytes", "circuit.num_qubits"):
        metrics[key] = c[key] / n
    for kind in GATE_KINDS:
        metrics[f"circuit.gates.{kind}"] = c[f"circuit.gates.{kind}"] / n
    metrics["channel.json_bytes"] = statistics.fmean(r.json_bytes for r in traced)
    metrics["trace.overhead"] = sum(map(_job_time, traced)) / sum(map(_job_time, untraced))
    share = tracer.share(wl.dominant)
    metrics["split.predicted_share"] = share
    prediction = {
        "dominant_layers": list(wl.dominant),
        "share_of_job_time": share,
        "engine_share": tracer.share(("simulator.run",)),
        "holds": share > 0.5,
        "by_method_peak_bytes": peaks,
    }
    return metrics, prediction


def child(args) -> int:
    try:
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        limit = ADDRESS_SPACE_LIMIT if hard == resource.RLIM_INFINITY else min(hard, ADDRESS_SPACE_LIMIT)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    except (ValueError, OSError) as exc:
        print(f"warning: cannot limit the address space: {exc}", file=sys.stderr)
    sys.path.insert(0, str(SRC))
    import numpy as np
    import oqsynth

    if Path(oqsynth.__file__).resolve().parent != SRC / "oqsynth":
        print(f"error: imported oqsynth from {oqsynth.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import jobs
    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    workdir = WORK / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = jobs.Runner(wl, args.seed, str(workdir))
        warm = [runner.run(i, warmup=True) for i in range(len(wl.methods))]
        setup_s = time.perf_counter() - _T0
        out = {
            "setup_s": setup_s,
            "warmup_failures": [r.failure for r in warm if r.failure is not None],
        }
        if args.setup_only:
            print(json.dumps(out))
            return 0
        out["context"] = _context(np, wl, args.seed)
        results = []
        if args.trace:
            tracer = tracing.Tracer()
            untraced = []

            def pair(i):
                # the same job untraced and traced, in alternating order, so
                # the overhead ratio compares runs made close together
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    if not traced:
                        untraced.append(runner.run(i))
                        continue
                    tracer.install()
                    runner.tracer = tracer
                    try:
                        results.append(runner.run(i))
                    finally:
                        runner.tracer = None
                        tracer.uninstall()

            _loop(wl, pair, args.seconds)
            out["metrics"], out["prediction"] = _per_layer(tracer, results, untraced, wl)
            results += untraced
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl"
            tracer.write(spans)
            out["spans_file"] = str(spans.relative_to(ROOT))
        else:
            _loop(wl, lambda i: results.append(runner.run(i)), args.seconds)
            out["metrics"], out["latency"] = _e2e(results, len(wl.methods))
        out["attempted"] = len(results)
        out["failures"] = [f"job {r.index} ({r.method}): {r.failure}" for r in results
                           if r.failure is not None]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            WORK.rmdir()
    print(json.dumps(out))
    return 0


# --- parent: children, set-up median, report ------------------------------------


def _spawn(args, deadline: float, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload child exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT
    setups = []
    warm_failures = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            r = _spawn(args, deadline, setup_only=True)
            setups.append(r["setup_s"])
            warm_failures += r["warmup_failures"]
    r = _spawn(args, deadline)
    setups.append(r["setup_s"])
    warm_failures += r["warmup_failures"]
    r["warmup_failures"] = warm_failures
    failed = len(r["failures"])
    r["failed"] = failed
    r["error_rate"] = failed / r["attempted"]
    if not args.trace:
        r["metrics"]["setup_s"] = statistics.median(setups)
        r["setup_samples"] = setups
    return r


def _row(name: str, r: dict, units: dict) -> str:
    """One row per workload; a traced run adds one line per layer."""
    m = r["metrics"]
    status = f"error_rate={r['error_rate']:.6g} ({r['failed']}/{r['attempted']})"
    if "jobs_per_s" in m:
        p50 = [f"{ph}_p50_ms={r['latency'][ph]['p50_ms']:.6g} ms" for ph in ("synth", "verify")]
        return "  ".join([f"{name:16s}"] + [f"{k}={m[k]:.6g} {u}" for k, u in units.items()] + p50 + [status])
    from tracing import TRACED

    lines = [f"{name:16s}  {status}  trace.overhead={m['trace.overhead']:.4g}  "
             f"split.predicted_share={m['split.predicted_share']:.4g}"]
    lines += [f"  {q:38s} calls={m[q + '.calls']:<8.4g} s={m[q + '.s']:<10.4g} self_s={m[q + '.self_s']:.4g}"
              for q in TRACED]
    lines.append("  " + "  ".join(f"{k}={m[k]:.6g} {u}" for k, u in units.items()
                                  if k.rsplit(".", 1)[0] not in TRACED and not k.startswith(("trace.", "split."))))
    return "\n".join(lines)


def parent(args) -> int:
    if not (SRC / "oqsynth" / "__init__.py").is_file():
        print(f"error: no oqsynth sources under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = per_layer_units() if args.trace else END_TO_END
    results = {}
    for name in names:
        args.workload = name
        try:
            results[name] = r = run_workload(args)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        for f in r["failures"] + r["warmup_failures"]:
            print(f"FAILED {name}: {f}", file=sys.stderr)
        detail = {k: v for k, v in r.items() if k != "metrics"}
        print(json.dumps({"workload": name, **detail}))
        print(_row(name, r, units))
    prefix = len(names) > 1
    metrics = {
        (f"{name}.{key}" if prefix else key): {"value": r["metrics"][key], "unit": unit}
        for name, r in results.items()
        for key, unit in units.items()
    }
    print(json.dumps({
        "correct": all(not r["failed"] and not r["warmup_failures"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return child(args) if args.child else parent(args)


if __name__ == "__main__":
    sys.exit(main())
