"""One benchmark job: generate a channel, synthesize it through the CLI, verify what shipped.

The timed synth phase is ``cli.main(["synth", ...])`` in-process. The timed
verify phase reads the written files back (Kraus JSON, sidecar, circuit
text), runs every input state through ``simulator.run`` and compares with
``channel.apply_channel``. Outside the timed windows each output is checked
again against the benchmark's own numpy reference on the generated
operators, and the parsed circuit is re-exported and compared byte for byte
with the written text.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from oqsynth import channel, circuit, cli, simulator

RESIDUAL_TOL = 1e-9
PROBABILITY_TOL = 1e-12
ARTIFACTS = ("circuit", "sidecar", "metrics")  # what synth writes


def _gaussian(rng, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def make_channel(rng, n: int, m: int) -> list[np.ndarray]:
    """Complex Gaussians G_k normalized by S^-1/2, S = sum G_k^dag G_k."""
    d = 2**n
    gs = [_gaussian(rng, (d, d)) for _ in range(m)]
    w, v = np.linalg.eigh(sum(g.conj().T @ g for g in gs))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return [g @ inv_sqrt for g in gs]


def make_state(rng, n: int, pure: bool) -> np.ndarray:
    d = 2**n
    if pure:
        psi = _gaussian(rng, d)
        return np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    g = _gaussian(rng, (d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def kraus_json(ops) -> str:
    d = ops[0].shape[0]
    pairs = [np.stack([op.real, op.imag], axis=-1).tolist() for op in ops]
    return json.dumps({"dim": d, "operators": pairs})


@dataclass
class JobResult:
    index: int
    method: str
    synth_s: float | None = None
    verify_s: float | None = None
    artifact_bytes: int = 0
    json_bytes: int = 0
    failure: str | None = None
    peak_bytes: int | None = None  # traced runs only: tracemalloc peak of one simulator.run


class Runner:
    """Runs the jobs of one workload in a scratch directory."""

    def __init__(self, workload, seed: int, workdir: str):
        self.wl = workload
        self.seed = seed
        self.tracer = None  # set while a traced run is in progress
        self.probed: set[str] = set()  # methods whose peak bytes a traced run has measured
        self.paths = {
            k: os.path.join(workdir, f"{k}.{ext}")
            for k, ext in (("kraus", "json"), ("circuit", "txt"), ("sidecar", "json"), ("metrics", "json"))
        }

    def _phase(self, name: str):
        tr = self.tracer
        return tr.span(name) if tr is not None and tr.job is not None else contextlib.nullcontext()

    def run(self, index: int, warmup: bool = False) -> JobResult:
        """Run job ``index``; its inputs depend only on (seed, warm-up flag, index)."""
        wl = self.wl
        method, group = wl.methods[index % len(wl.methods)]
        rng = np.random.default_rng([self.seed, int(warmup), index])
        ops = make_channel(rng, wl.n, wl.m)
        states = [make_state(rng, wl.n, pure=(i % 2 == 0)) for i in range(wl.inputs)]
        res = JobResult(index=index, method=method)
        p = self.paths
        with open(p["kraus"], "w", encoding="utf-8") as fh:
            fh.write(kraus_json(ops))
        for k in ARTIFACTS:  # a file the program fails to write must not be read from the last job
            with contextlib.suppress(FileNotFoundError):
                os.remove(p[k])
        gc.collect()  # every job starts from the same collector state
        if self.tracer is not None and not warmup:
            self.tracer.job = index
        try:
            try:
                circ, text, outputs = self._timed(res, method, group, states)
            finally:
                if self.tracer is not None:
                    self.tracer.job = None
            res.artifact_bytes = sum(os.path.getsize(p[k]) for k in ARTIFACTS)
            res.failure = _check(circ, text, outputs, ops, states, method, group)
            if self.tracer is not None and res.failure is None and method not in self.probed:
                self.probed.add(method)
                res.peak_bytes = peak_run_bytes(circ, states[0])
        except Exception as exc:  # a failed job is counted, never fatal
            res.failure = f"{type(exc).__name__}: {exc}"
        return res

    def _timed(self, res: JobResult, method: str, group: int, states):
        p = self.paths
        argv = [
            "synth", p["kraus"], "--method", method, "--group", str(group), "--mode", self.wl.mode,
            "--out", p["circuit"], "--matrices", p["sidecar"], "--metrics", p["metrics"],
        ]
        t0 = time.perf_counter()
        with self._phase("bench.synth"), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        t1 = time.perf_counter()
        res.synth_s = t1 - t0
        if code != 0:
            raise RuntimeError(f"synth exited {code}")
        outputs = []
        with self._phase("bench.verify"):
            with open(p["kraus"], encoding="utf-8") as fh:
                raw = fh.read()
            kset = channel.kraus_from_json_dict(json.loads(raw))
            with open(p["sidecar"], encoding="utf-8") as fh:
                mats = circuit.parse_sidecar(fh.read())
            with open(p["circuit"], encoding="utf-8") as fh:
                text = fh.read()
            circ = circuit.parse_circuit(text, mats)
            for rho in states:
                got, prob = simulator.run(circ, rho)
                residual = float(np.abs(got.matrix - channel.apply_channel(kset, rho)).max())
                outputs.append((got.matrix, prob, residual))
        res.verify_s = time.perf_counter() - t1
        res.json_bytes = len(raw.encode())
        return circ, text, outputs


def _check(circ, text, outputs, ops, states, method, group) -> str | None:
    """Independent gate; every comparison is written so that NaN fails."""
    expected_p = 1.0 if method == "stinespring" else group / len(ops)
    for i, (rho, (got, prob, residual)) in enumerate(zip(states, outputs)):
        want = sum(op @ rho @ op.conj().T for op in ops)
        own = float(np.abs(got - want).max())
        if not (residual <= RESIDUAL_TOL):
            return f"input {i}: oracle residual {residual:.3e}"
        if not (own <= RESIDUAL_TOL):
            return f"input {i}: reference residual {own:.3e}"
        if not (abs(prob - expected_p) <= PROBABILITY_TOL):
            return f"input {i}: success probability {prob!r}, expected {expected_p!r}"
    if circuit.export_circuit(circ) != text:
        return "re-exported circuit differs from the written text"
    return None


def peak_run_bytes(circ, rho) -> int:
    """tracemalloc peak (numpy registers its buffers) inside one simulator.run call."""
    tracemalloc.start()
    try:
        simulator.run(circ, rho)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def tail(samples) -> tuple[float, float]:
    """Value and percentile of the highest order statistic with at least 10 samples above it.

    Below 21 samples that statistic is not above the median, so the median
    (percentile 50) is reported instead.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 21:
        return float(np.median(xs)), 50.0
    return xs[n - 11], 100.0 * (n - 10) / n
