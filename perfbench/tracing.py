"""Span tracing of oqsynth's public functions, installed from outside.

Each traced function is wrapped by object identity wherever any
``oqsynth.*`` module binds it, so names imported with ``from .x import f``
are caught too. Private names are never wrapped. Spans are kept in memory
as ``[name, start, end, parent, job]`` and written out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter

TRACED = (
    "cli.main",
    "channel.kraus_from_json_dict",
    "channel.validate_cptp",
    "channel.group_kraus",
    "channel.apply_channel",
    "linalg.svd_factorize",
    "linalg.complete_isometry",
    "dilation.stinespring_isometry",
    "dilation.sznagy_unitary",
    "dilation.svd_dilation",
    "circuit.assemble_simulation_circuit",
    "circuit.export_circuit",
    "circuit.opaque_sidecar",
    "circuit.parse_sidecar",
    "circuit.parse_circuit",
    "costmodel.combined_cost",
    "simulator.run",
)

GATE_KINDS = (
    "H", "T", "TDG", "CNOT", "OPAQUE_UNITARY", "MULTI_TARGET_CSWAP", "POSTSELECT", "TRACE_OUT",
)

# Benchmark-side root spans, one of each per job.
PHASES = ("bench.synth", "bench.verify")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job: int | None = None  # spans are recorded only while a job phase is open
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            with tracer.span(name):
                result = fn(*args, **kwargs)
            tracer._count(name, args, result)
            return result

        return wrapper

    def _count(self, name: str, args, result) -> None:
        c = self.counts
        if name == "circuit.opaque_sidecar":
            c["circuit.sidecar_bytes"] += len(result.encode())
        elif name == "circuit.export_circuit":
            c["circuit.text_bytes"] += len(result.encode())
        elif name == "circuit.parse_circuit":
            c["circuit.num_qubits"] += result.num_qubits
            for g in result.gates:
                c[f"circuit.gates.{g.kind}"] += 1
        elif name == "simulator.run":
            c["simulator.run.gates"] += len(args[0].gates)

    def install(self) -> None:
        """Replace every ``oqsynth.*`` binding of each traced function."""
        mods = [m for n, m in list(sys.modules.items()) if n == "oqsynth" or n.startswith("oqsynth.")]
        for qual in TRACED:
            mod, fname = qual.split(".")
            orig = getattr(sys.modules[f"oqsynth.{mod}"], fname)
            wrapper = self._wrap(qual, orig)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patches):
            setattr(m, attr, orig)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                out[s[3]] -= s[2] - s[1]
        return out

    def layer_metrics(self, jobs: int) -> dict[str, float]:
        """Per-job calls, inclusive seconds and self seconds of each traced layer."""
        own = self.self_times()
        out = {}
        for qual in TRACED:
            out[f"{qual}.calls"] = 0.0
            out[f"{qual}.s"] = 0.0
            out[f"{qual}.self_s"] = 0.0
        for s, self_s in zip(self.spans, own):
            if s[0] in PHASES:
                continue
            out[f"{s[0]}.calls"] += 1
            out[f"{s[0]}.s"] += s[2] - s[1]
            out[f"{s[0]}.self_s"] += self_s
        return {k: v / jobs for k, v in out.items()}

    def share(self, layers) -> float:
        """Share of job time spent inside any of ``layers``, counted once where they nest."""
        layers = set(layers)
        total = inside = 0.0
        for s in self.spans:
            dur = s[2] - s[1]
            if s[0] in PHASES:
                total += dur
                continue
            if s[0] not in layers:
                continue
            p = s[3]
            while p is not None and self.spans[p][0] not in layers:
                p = self.spans[p][3]
            if p is None:
                inside += dur
        return inside / total if total else float("nan")
