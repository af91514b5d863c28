"""Workload definitions of the oqsynth benchmark.

A workload is a fixed, seeded list of jobs. Job ``i`` synthesizes one
freshly generated channel with the ``i % len(methods)``-th (method, group
size) pair, so methods alternate job by job, and verifies the circuit on
``inputs`` states.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

# Layers whose combined inclusive time is predicted to exceed half of a
# job's time. The codec is the matrix/text writer and reader pair; the
# dilation layer is the three back-ends (their SVD and isometry completion
# run inside them).
ENGINE = ("simulator.run",)
CODEC_AND_DILATION = (
    "circuit.opaque_sidecar",
    "circuit.export_circuit",
    "circuit.parse_sidecar",
    "circuit.parse_circuit",
    "dilation.stinespring_isometry",
    "dilation.sznagy_unitary",
    "dilation.svd_dilation",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int  # system qubits
    m: int  # Kraus operators
    methods: tuple[tuple[str, int], ...]  # (method, group size l), rotated per job
    mode: str  # ancilla mode of the CSWAP mixer
    inputs: int  # input states verified per circuit
    peak_width: int  # widest dense factor the factorized engine builds, in qubits
    dominant: tuple[str, ...]  # layers predicted to take most of the job time

    def shape(self) -> dict:
        d = asdict(self)
        d["methods"] = [{"method": m, "l": l} for m, l in self.methods]
        return d


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mixer-shared",
            why="the shared CSWAP mixer tree (permutation gather, kron merges, traces) does "
            "almost all the work; two inputs per circuit let reuse of a compiled schedule show",
            n=2,
            m=16,
            methods=(("svd", 4), ("sznagy", 4)),
            mode="shared",
            inputs=2,
            peak_width=11,
            dominant=ENGINE,
        ),
        Workload(
            name="synth-artifacts",
            why="compilation, dilation linear algebra and the matrix codec dominate while the "
            "engine idles; no reuse and no mixer",
            n=3,
            m=16,
            methods=(("stinespring", 1), ("sznagy", 16), ("svd", 16)),
            mode="shared",
            inputs=1,
            peak_width=8,
            dominant=CODEC_AND_DILATION,
        ),
        Workload(
            name="mixer-fanout",
            why="the same engine through many small apply_matrix calls and CNOT-tree merges, "
            "no permutation path; a mixer-shared gain that costs this one shows here",
            n=2,
            m=4,
            methods=(("svd", 1), ("sznagy", 1)),
            mode="fanout",
            inputs=1,
            peak_width=9,
            dominant=ENGINE,
        ),
    )
}

# Left out because they exhaust an 8 GB host, not to hide a defect. The
# defect stays open: the engine checks max_qubits only after np.kron has
# allocated the merged factor, and a raw MemoryError escapes the CLI.
EXCLUDED = (
    {"n": 3, "m": 16, "l": 8, "mode": "shared", "peak_width": 15,
     "observed": "OOM-killed on an 8 GB host"},
    {"n": 3, "m": 8, "l": 4, "mode": "shared", "peak_width": 13,
     "observed": "2.3 GB RSS"},
    {"n": 2, "m": 16, "l": 4, "mode": "fanout",
     "observed": "MemoryError from a 16 GiB kron under max_qubits=16"},
)
