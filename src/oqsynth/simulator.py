"""Exact density-matrix engine and end-to-end channel verification.

The engine applies gates in order as ``U rho U^dag``, projects and
renormalizes on POSTSELECT (recording the branch probability), and reduces
on TRACE_OUT. The state is kept as a product of independent factors: each
input register is one factor from the start, any other qubit joins as a
fresh |0> factor when a gate first touches it, and factors merge only when
a gate spans them. Every qubit a TRACE_OUT discards leaves once, right
after its last gate (or at the TRACE_OUT when no gate touches it). A
MULTI_TARGET_CSWAP is contracted straight from the factor tensors it
touches, together with the trace of the wires that leave after it, so a
mixing tree over many branch registers never builds more than the
surviving register (never the two registers plus their control).

A factor over k wires holds ``rho = K S K^dag``; S (D x D) is its one density
field and K is 2^k x D. A dense factor, as an input register starts, has no K
and S = rho; a fresh qubit is K = |0>, S = [[1]]. A merge krons the S's, and
the K's when either has one. While D < 2^k a unitary gate updates K <- u K
and never touches S, so a dilation block costs one product with a K that has
only as many columns as the input has dimensions; a dense factor takes the
two-sided ``u rho u^dag``. K S K^dag is formed once, before a POSTSELECT, a
trace, a MULTI_TARGET_CSWAP or the final state. Per input, on a 2-vCPU Xeon
with numpy 2.4.6 on one BLAS thread, n=3, m=16 svd l=16 runs in 1.0 ms (13.4
ms with every factor dense) and n=2, m=4, l=1 fanout in 35 ms (167 ms).

Global basis convention: qubit 0 is the least significant bit.
"""

from __future__ import annotations

import functools
import itertools
import math
import string
from dataclasses import dataclass

import numpy as np

from .channel import KrausSet, apply_channel
from .circuit import Circuit, Gate, assemble_simulation_circuit
from .costmodel import success_probability
from .dilation import HADAMARD
from .linalg import DimensionMismatchError, dagger, max_abs

ZERO_BRANCH_CUTOFF = 1e-14
# Widest density factor the engine builds: 12 qubits is 256 MiB of complex128.
MAX_FACTOR_QUBITS = 12
PROBABILITY_TOL = 1e-12
STATE_TOL = 1e-9  # how far an input density may stray from Hermitian, trace 1 and PSD
_EINSUM_LABELS = string.ascii_letters  # the subscripts np.einsum accepts


class SimulationError(Exception):
    pass


class ZeroProbabilityBranch(SimulationError):
    pass


class EquivalenceFailure(SimulationError):
    pass


_T = np.diag([1.0, np.exp(1j * np.pi / 4)]).astype(complex)
_CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
_FIXED = {"H": HADAMARD, "T": _T, "TDG": _T.conj().T, "CNOT": _CNOT}
_KET0 = np.array([[1.0], [0.0]], dtype=complex)  # K of a fresh |0> wire
_ONE = np.ones((1, 1), dtype=complex)  # its source density


def _gate_matrix(g: Gate, circuit: Circuit) -> np.ndarray:
    """Matrix of a unitary gate over ``g.qubits`` (most significant first)."""
    if g.kind in _FIXED:
        return _FIXED[g.kind]
    if g.kind == "RZ":
        return np.diag([np.exp(-0.5j * g.theta), np.exp(0.5j * g.theta)])
    if g.kind == "RY":
        c, s = math.cos(g.theta / 2), math.sin(g.theta / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    try:  # OPAQUE_UNITARY, the one other kind run applies as a matrix
        return circuit.matrices[g.matrix_id]
    except KeyError:
        raise SimulationError(f"missing matrix for block {g.matrix_id!r}") from None


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Dense state of a qubit register; Hermitian, PSD, trace one."""

    matrix: np.ndarray
    num_qubits: int


def density(state, num_qubits: int) -> np.ndarray:
    """The one state contract: ``state`` as a density matrix on ``num_qubits`` qubits.

    A vector of 2^n amplitudes is a pure state, normalized (a zero or
    non-finite norm raises ``ValueError``). A 2^n x 2^n matrix or
    :class:`DensityMatrix` must be finite, Hermitian, of trace 1 and with no
    eigenvalue below 0, each within :data:`STATE_TOL`, else ``ValueError``
    names the property. Any other shape raises ``DimensionMismatchError``,
    and a list or tuple ``TypeError``.
    """
    if isinstance(state, (list, tuple)):
        raise TypeError(f"a state is an array, not a {type(state).__name__}: run(circuit, *states)")
    m = np.asarray(state.matrix if isinstance(state, DensityMatrix) else state, dtype=complex)
    d = 2**num_qubits
    if m.shape not in ((d,), (d, d)):
        raise DimensionMismatchError(f"input state has shape {m.shape}, expected dimension {d}")
    if m.ndim == 1:
        norm = np.linalg.norm(m)
        if not 0 < norm < np.inf:
            raise ValueError(f"pure state has norm {norm}; it needs a finite, non-zero norm")
        psi = m / norm
        m = np.outer(psi, psi.conj())
    if not np.isfinite(m).all():
        raise ValueError("input state has a non-finite entry")
    if (skew := max_abs(m - dagger(m))) > STATE_TOL:
        raise ValueError(f"input state is not Hermitian: max |rho - rho^dag| is {skew:.3e}")
    if abs((trace := float(m.trace().real)) - 1) > STATE_TOL:
        raise ValueError(f"input state has trace {trace!r}, not 1")
    if (low := np.linalg.eigvalsh(m)[0]) < -STATE_TOL:
        raise ValueError(f"input state is not positive semidefinite: eigenvalue {low:.3e}")
    return m


class _Factor:
    """One independent tensor factor over its wires, held as ``rho = K S K^dag``.

    ``wires[i]`` is the circuit qubit at tensor axis ``i``; axis 0 is the most
    significant bit. ``src`` is the one density field: the D x D source
    density S. ``iso`` is K as a tensor with one axis per wire and a last
    source axis of length D; a dense factor has no K (``iso is None``), so
    there S is ``rho`` itself, D = 2^k.
    """

    def __init__(self, wires: list[int], src: np.ndarray, iso=None):
        self.wires, self.src, self.iso = wires, src, iso

    @property
    def k(self) -> int:
        return len(self.wires)

    @property
    def rho(self) -> np.ndarray:
        """A dense factor's S as a tensor: row axes first, then the matching column axes."""
        return self.src.reshape((2,) * (2 * self.k))

    def merge(self, other: "_Factor") -> "_Factor":
        # kron keeps (rowsA, rowsB, colsA, colsB) = wire order A then B
        wires = self.wires + other.wires
        src = _kron(self.src, other.src)
        if self.iso is None and other.iso is None:
            return _Factor(wires, src)
        ka, kb = (np.eye(2**f.k, dtype=complex) if f.iso is None else f.iso for f in (self, other))
        iso = _kron(ka.reshape(2**self.k, -1), kb.reshape(2**other.k, -1))
        return _Factor(wires, src, iso.reshape((2,) * len(wires) + (-1,)))

    def densify(self) -> None:
        """Form ``K S K^dag`` once; a dense factor stays as it is."""
        if self.iso is None:
            return
        _check_width(self.k)
        k = self.iso.reshape(2**self.k, -1)
        self.src, self.iso = (k @ self.src) @ k.conj().T, None

    def apply_matrix(self, u: np.ndarray, qubits) -> None:
        """Apply ``u`` with the gate's wires moved to the front of the factor."""
        pos = [self.wires.index(q) for q in qubits]
        k, g = self.k, len(pos)
        order = pos + [i for i in range(k) if i not in pos]
        self.wires = [self.wires[i] for i in order]
        if self.iso is not None:  # K <- u K; S is never touched
            iso = self.iso.transpose(order + [k])
            self.iso = (u @ iso.reshape(2**g, -1)).reshape(iso.shape)
            return
        # a dense factor: u on the rows, then conj(u) on the columns row by row
        rho = self.rho.transpose(order + [k + i for i in order])
        rho = (u @ rho.reshape(2**g, -1)).reshape(2**k, 2**g, -1)
        self.src = (u.conj() @ rho).reshape(self.src.shape)

    def postselect(self, qubit: int, outcome: int) -> float:
        self.densify()
        pos = self.wires.index(qubit)
        k = self.k
        total = float(np.trace(self.src).real)
        idx = [slice(None)] * (2 * k)
        idx[pos] = outcome
        idx[k + pos] = outcome
        sub = self.rho[tuple(idx)]
        self.wires.pop(pos)
        self.src = sub.reshape(2**self.k, -1)
        kept = float(np.trace(self.src).real)
        p = kept / total if total > 0 else 0.0
        if p < ZERO_BRANCH_CUTOFF:
            raise ZeroProbabilityBranch(
                f"post-selecting qubit {qubit} on {outcome} has probability {p:.3e}"
            )
        self.src = self.src / p
        return p

    def trace_out(self, qubit: int) -> None:
        self.densify()
        pos = self.wires.index(qubit)
        rho = np.trace(self.rho, axis1=pos, axis2=self.k + pos)
        self.src = rho.reshape(2 ** (self.k - 1), -1)
        self.wires.pop(pos)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices, without its per-call axis bookkeeping."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


@functools.lru_cache(maxsize=1024)
def _einsum_path(subscripts: str, shapes: tuple) -> list:
    """Greedy contraction path, searched once per subscripts and operand shapes."""
    operands = [np.broadcast_to(np.zeros((), dtype=complex), shape) for shape in shapes]
    return np.einsum_path(subscripts, *operands, optimize="greedy")[0]


def _check_width(k: int) -> None:
    if k > MAX_FACTOR_QUBITS:
        raise SimulationError(f"merging factors would exceed {MAX_FACTOR_QUBITS} live qubits")


class _Engine:
    """Product of independent factors plus post-selection bookkeeping."""

    def __init__(self, factors: list[_Factor]):
        self.factors = factors
        self.success_prob = 1.0

    def _split(self, qubits) -> tuple[list[_Factor], list[_Factor]]:
        """Factors holding any of the qubits, and the rest.

        The touching factors come in the order of their first wire in
        ``qubits``, so a merge keeps the gate's wires close to its order and
        the axis moves of the gate apply stay small. A qubit no factor holds
        joins as a fresh |0> factor.
        """
        touching, rest = [], list(self.factors)
        for q in qubits:
            if not any(q in f.wires for f in touching):
                f = next((f for f in rest if q in f.wires), None)
                if f is None:
                    f = _Factor([q], _ONE, _KET0)
                else:
                    rest.remove(f)
                touching.append(f)
        return touching, rest

    def factor_for(self, qubits) -> _Factor:
        """Factor containing all the qubits, merging factors as needed."""
        touching, rest = self._split(qubits)
        _check_width(sum(f.k for f in touching))
        merged = touching[0]
        for f in touching[1:]:
            merged = merged.merge(f)
        self.factors = rest + [merged]
        return merged

    def trace_out(self, wires) -> None:
        """Trace the wires out of their factors; drop factors left with none."""
        touching, rest = self._split(wires)
        for f in touching:
            for q in set(wires).intersection(f.wires):
                f.trace_out(q)
        self.factors = rest + [f for f in touching if f.k]

    def controlled_swap(self, g: Gate, traced: set[int]) -> None:
        """Apply a MULTI_TARGET_CSWAP and trace out the ``traced`` gate wires.

        For each control block |c><c'| the output is one einsum over the
        touching factor tensors, with the control axes sliced to c and c':
        each paired target wire reads its partner's row label when c = 1
        and its partner's column label when c' = 1, and each traced wire
        shares its row and column label so that einsum sums it out. A traced control keeps only
        the blocks (0, 0) and (1, 1), summed.
        """
        ctrl, n_t = g.qubits[0], g.n_targets
        a, b = g.qubits[1 : 1 + n_t], g.qubits[1 + n_t :]
        swap = dict(zip(a + b, b + a))
        touching, rest = self._split(g.qubits)
        wires = [w for f in touching for w in f.wires if w != ctrl]
        kept = [w for w in wires if w not in traced]
        keep_ctrl = ctrl not in traced
        _check_width(len(kept) + keep_ctrl)
        if len(wires) + len(kept) > len(_EINSUM_LABELS):
            raise SimulationError(
                f"contracting {len(wires)} wires needs more than "
                f"{len(_EINSUM_LABELS)} einsum labels"
            )
        for f in touching:
            f.densify()
        labels = iter(_EINSUM_LABELS)
        row = {w: next(labels) for w in wires}
        col = {w: row[w] if w in traced else next(labels) for w in wires}
        out = "".join(row[w] for w in kept) + "".join(col[w] for w in kept)

        def block(c: int, cc: int) -> np.ndarray:
            terms, operands = [], []
            for f in touching:
                rho, fw = f.rho, f.wires
                if ctrl in fw:
                    p = fw.index(ctrl)
                    idx = [slice(None)] * (2 * f.k)
                    idx[p], idx[f.k + p] = c, cc
                    rho, fw = rho[tuple(idx)], fw[:p] + fw[p + 1 :]
                terms.append(
                    "".join(row[swap.get(w, w) if c else w] for w in fw)
                    + "".join(col[swap.get(w, w) if cc else w] for w in fw)
                )
                operands.append(rho)
            subscripts = ",".join(terms) + "->" + out
            path = _einsum_path(subscripts, tuple(o.shape for o in operands))
            return np.einsum(subscripts, *operands, optimize=path)

        if keep_ctrl:  # block (c, c') fills the slice of the merged factor's rho view
            merged = _Factor([ctrl] + kept, np.empty((2 ** (len(kept) + 1),) * 2, dtype=complex))
            for c in (0, 1):
                for cc in (0, 1):
                    merged.rho[(c,) + (slice(None),) * len(kept) + (cc,)] = block(c, cc)
        else:
            merged = _Factor(kept, (block(0, 0) + block(1, 1)).reshape(2 ** len(kept), -1))
        self.factors = rest + [merged]

    def final_state(self) -> np.ndarray:
        wires = sorted((w for f in self.factors for w in f.wires), reverse=True)
        if not wires:
            return np.ones((1, 1), dtype=complex)
        merged = self.factor_for(wires)
        merged.densify()
        order = [merged.wires.index(w) for w in wires]  # descending id = MSB first
        k = merged.k
        rho = np.transpose(merged.rho, order + [k + i for i in order])
        return rho.reshape(2**k, 2**k)


def run(circuit: Circuit, *states) -> tuple[DensityMatrix, float]:
    """Execute a circuit on one input state per input register.

    Each state passes :func:`density`. One state is broadcast to every input
    register, so a circuit with B input registers sees rho^(x B) and its
    output trace goes as tr(rho)^B: that is why an input must be a density.
    Several states are assigned register by register. TRACE_OUT is terminal:
    a gate on a qubit after its TRACE_OUT raises :class:`SimulationError`.
    Returns the reduced state over the surviving qubits (ascending index)
    and the product of post-selection probabilities (1.0 when there are
    none). A merge or contraction wider than :data:`MAX_FACTOR_QUBITS`
    raises :class:`SimulationError` first.
    """
    regs = circuit.input_registers
    states = states * len(regs) if len(states) == 1 else states
    if len(states) != len(regs):
        raise DimensionMismatchError(
            f"{len(states)} input states for {len(regs)} input registers"
        )
    if len({q for reg in regs for q in reg}) != sum(map(len, regs)):
        raise SimulationError(f"input registers {regs} overlap")
    # a state given to several registers passes the contract once
    rhos = {(id(s), len(reg)): s for reg, s in zip(regs, states)}
    rhos = {key: density(s, key[1]) for key, s in rhos.items()}
    # a register's highest qubit is its most significant bit
    inputs = [_Factor(list(reversed(reg)), rhos[id(s), len(reg)]) for reg, s in zip(regs, states)]

    # each qubit a TRACE_OUT discards leaves after its last gate, or at the
    # TRACE_OUT itself when no gate touches it
    retire: dict[int, int] = {}
    last: dict[int, int] = {}
    for i, g in enumerate(circuit.gates):
        if g.kind == "TRACE_OUT":
            for q in g.qubits:
                retire.setdefault(q, last.get(q, i))
        elif retire.keys() & set(g.qubits):
            raise SimulationError(f"{g.kind} on {g.qubits} after a TRACE_OUT of its qubits")
        else:
            last.update(dict.fromkeys(g.qubits, i))

    eng = _Engine(inputs)
    for i, g in enumerate(circuit.gates):
        leaving = {q for q in g.qubits if retire.get(q) == i}
        if g.kind == "MULTI_TARGET_CSWAP":
            eng.controlled_swap(g, leaving)
            continue
        if g.kind == "POSTSELECT":
            f = eng.factor_for(g.qubits)
            eng.success_prob *= f.postselect(g.qubits[0], g.outcome)
        elif g.kind != "TRACE_OUT":
            eng.factor_for(g.qubits).apply_matrix(_gate_matrix(g, circuit), g.qubits)
        eng.trace_out(leaving)

    out = eng.final_state()
    return DensityMatrix(out, len(out).bit_length() - 1), eng.success_prob


def tomography_inputs(dim: int) -> dict[str, np.ndarray]:
    """The fixed inputs of :func:`verify_equivalence`, by name.

    The dim^2 pure states |i>, (|i>+|j>)/sqrt2 and (|i>+i|j>)/sqrt2 (i < j)
    span every dim x dim matrix (process tomography, Nielsen & Chuang
    8.4.2); the last input is their full-rank mixture with weights 1..dim^2.
    """
    eye = np.eye(dim, dtype=complex)
    states = {f"|{i}>": eye[i] for i in range(dim)}
    for i, j in itertools.combinations(range(dim), 2):
        states[f"(|{i}>+|{j}>)/sqrt2"] = (eye[i] + eye[j]) / math.sqrt(2)
        states[f"(|{i}>+i|{j}>)/sqrt2"] = (eye[i] + 1j * eye[j]) / math.sqrt(2)
    weights = np.arange(1, dim**2 + 1) / (dim**2 * (dim**2 + 1) / 2)
    states["mixture"] = sum(w * np.outer(v, v.conj()) for w, v in zip(weights, states.values()))
    return states


@dataclass(frozen=True)
class EquivalenceReport:
    """Per input: ``||output - apply_channel||_max`` and the post-selection
    probability. ``failed`` holds the inputs past ``tol`` or
    :data:`PROBABILITY_TOL`, NaN included, worst residual first."""

    expected_probability: float
    residuals: tuple[float, ...]
    probabilities: tuple[float, ...]
    failed: tuple[int, ...]


def check_circuit(
    kset: KrausSet, circuit: Circuit, expected_p: float, states, tol: float
) -> EquivalenceReport:
    """Run ``circuit`` on each state (after :func:`density`) against ``apply_channel``."""
    residuals, probabilities = [], []
    for state in states:
        rho = density(state, kset.num_qubits)
        want = apply_channel(kset, rho)
        got, p = run(circuit, rho)
        residuals.append(max_abs(got.matrix - want))
        probabilities.append(p)
    failed = [
        i for i, (r, p) in enumerate(zip(residuals, probabilities))
        if not (r <= tol and abs(p - expected_p) <= PROBABILITY_TOL)
    ]
    failed.sort(key=lambda i: -np.nan_to_num(residuals[i], nan=np.inf))
    return EquivalenceReport(expected_p, tuple(residuals), tuple(probabilities), tuple(failed))


def verify_equivalence(
    kset: KrausSet, method: str, group_size: int = 1, mode: str = "shared", tol: float = 1e-9
) -> EquivalenceReport:
    """:func:`check_circuit` of the assembled circuit on :func:`tomography_inputs`.

    Expects post-selection probability group_size / m (1 for stinespring);
    raises :class:`EquivalenceFailure` naming the worst failing input.
    """
    circ = assemble_simulation_circuit(kset, method, group_size=group_size, mode=mode)
    inputs = tomography_inputs(kset.dim)
    expected_p = success_probability(method, kset.num_operators, group_size)
    report = check_circuit(kset, circ, expected_p, inputs.values(), tol)
    if report.failed:
        i = report.failed[0]
        raise EquivalenceFailure(
            f"{method} l={group_size} {mode}: input {list(inputs)[i]} residual "
            f"{report.residuals[i]:.3e} probability {report.probabilities[i]!r}, "
            f"expected {expected_p!r}"
        )
    return report
