"""Dense density-matrix engine and end-to-end channel verification.

The engine applies gates in order as ``U rho U^dag``, projects and
renormalizes on POSTSELECT (recording the branch probability), and reduces
on TRACE_OUT. The state is kept as a product of independent density
factors: each input register is one factor from the start, any other qubit
joins as a fresh |0> factor when a gate first touches it, and factors merge
only when a gate spans them. Every qubit a TRACE_OUT discards leaves once,
right after its last gate (or at the TRACE_OUT when no gate touches it). A
MULTI_TARGET_CSWAP is contracted straight from the factor tensors it
touches, together with the trace of the wires that leave after it, so a
mixing tree over many branch registers never builds more than the
surviving register (never the two registers plus their control).

Global basis convention: qubit 0 is the least significant bit.
"""

from __future__ import annotations

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
_ZERO = np.diag([1.0, 0.0]).astype(complex)


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

    @classmethod
    def from_pure(cls, amplitudes) -> "DensityMatrix":
        """Normalized ``|psi><psi|``; a zero or non-finite norm raises ValueError."""
        psi = np.asarray(amplitudes, dtype=complex).ravel()
        n = int(math.log2(len(psi)))
        if 2**n != len(psi):
            raise DimensionMismatchError("amplitude count must be a power of two")
        norm = np.linalg.norm(psi)
        if not 0 < norm < np.inf:
            raise ValueError(f"pure state has norm {norm}; it needs a finite, non-zero norm")
        psi = psi / norm
        return cls(matrix=np.outer(psi, psi.conj()), num_qubits=n)

    @classmethod
    def from_matrix(cls, matrix) -> "DensityMatrix":
        m = np.asarray(matrix, dtype=complex)
        n = int(math.log2(m.shape[0])) if m.size else 0
        if m.shape != (2**n, 2**n):
            raise DimensionMismatchError(f"bad density matrix shape {m.shape}")
        return cls(matrix=m, num_qubits=n)


def _coerce_state(state, expected_qubits: int) -> np.ndarray:
    m = state.matrix if isinstance(state, DensityMatrix) else np.asarray(state, dtype=complex)
    if m.ndim == 1:
        m = DensityMatrix.from_pure(m).matrix
    if m.shape != (2**expected_qubits,) * 2:
        raise DimensionMismatchError(
            f"input state has shape {m.shape}, expected dimension {2**expected_qubits}"
        )
    return m


class _Factor:
    """One independent tensor factor: a density tensor over its wires.

    ``wires[i]`` is the circuit qubit at tensor axis ``i`` (row axes first,
    then the matching column axes). Axis 0 is the most significant bit.
    """

    def __init__(self, wires: list[int], matrix: np.ndarray):
        self.wires = wires
        k = len(wires)
        self.rho = np.asarray(matrix, dtype=complex).reshape((2,) * (2 * k))

    @property
    def k(self) -> int:
        return len(self.wires)

    def flat(self) -> np.ndarray:
        dim = 2**self.k
        return self.rho.reshape(dim, dim)

    def merge(self, other: "_Factor") -> "_Factor":
        # kron keeps (rowsA, rowsB, colsA, colsB) = wire order A then B
        joined = np.kron(self.flat(), other.flat())
        return _Factor(self.wires + other.wires, joined)

    def apply_matrix(self, u: np.ndarray, qubits) -> None:
        pos = [self.wires.index(q) for q in qubits]
        g = len(pos)
        k = self.k
        ut = np.asarray(u, dtype=complex).reshape((2,) * (2 * g))
        rho = np.tensordot(ut, self.rho, axes=(list(range(g, 2 * g)), pos))
        # rebinding self.rho frees the input before the second product
        self.rho = np.moveaxis(rho, range(g), pos)
        cols = [k + p for p in pos]
        rho = np.tensordot(ut.conj(), self.rho, axes=(list(range(g, 2 * g)), cols))
        self.rho = np.moveaxis(rho, range(g), cols)

    def postselect(self, qubit: int, outcome: int) -> float:
        pos = self.wires.index(qubit)
        k = self.k
        total = float(np.trace(self.flat()).real)
        idx = [slice(None)] * (2 * k)
        idx[pos] = outcome
        idx[k + pos] = outcome
        sub = self.rho[tuple(idx)]
        self.wires.pop(pos)
        self.rho = sub
        kept = float(np.trace(self.flat()).real)
        p = kept / total if total > 0 else 0.0
        if p < ZERO_BRANCH_CUTOFF:
            raise ZeroProbabilityBranch(
                f"post-selecting qubit {qubit} on {outcome} has probability {p:.3e}"
            )
        self.rho = self.rho / p
        return p

    def trace_out(self, qubit: int) -> None:
        pos = self.wires.index(qubit)
        self.rho = np.trace(self.rho, axis1=pos, axis2=self.k + pos)
        self.wires.pop(pos)


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
                    f = _Factor([q], _ZERO)
                else:
                    rest.remove(f)
                touching.append(f)
        return touching, rest

    def _check_width(self, k: int) -> None:
        if k > MAX_FACTOR_QUBITS:
            raise SimulationError(
                f"merging factors would exceed {MAX_FACTOR_QUBITS} live qubits"
            )

    def factor_for(self, qubits) -> _Factor:
        """Factor containing all the qubits, merging factors as needed."""
        touching, rest = self._split(qubits)
        self._check_width(sum(f.k for f in touching))
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
        self._check_width(len(kept) + keep_ctrl)
        if len(wires) + len(kept) > len(_EINSUM_LABELS):
            raise SimulationError(
                f"contracting {len(wires)} wires needs more than "
                f"{len(_EINSUM_LABELS)} einsum labels"
            )
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
            return np.einsum(",".join(terms) + "->" + out, *operands, optimize=True)

        if keep_ctrl:
            k = len(kept) + 1
            rho = np.empty((2,) * (2 * k), dtype=complex)
            for c in (0, 1):
                for cc in (0, 1):
                    rho[(c,) + (slice(None),) * (k - 1) + (cc,)] = block(c, cc)
            merged = _Factor([ctrl] + kept, rho)
        else:
            merged = _Factor(kept, block(0, 0) + block(1, 1))
        self.factors = rest + [merged]

    def final_state(self) -> np.ndarray:
        wires = sorted((w for f in self.factors for w in f.wires), reverse=True)
        if not wires:
            return np.ones((1, 1), dtype=complex)
        merged = self.factor_for(wires)
        order = [merged.wires.index(w) for w in wires]  # descending id = MSB first
        k = merged.k
        rho = np.transpose(merged.rho, order + [k + i for i in order])
        return rho.reshape(2**k, 2**k)


def run(circuit: Circuit, rho_in) -> tuple[DensityMatrix, float]:
    """Execute a circuit on the given input state(s).

    ``rho_in`` is a density matrix, pure-state amplitude vector (normalized
    here), or :class:`DensityMatrix` broadcast to every input register of
    the circuit; a sequence of such states assigns them register by
    register. TRACE_OUT is terminal: a gate on a qubit after its TRACE_OUT
    raises :class:`SimulationError`. Returns the reduced state over the
    surviving qubits (ascending index) and the product of post-selection
    probabilities (1.0 when there are none). A merge or contraction wider
    than :data:`MAX_FACTOR_QUBITS` raises :class:`SimulationError` first.
    """
    regs = circuit.input_registers
    states = rho_in if isinstance(rho_in, (list, tuple)) else [rho_in] * len(regs)
    if len(states) != len(regs):
        raise DimensionMismatchError(
            f"{len(states)} input states for {len(regs)} input registers"
        )
    if len({q for reg in regs for q in reg}) != sum(map(len, regs)):
        raise SimulationError(f"input registers {regs} overlap")
    # a register's highest qubit is its most significant bit
    inputs = [
        _Factor(list(reversed(reg)), _coerce_state(s, len(reg)))
        for reg, s in zip(regs, states)
    ]

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
    return DensityMatrix.from_matrix(out), eng.success_prob


def compare_to_oracle(
    got: np.ndarray, want: np.ndarray, p: float, expected_p: float, tol: float
) -> tuple[float, float, bool]:
    """Residual ``||got - want||_max``, probability error and the verdict.

    The verdict passes only when the residual is within ``tol`` and the
    probability within :data:`PROBABILITY_TOL`; NaN in either fails.
    """
    res = max_abs(got - want)
    perr = abs(p - expected_p)
    return res, perr, res <= tol and perr <= PROBABILITY_TOL


@dataclass(frozen=True)
class EquivalenceReport:
    """Worst-case residuals of a circuit-vs-oracle verification run."""

    method: str
    group_size: int
    ancilla_mode: str
    trials: int
    expected_probability: float
    worst_residual: float
    worst_probability_error: float


def verify_equivalence(
    kset: KrausSet,
    method: str,
    group_size: int = 1,
    mode: str = "shared",
    trials: int = 5,
    tol: float = 1e-9,
    seed: int = 0,
) -> EquivalenceReport:
    """Check the synthesized circuit against the dense channel oracle.

    Runs ``trials`` alternating random pure and mixed inputs through the
    assembled circuit and compares with ``apply_channel``; also checks the
    measured post-selection probability against group_size / m (exactly 1
    for the deterministic route). Raises :class:`EquivalenceFailure`
    carrying the offending seed when any residual exceeds the tolerances.
    """
    circ = assemble_simulation_circuit(kset, method, group_size=group_size, mode=mode)
    d = kset.dim
    expected_p = success_probability(method, kset.num_operators, group_size)
    worst_res = 0.0
    worst_perr = 0.0
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        if trial % 2 == 0:
            psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            rho = DensityMatrix.from_pure(psi).matrix
        else:
            g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
            rho = g @ dagger(g)
            rho = rho / np.trace(rho)
        want = apply_channel(kset, rho)
        got, p = run(circ, rho)
        res, perr, ok = compare_to_oracle(got.matrix, want, p, expected_p, tol)
        worst_res = max(worst_res, res)
        worst_perr = max(worst_perr, perr)
        if not ok:
            raise EquivalenceFailure(
                f"{method} l={group_size} {mode}: trial {trial} (seed {seed}) "
                f"residual {res:.3e} probability error {perr:.3e}"
            )
    return EquivalenceReport(
        method=method,
        group_size=group_size,
        ancilla_mode=mode,
        trials=trials,
        expected_probability=expected_p,
        worst_residual=worst_res,
        worst_probability_error=worst_perr,
    )
