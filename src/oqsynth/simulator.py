"""Exact density-matrix engine and end-to-end channel verification.

The engine applies gates in order as ``U rho U^dag``, projects and
renormalizes on POSTSELECT (recording the branch probability), and reduces
on TRACE_OUT. The state is kept as a product of independent factors: each
input register is one factor from the start, any other qubit joins as a
fresh |0> factor when a gate first touches it, and factors merge only when
a gate spans them. Every qubit a TRACE_OUT discards leaves once, right
after its last gate (or at the TRACE_OUT when no gate touches it). A
MULTI_TARGET_CSWAP that merges two registers of a mixing tree is one weighted
sum of their densities (:meth:`_Planner.cswap`), so the tree never builds more
than the surviving register; any other is one controlled swap per pair.

A factor over k wires holds ``rho = K S K^dag``; S (D x D) is its one density
field and K is 2^k x D. A dense factor, as an input register starts, has no K
and S = rho; a fresh qubit is K = |0>, S = [[1]]. A merge krons the S's, and
the K's when either has one. While D < 2^k a unitary gate updates K <- u K
and never touches S, so a dilation block costs one product with a K that has
only as many columns as the input has dimensions; a dense factor takes the
two-sided ``u rho u^dag``. K S K^dag is formed once, before a POSTSELECT, a
trace, a mix or the final state.

A run is planned once, then executed. ``_plan`` walks the gates over the
factors' wire lists once per circuit structure (the gates and the input
registers; matrix values play no part), building no state. It fixes each
gate's factor, the merges, the axis moves, the densify points, the retiring
wires and which CSWAPs mix, checks the width limit and the register overlap,
and returns the executor, the one reader of the value slots. The executor
checks each block against its gate, runs the steps on one checked density per
input register and returns the state and the probability; both inputs of a
verification, and every circuit of one shape, share it.

Global basis convention: qubit 0 is the least significant bit.
"""

from __future__ import annotations

import functools
import itertools
import math
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
_CSWAP = np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 6, 5, 7]]  # on (control, a, b), MSB first
_MATRICES, _PROB = 0, 1  # the value slots of circuit.matrices and the success probability


def _fixed_matrix(g: Gate) -> np.ndarray:
    """Matrix of an elementary gate over ``g.qubits`` (most significant first)."""
    if g.kind in _FIXED:
        return _FIXED[g.kind]
    if g.kind == "RZ":
        return np.diag([np.exp(-0.5j * g.theta), np.exp(0.5j * g.theta)])
    c, s = math.cos(g.theta / 2), math.sin(g.theta / 2)  # RY
    return np.array([[c, -s], [s, c]], dtype=complex)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Dense state of a qubit register; Hermitian, PSD, trace one."""

    matrix: np.ndarray
    num_qubits: int


def density(state, num_qubits: int) -> np.ndarray:
    """The one state contract: ``state`` as a density matrix on ``num_qubits`` qubits.

    ``num_qubits`` must lie in 1..:data:`MAX_FACTOR_QUBITS`, since an input
    register is one factor from the start; otherwise ``ValueError``, before any
    dimension is computed. A vector of 2^n amplitudes is a pure state,
    normalized (a zero or non-finite norm raises ``ValueError``). A 2^n x 2^n
    matrix or :class:`DensityMatrix` must be finite, Hermitian, of trace 1 and
    with no eigenvalue below 0, each within :data:`STATE_TOL`, else
    ``ValueError`` names the property. Any other shape raises
    ``DimensionMismatchError``, and a list or tuple ``TypeError``.
    """
    if isinstance(state, (list, tuple)):
        raise TypeError(f"a state is an array, not a {type(state).__name__}: run(circuit, *states)")
    if not 1 <= num_qubits <= MAX_FACTOR_QUBITS:
        raise ValueError(f"num_qubits {num_qubits} is outside 1..{MAX_FACTOR_QUBITS}")
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


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices, without its per-call axis bookkeeping."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


def _check_width(k: int) -> None:
    if k > MAX_FACTOR_QUBITS:
        raise SimulationError(f"merging factors would exceed {MAX_FACTOR_QUBITS} live qubits")


def _moved(axes: list[int]) -> list[int] | None:
    """``axes``, or ``None`` when they keep the order, so no transpose is needed."""
    return None if axes == sorted(axes) else axes


def _matrix(x: np.ndarray, view: tuple) -> np.ndarray:
    """``x`` (any shape of the right size) as ``shape``, moved to ``axes``, as ``flat``."""
    shape, axes, flat = view
    if axes is None:
        return x.reshape(flat)
    return x.reshape(shape).transpose(axes).reshape(flat)


class _Factor:
    """One independent tensor factor as the planner sees it, ``rho = K S K^dag``.

    ``wires[i]`` is the circuit qubit at tensor axis ``i``; axis 0 is the most
    significant bit. ``src`` is the value slot of the D x D source density S and
    ``iso`` the slot of K as a 2^k x D matrix. A dense factor, as an input
    register starts, has no K (``iso is None``), so there S is ``rho`` itself
    and D = 2^k; a factor whose wires all started fresh has D = 1 and S = [[1]].
    """

    def __init__(self, wires: list[int], src: int, iso: int | None, d: int):
        self.wires, self.src, self.iso, self.d = wires, src, iso, d

    @property
    def k(self) -> int:
        return len(self.wires)


class _Planner:
    """Walks a circuit over its factors' wire lists, building no state, and
    records every kernel as a step on value slots."""

    def __init__(self, registers):
        if len({q for reg in registers for q in reg}) != sum(map(len, registers)):
            raise SimulationError(f"input registers {registers} overlap")
        self.values: list = [None, 1.0]  # _MATRICES, _PROB
        self.steps: list = []  # each a function of the value slots
        # a register's highest qubit is its most significant bit
        self.factors = [_Factor(list(reversed(r)), self.slot(), None, 2 ** len(r)) for r in registers]
        self.inputs = tuple((f.src, f.d) for f in self.factors)

    def slot(self, value=None) -> int:
        self.values.append(value)
        return len(self.values) - 1

    def touching(self, qubits) -> list[_Factor]:
        """Take out the factors holding any of the qubits, in the order of their
        first wire in ``qubits``, so a merge keeps the gate's wires close to its
        order and the axis moves of the gate apply stay small. A qubit no factor
        holds joins as a fresh |0> factor."""
        found = []
        for q in qubits:
            if not any(q in f.wires for f in found):
                f = next((f for f in self.factors if q in f.wires), None)
                if f is None:
                    f = _Factor([q], self.slot(_ONE), self.slot(_KET0), 1)
                else:
                    self.factors.remove(f)
                found.append(f)
        return found

    def merged(self, qubits) -> _Factor:
        """The factor holding all the qubits, merging factors as needed."""
        touching = self.touching(qubits)
        _check_width(sum(f.k for f in touching))
        f = functools.reduce(self.merge, touching)
        self.factors.append(f)
        return f

    def merge(self, a: _Factor, b: _Factor) -> _Factor:
        """kron of the S's, and of the K's when either has one (I for a dense
        side), into a's slots where it has them: a's wires come first."""
        src, sb = a.src, b.src

        def kron_src(v):
            v[src] = _kron(v[src], v[sb])

        self.steps.append(kron_src)
        wires = a.wires + b.wires
        if a.iso is None and b.iso is None:
            return _Factor(wires, src, None, a.d * b.d)
        ka, kb, da, db = a.iso, b.iso, 2**a.k, 2**b.k
        iso = kb if ka is None else ka

        def kron_iso(v):
            left = np.eye(da, dtype=complex) if ka is None else v[ka]
            right = np.eye(db, dtype=complex) if kb is None else v[kb]
            v[iso] = _kron(left, right)

        self.steps.append(kron_iso)
        return _Factor(wires, src, iso, a.d * b.d)

    def densify(self, f: _Factor) -> None:
        """Form ``K S K^dag``; a dense factor stays as it is. This is the one
        densify rule: every POSTSELECT, trace, mix and the final state call it
        on the factors they read, whatever their D."""
        if f.iso is None:
            return
        iso, src = f.iso, f.src

        def form(v):
            k = v[iso]
            v[src] = (k @ v[src]) @ k.conj().T

        self.steps.append(form)
        f.iso, f.d = None, 2**f.k

    def apply(self, qubits, u) -> None:
        """The unitary ``u`` (a matrix, or the id of a block in ``circuit.matrices``)
        on ``qubits``, with their wires moved to the front of the factor for good."""
        f = self.merged(qubits)
        pos = [f.wires.index(q) for q in qubits]
        k, dn, dk = f.k, 2 ** len(pos), 2**f.k
        order = pos + [i for i in range(k) if i not in pos]
        f.wires = [f.wires[i] for i in order]
        mid, fixed = (u, None) if isinstance(u, str) else (None, u)
        if f.iso is not None:  # K <- u K; S is never touched
            slot, view = f.iso, ((2,) * k + (f.d,), _moved(order + [k]), (dn, -1))

            def step(v):
                u = v[_MATRICES][mid] if mid else fixed
                v[slot] = (u @ _matrix(v[slot], view)).reshape(dk, -1)

        else:  # a dense factor: u on the rows, then conj(u) on the columns row by row
            axes = _moved(order + [k + i for i in order])
            slot, view = f.src, ((2,) * (2 * k), axes, (dn, -1))

            def step(v):
                u = v[_MATRICES][mid] if mid else fixed
                rho = (u @ _matrix(v[slot], view)).reshape(dk, dn, -1)
                v[slot] = (u.conj() @ rho).reshape(dk, dk)

        self.steps.append(step)

    def postselect(self, qubit: int, outcome: int) -> None:
        f = self.merged((qubit,))
        self.densify(f)
        k, pos, src = f.k, f.wires.index(qubit), f.src
        idx = [slice(None)] * (2 * k)
        idx[pos] = idx[k + pos] = outcome
        shape, idx, dk = (2,) * (2 * k), tuple(idx), 2 ** (k - 1)

        def step(v):
            rho = v[src]
            total = float(np.trace(rho).real)
            sub = rho.reshape(shape)[idx].reshape(dk, -1)
            p = float(np.trace(sub).real) / total if total > 0 else 0.0
            if p < ZERO_BRANCH_CUTOFF:
                raise ZeroProbabilityBranch(
                    f"post-selecting qubit {qubit} on {outcome} has probability {p:.3e}"
                )
            v[src] = sub / p
            v[_PROB] *= p

        self.steps.append(step)
        f.wires.pop(pos)
        f.d = dk
        if not f.wires:
            self.factors.remove(f)

    def trace_out(self, wires: set[int]) -> None:
        """Trace the wires out of the factors holding them; a wire no factor
        holds is a fresh |0>, and a factor left with no wires is dropped."""
        for f in [f for f in self.factors if wires.intersection(f.wires)]:
            if wires.issuperset(f.wires):
                self.factors.remove(f)
            else:
                self._trace(f, [i for i, w in enumerate(f.wires) if w in wires])

    def _trace(self, f: _Factor, gone: list[int]) -> None:
        self.densify(f)
        k, src = f.k, f.src
        # one (row, column) axis pair per wire, the last first, so the rest keep their axes
        pairs = [(p, k - n + p) for n, p in enumerate(reversed(gone))]
        shape, dk = (2,) * (2 * k), 2 ** (k - len(gone))

        def step(v):  # each partial trace replaces the last, which is freed at once
            v[src] = v[src].reshape(shape)
            for a, b in pairs:
                v[src] = v[src].trace(axis1=a, axis2=b)
            v[src] = v[src].reshape(dk, dk)

        self.steps.append(step)
        f.wires = [w for i, w in enumerate(f.wires) if i not in gone]
        f.d = dk

    def cswap(self, g: Gate, traced: set[int]) -> None:
        """A MULTI_TARGET_CSWAP whose ``traced`` wires leave right after it.

        A mixer merge is one step: its control c is a factor of its own and
        retires here, the pairs' a side and b side are one factor each, all of b
        retires here and some of a stays. With c traced out, and then b, the
        swap leaves ``rho_a <- c[0,0] tr(rho_b) rho_a + c[1,1] tr(rho_a) P(rho_b)``,
        where P puts rho_b on a's wires. Wires of a that retire here leave a,
        and their partners b, before the mix, so nothing wider than the
        surviving register is formed. Any other CSWAP is one controlled swap
        per pair, applied as a gate; the traced wires then leave at the
        caller's :meth:`trace_out`, which finds none left after a mix.
        """
        ctrl, n_t = g.qubits[0], g.n_targets
        a, b = g.qubits[1 : 1 + n_t], g.qubits[1 + n_t :]
        owner = {w: f for f in self.factors for w in f.wires}
        fc, fa, fb = owner.get(ctrl), owner.get(a[0]), owner.get(b[0])
        if not (
            fc and fa and fb and fc.wires == [ctrl] and ctrl in traced
            and set(fa.wires) == set(a) and set(fb.wires) == set(b)
            and traced.issuperset(b) and not traced.issuperset(a)
        ):
            for pair in zip(a, b):
                self.apply((ctrl,) + pair, _CSWAP)
            return
        partner = dict(zip(a, b))

        def total(f: _Factor, leaving: list[int]) -> int:
            """Trace the ``leaving`` wires out of f; the slot of tr(rho_f), summed first."""
            self.densify(f)
            src, slot = f.src, self.slot()

            def step(v):
                v[slot] = np.trace(v[src])

            self.steps.append(step)
            if leaving:
                self._trace(f, sorted(f.wires.index(w) for w in leaving))
            return slot

        gone = [w for w in fa.wires if w in traced]
        # b first: its whole density is traced down before a's is formed
        tb, ta = total(fb, [partner[w] for w in gone]), total(fa, gone)
        self.densify(fc)
        k, sc, sa, sb = fa.k, fc.src, fa.src, fb.src
        axes = [fb.wires.index(partner[w]) for w in fa.wires]
        view = ((2,) * (2 * k), _moved(axes + [k + i for i in axes]), (2**k, 2**k))

        def mix(v):
            c = v[sc]
            out = _matrix(v[sb], view) * (c[1, 1] * v[ta])
            out += (c[0, 0] * v[tb]) * v[sa]
            v[sa], v[sb] = out, None  # b is gone: free it now

        self.steps.append(mix)
        self.factors.remove(fc)
        self.factors.remove(fb)

    def finish(self, blocks: tuple):
        """Add the final state: the one factor left, its wires in descending id
        (MSB first), or the number 1 when every qubit was traced out. Returns
        ``execute(matrices, rhos) -> (DensityMatrix, p)``, which checks each of
        ``blocks``, (matrix id, k) pairs, before any step runs and runs the steps
        on a copy of the values, ``matrices`` and one checked density per input
        register filled in."""
        wires = sorted((w for f in self.factors for w in f.wires), reverse=True)
        if wires:
            f = self.merged(wires)
            self.densify(f)
            k, output = f.k, f.src
            order = [f.wires.index(w) for w in wires]
            view = ((2,) * (2 * k), _moved(order + [k + i for i in order]), (2**k, 2**k))

            def final(v):
                v[output] = _matrix(v[output], view)

            self.steps.append(final)
        else:
            output = self.slot()

            def final(v):
                v[output] = np.ones((1, 1), dtype=complex)

            self.steps.append(final)
        steps, values, inputs = tuple(self.steps), tuple(self.values), self.inputs

        def execute(matrices: dict, rhos) -> tuple[DensityMatrix, float]:
            for mid, k in blocks:
                if mid not in matrices:
                    raise SimulationError(f"missing matrix for block {mid!r}")
                if (shape := np.shape(matrices[mid])) != (2**k, 2**k):
                    raise SimulationError(f"block {mid!r} is {shape}, not {(2**k, 2**k)}")
            vals = list(values)
            vals[_MATRICES] = matrices
            for (slot, d), rho in zip(inputs, rhos):
                if rho.shape != (d, d):
                    raise DimensionMismatchError(
                        f"input state has shape {rho.shape}, expected dimension {d}"
                    )
                vals[slot] = rho
            for step in steps:
                step(vals)
            out = vals[output]
            return DensityMatrix(out, len(out).bit_length() - 1), vals[_PROB]

        return execute


@functools.lru_cache(maxsize=32)
def _plan(gates: tuple[Gate, ...], input_registers: tuple):
    """The executor of a run (:meth:`_Planner.finish`), worked out once per
    circuit structure: it never reads a matrix, so every circuit with the same
    gates and input registers shares one."""
    # each qubit a TRACE_OUT discards leaves after its last gate, or at the
    # TRACE_OUT itself when no gate touches it
    retire: dict[int, int] = {}
    last: dict[int, int] = {}
    for i, g in enumerate(gates):
        if g.kind == "TRACE_OUT":
            for q in g.qubits:
                retire.setdefault(q, last.get(q, i))
        elif retire.keys() & set(g.qubits):
            raise SimulationError(f"{g.kind} on {g.qubits} after a TRACE_OUT of its qubits")
        else:
            last.update(dict.fromkeys(g.qubits, i))

    plan = _Planner(input_registers)
    for i, g in enumerate(gates):
        leaving = {q for q in g.qubits if retire.get(q) == i}
        if g.kind == "MULTI_TARGET_CSWAP":
            plan.cswap(g, leaving)
        elif g.kind == "POSTSELECT":
            plan.postselect(g.qubits[0], g.outcome)
        elif g.kind != "TRACE_OUT":
            plan.apply(g.qubits, g.matrix_id or _fixed_matrix(g))
        plan.trace_out(leaving)
    blocks = dict.fromkeys((g.matrix_id, len(g.qubits)) for g in gates if g.matrix_id)
    return plan.finish(tuple(blocks))


def _per_register(regs, states: tuple) -> tuple:
    """One state per input register; a lone state goes to every register."""
    states = states * len(regs) if len(states) == 1 and regs else states
    if len(states) != len(regs):
        raise DimensionMismatchError(f"{len(states)} input states for {len(regs)} input registers")
    return states


def run(circuit: Circuit, *states) -> tuple[DensityMatrix, float]:
    """Execute a circuit on one input state per input register.

    Each distinct (state, register width) passes :func:`density` once. One
    state is broadcast to every input register, so a circuit with B input
    registers sees rho^(x B) and its output trace goes as tr(rho)^B: that is
    why an input must be a density. Several states are assigned register by
    register. TRACE_OUT is terminal: a gate on a qubit after its TRACE_OUT
    raises :class:`SimulationError`. Returns the reduced state over the
    surviving qubits (ascending index) and the product of post-selection
    probabilities (1.0 when there are none). A merge wider than
    :data:`MAX_FACTOR_QUBITS`, overlapping input registers, or a block that is
    missing or not 2^k x 2^k for its k-qubit gate raises
    :class:`SimulationError` before any gate runs.
    """
    regs = tuple(map(tuple, circuit.input_registers))
    states = _per_register(regs, states)
    rhos = {(id(s), len(reg)): s for reg, s in zip(regs, states)}
    rhos = {key: density(s, key[1]) for key, s in rhos.items()}
    execute = _plan(tuple(circuit.gates), regs)
    return execute(circuit.matrices, [rhos[id(s), len(reg)] for reg, s in zip(regs, states)])


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
    """Run ``circuit`` on each state against ``apply_channel``: one plan lookup,
    and each state's one :func:`density` goes to the circuit and the channel."""
    regs = tuple(map(tuple, circuit.input_registers))
    execute = _plan(tuple(circuit.gates), regs)
    residuals, probabilities = [], []
    for state in states:
        rho = density(state, kset.num_qubits)
        want = apply_channel(kset, rho)
        got, p = execute(circuit.matrices, _per_register(regs, (rho,)))
        residuals.append(max_abs(got.matrix - want))
        probabilities.append(p)
    if not residuals:  # after the loop: an empty generator is not falsy
        raise ValueError("check_circuit got no states to check")
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
