"""Gate-level circuit IR with weighted cost accounting.

Gates are elementary (H, T, TDG, RZ, RY, CNOT), opaque unitary blocks
carrying annotated depth/CNOT weights, logical multi-target CSWAPs with
exact matrix semantics, and the terminal markers POSTSELECT / TRACE_OUT.
Depth is the weighted layered depth under as-soon-as-possible scheduling:
gates on disjoint qubits share a layer and each gate contributes its depth
weight.

Basis conventions: globally, qubit 0 is the least significant bit of the
computational basis index. Within a single gate, ``Gate.qubits`` lists the
gate's wires most-significant first, matching the row/column order of its
matrix.
"""

from __future__ import annotations

import json
import json.scanner
import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import costmodel
from .channel import KrausSet, NotPowerOfTwoError, group_kraus, is_power_of_two
from .costmodel import format_float, multi_target_cswap_cnots, multi_target_cswap_depth
from .dilation import stinespring_isometry, svd_dilation, sznagy_unitary
from .linalg import complete_isometry

# kind -> (qubit count, None for one or more or, for a CSWAP, 1 + 2 * n_targets;
# the one field it carries; its (depth, CNOT) weights, None where they vary)
_SHAPES = {
    **dict.fromkeys(("H", "T", "TDG"), (1, None, (1.0, 0.0))),
    **dict.fromkeys(("RZ", "RY"), (1, "theta", (1.0, 0.0))),
    "CNOT": (2, None, (1.0, 1.0)),
    "OPAQUE_UNITARY": (None, "matrix_id", None),
    "MULTI_TARGET_CSWAP": (None, "n_targets", None),
    "POSTSELECT": (1, "outcome", (0.0, 0.0)),
    "TRACE_OUT": (None, None, (0.0, 0.0)),
}
GATE_KINDS = tuple(_SHAPES)


def _is_real(v) -> bool:
    """An int or float that is not a bool (a bool would export as 1 or 0)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# carried field -> the test its value must pass
_VALID = {
    "theta": lambda theta: _is_real(theta) and math.isfinite(theta),
    "matrix_id": re.compile(r"[A-Za-z0-9_]+").fullmatch,  # one note value: no ",", "=" or space
    "outcome": lambda outcome: type(outcome) is int and outcome in (0, 1),  # not a bool
    "n_targets": lambda n_t: type(n_t) is int and n_t >= 1,
}


class CircuitError(Exception):
    pass


class QubitCollisionError(CircuitError):
    pass


class MissingAncillasError(CircuitError):
    pass


class UnsupportedGateError(CircuitError):
    pass


def _check_mode(mode: str) -> None:
    if mode not in costmodel.ANCILLA_MODES:
        raise CircuitError(f"unknown ancilla mode {mode!r}")


@dataclass(frozen=True)
class Gate:
    """One gate; its kind fixes the qubit count, the one field it carries and the
    weights (see ``_SHAPES`` and ``_VALID``), except that an OPAQUE_UNITARY gives
    its own: finite, depth >= 1 and CNOT >= 0. Qubits, ``outcome`` and ``n_targets``
    are ints, and ``theta`` and the weights ints or floats, never bools. Any other
    shape raises CircuitError."""

    kind: str
    qubits: tuple[int, ...]
    theta: float | None = None
    matrix_id: str | None = None
    outcome: int | None = None
    n_targets: int | None = None
    depth_weight: float | None = None
    cnot_weight: float | None = None

    def __post_init__(self):
        if self.kind not in _SHAPES:
            raise UnsupportedGateError(f"unknown gate kind {self.kind!r}")
        arity, carried, weights = _SHAPES[self.kind]
        if not all(type(q) is int for q in self.qubits):
            raise CircuitError(f"qubit indices of {self.kind} must be ints: {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise QubitCollisionError(f"repeated qubit in {self.kind} {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise CircuitError("negative qubit index")
        for name, valid in _VALID.items():
            v = getattr(self, name)
            if (v is None) == (name == carried):
                raise CircuitError(f"{self.kind} {'needs' if v is None else 'takes no'} {name}")
            if name == carried and not valid(v):
                raise CircuitError(f"{self.kind} {name} {v!r} is out of range")
        if carried == "n_targets":
            n_t = self.n_targets
            arity = 1 + 2 * n_t
            weights = multi_target_cswap_depth(n_t), multi_target_cswap_cnots(n_t)
        if len(self.qubits) != arity if arity else not self.qubits:
            raise CircuitError(f"{self.kind} takes {arity or 'one or more'} qubits: {self.qubits}")
        if weights is None:
            d, c = self.depth_weight, self.cnot_weight
            if not (_is_real(d) and _is_real(c) and 1 <= d < math.inf and 0 <= c < math.inf):
                raise CircuitError(f"opaque weights need finite depth >= 1, CNOT >= 0: {d}, {c}")
            return
        for name, value in zip(("depth_weight", "cnot_weight"), weights):
            if getattr(self, name) not in (None, value):
                raise CircuitError(f"{self.kind} has {name} {value}, not {getattr(self, name)}")
            object.__setattr__(self, name, value)


def h(q: int) -> Gate:
    return Gate("H", (q,))


def t(q: int) -> Gate:
    return Gate("T", (q,))


def tdg(q: int) -> Gate:
    return Gate("TDG", (q,))


def rz(q: int, theta: float) -> Gate:
    return Gate("RZ", (q,), theta=theta)


def ry(q: int, theta: float) -> Gate:
    return Gate("RY", (q,), theta=theta)


def cnot(control: int, target: int) -> Gate:
    return Gate("CNOT", (control, target))


def opaque_unitary(
    qubits, matrix_id: str, depth_weight: float, cnot_weight: float
) -> Gate:
    return Gate(
        "OPAQUE_UNITARY",
        tuple(qubits),
        matrix_id=matrix_id,
        depth_weight=depth_weight,
        cnot_weight=cnot_weight,
    )


def multi_target_cswap_gate(control: int, pairs) -> Gate:
    """Logical shared-control multi-target CSWAP (exact matrix semantics)."""
    pairs = [tuple(p) for p in pairs]
    qubits = (control,) + tuple(a for a, _ in pairs) + tuple(b for _, b in pairs)
    return Gate("MULTI_TARGET_CSWAP", qubits, n_targets=len(pairs))


def postselect(q: int, outcome: int) -> Gate:
    return Gate("POSTSELECT", (q,), outcome=outcome)


def trace_out(qubits) -> Gate:
    return Gate("TRACE_OUT", tuple(qubits))


@dataclass
class Circuit:
    """Ordered gate sequence over a fixed register layout.

    ``registers`` names qubit groups (system, dilation ancilla, mixer
    ancillas, grouping ancillas); ``input_registers`` lists the register
    groups that receive a copy of the simulator's input state. Treat
    constructed circuits as immutable.
    """

    num_qubits: int
    gates: list[Gate] = field(default_factory=list)
    registers: dict[str, tuple[int, ...]] = field(default_factory=dict)
    input_registers: tuple[tuple[int, ...], ...] = ()
    matrices: dict[str, np.ndarray] = field(default_factory=dict)

    def add(self, gate: Gate) -> None:
        if max(gate.qubits) >= self.num_qubits:
            raise CircuitError(
                f"gate {gate.kind} touches qubit {max(gate.qubits)} "
                f"outside register of {self.num_qubits}"
            )
        self.gates.append(gate)

    def extend(self, gates) -> None:
        for g in gates:
            self.add(g)

    def add_matrix(self, matrix_id: str, matrix: np.ndarray) -> None:
        self.matrices[matrix_id] = np.asarray(matrix, dtype=complex)

    def depth(self) -> float:
        """Weighted layered depth: per-qubit busy time under ASAP scheduling."""
        busy = [0.0] * self.num_qubits
        for g in self.gates:
            if g.depth_weight == 0.0:
                continue
            start = max(busy[q] for q in g.qubits)
            for q in g.qubits:
                busy[q] = start + g.depth_weight
        return max(busy, default=0.0)

    def cnot_count(self) -> float:
        return sum(g.cnot_weight for g in self.gates)


# --- elementary controlled-SWAP ---------------------------------------------
#
# Nine CNOTs at layered depth 14 with exactly three CNOTs touching the
# control. The inner section is a CNOT+T realization of the doubly
# controlled phase (T phases applied to the seven parity functions of the
# three wires), conjugated by Hadamards on the second target and by the
# outer CNOT pair that turns the doubly controlled NOT into a controlled
# SWAP. Only the three control CNOTs resist parallelization, which is what
# the multi-target extension exploits.


def cswap_elementary(control: int, a: int, b: int) -> list[Gate]:
    c = control
    return [
        cnot(b, a),
        t(c),
        h(b),
        t(a),
        t(b),
        cnot(c, a),
        tdg(a),
        cnot(a, b),
        t(b),
        cnot(c, a),
        cnot(a, b),
        tdg(b),
        cnot(c, b),
        cnot(b, a),
        tdg(a),
        cnot(b, a),
        h(b),
        cnot(b, a),
    ]


def multi_target_cswap(
    control: int, pairs, mode: str = "shared", ancillas=()
) -> list[Gate]:
    """Swap ``pairs`` of qubits under one control.

    shared mode emits one logical gate of depth weight 6*ceil(log2(n_t)) + 14
    for any n_t >= 1 (one pair: depth 14, 9 CNOTs, the CSWAP matrix); fanout
    mode copies the (already prepared) control onto n_t - 1 fresh ancillas
    with a CNOT tree and runs one elementary CSWAP per pair in parallel, so
    one pair is exactly ``cswap_elementary``. Neither mode prepares the
    control superposition itself.
    """
    _check_mode(mode)
    pairs = [tuple(p) for p in pairs]
    n_t = len(pairs)
    if n_t == 0:
        return []
    if mode == "shared":
        return [multi_target_cswap_gate(control, pairs)]
    ancillas = tuple(ancillas)
    if len(ancillas) < n_t - 1:
        raise MissingAncillasError(
            f"fanout over {n_t} pairs needs {n_t - 1} fresh ancillas, got {len(ancillas)}"
        )
    chain = [control] + list(ancillas[: n_t - 1])
    wires = chain + [q for p in pairs for q in p]
    if len(set(wires)) != len(wires):
        raise QubitCollisionError(f"qubits overlap in fanout CSWAP: {wires}")
    gates: list[Gate] = []
    # doubling tree: after round r the first 2**r chain qubits are entangled
    filled = 1
    while filled < n_t:
        for i in range(min(filled, n_t - filled)):
            gates.append(cnot(chain[i], chain[filled + i]))
        filled *= 2
    for ctrl, (qa, qb) in zip(chain, pairs):
        gates.extend(cswap_elementary(ctrl, qa, qb))
    return gates


def build_mixer(
    num_states: int,
    state_width: int,
    mode: str = "shared",
    weights=None,
) -> Circuit:
    """Binary-tree CSWAP mixer over ``num_states`` registers: the one tree builder.

    Register i is wires [i*q, (i+1)*q); registers merge pairwise at doubling
    strides. Each merge takes the next ancilla block after the registers: its
    control, prepared with H (or an RY angle matching the relative subtree
    ``weights``), then one :func:`multi_target_cswap`. The closing TRACE_OUT of
    all but register 0 leaves there the weighted mixture of the inputs.
    """
    _check_mode(mode)
    n_states = num_states
    q = state_width
    if not is_power_of_two(n_states):
        raise NotPowerOfTwoError(f"number of states {n_states} is not a power of two")
    if q < 1:
        raise CircuitError("state width must be at least one qubit")
    if weights is not None:
        weights = [float(x) for x in weights]
        finite = all(0 <= x < math.inf for x in weights)
        if len(weights) != n_states or not finite or not sum(weights) > 0:
            raise CircuitError("weights must be a finite non-negative vector per state")
        if len(set(weights)) == 1:
            weights = None

    regs = {f"reg{i}": tuple(range(i * q, (i + 1) * q)) for i in range(n_states)}
    num_anc = costmodel.mixer_cost(n_states, q, mode).ancillas
    circ = Circuit(
        num_qubits=n_states * q + num_anc,
        registers={**regs, "mixer_anc": tuple(range(n_states * q, n_states * q + num_anc))},
        input_registers=tuple(regs.values()),
    )
    if n_states == 1:
        return circ

    per_merge = costmodel.mixer_cost(2, q, mode).ancillas
    control = n_states * q
    stride = 1
    while stride < n_states:
        for i in range(0, n_states, 2 * stride):
            k = i + stride
            if weights is None:
                circ.add(h(control))
            else:
                wi, wk = weights[i], weights[k]
                keep_amp = math.sqrt(wi / (wi + wk)) if wi + wk > 0 else 1.0
                circ.add(ry(control, 2 * math.acos(min(1.0, keep_amp))))
                weights[i] = wi + wk
            pairs = zip(regs[f"reg{i}"], regs[f"reg{k}"])
            extra = range(control + 1, control + per_merge)
            circ.extend(multi_target_cswap(control, pairs, mode, extra))
            control += per_merge
        stride *= 2
    circ.add(trace_out(range(q, circ.num_qubits)))  # all but register 0
    return circ


# --- full pipeline assembly ---------------------------------------------------


def _branch_qubits(base: int, n: int, g: int):
    """(system, grouping, dilation) wire tuples of one branch register."""
    system = tuple(range(base, base + n))
    grouping = tuple(range(base + n, base + n + g))
    dil = base + n + g
    return system, grouping, dil


def _add_block(circ: Circuit, qubits, mid: str, matrix, depth: float, cnots: float) -> None:
    """Register ``matrix`` as ``mid`` and emit its opaque gate on ``qubits``."""
    circ.add_matrix(mid, matrix)
    circ.add(opaque_unitary(qubits, mid, depth_weight=depth, cnot_weight=cnots))


def assemble_simulation_circuit(
    kset: KrausSet,
    method: str,
    group_size: int = 1,
    mode: str = "shared",
) -> Circuit:
    """Lower a power-of-two Kraus set (see ``pad_to_power_of_two``) to a full circuit.

    stinespring: one opaque isometry block on system plus environment
    qubits, environment traced out, success probability 1.

    sznagy / svd: the operators are grouped, each expanded operator except
    the final identity block (which annihilates the embedded input exactly)
    is dilated into an opaque branch on n + log2(group_size) + 1 qubits, the
    branches are combined by the mixer, the dilation ancilla of register 0
    is post-selected on 0 and everything else is traced out. The reported
    success probability is group_size / m.
    """
    if method not in costmodel.METHODS:
        raise CircuitError(f"unknown method {method!r}")
    _check_mode(mode)
    n = kset.num_qubits
    m = kset.num_operators
    if not is_power_of_two(m):
        raise NotPowerOfTwoError(
            f"m = {m} is not a power of two; pad the set with pad_to_power_of_two first"
        )
    k = int(math.log2(m))

    if method == "stinespring":
        u = complete_isometry(stinespring_isometry(kset))
        cost = costmodel.dilation_cost("stinespring", n, m=m)
        system = tuple(range(n))
        env = tuple(range(n, n + k))
        circ = Circuit(
            num_qubits=n + k,
            registers={"system": system, "environment": env},
            input_registers=(system,),
        )
        # qubit listing is MSB-first: environment block index is most significant
        qubits = tuple(reversed(env)) + tuple(reversed(system))
        _add_block(circ, qubits, "stinespring_unitary", u, cost.depth, cost.cnot)
        if env:
            circ.add(trace_out(env))
        return circ

    stack = group_kraus(kset, group_size)
    g = int(math.log2(group_size))
    q = n + g + 1
    branches = stack[:-1]  # the last slice is the identity block
    cost = costmodel.dilation_cost(method, n, group_size=group_size)

    mixer = build_mixer(len(branches), q, mode)
    circ = Circuit(
        num_qubits=mixer.num_qubits,
        registers={"mixer_anc": mixer.registers["mixer_anc"]},
        input_registers=tuple(reg[:n] for reg in mixer.input_registers),  # branch systems
    )

    for i, op in enumerate(branches):
        system, grouping, dil = _branch_qubits(i * q, n, g)
        circ.registers[f"branch{i}_system"] = system
        if grouping:
            circ.registers[f"branch{i}_grouping"] = grouping
        circ.registers[f"branch{i}_dilation"] = (dil,)
        expanded = tuple(reversed(grouping)) + tuple(reversed(system))
        dilated = (dil,) + expanded
        if method == "sznagy":
            u = sznagy_unitary(op)
            _add_block(circ, dilated, f"branch{i}_sznagy", u, cost.depth, cost.cnot)
        else:
            u, u_sigma, vdag = svd_dilation(op)
            half_cnot, half_depth = costmodel.svd_unitary_block(stack.shape[-1])
            _add_block(circ, expanded, f"branch{i}_vdag", vdag, half_depth, half_cnot)
            circ.add(h(dil))
            _add_block(circ, dilated, f"branch{i}_usigma", u_sigma, cost.diag_gates, 0.0)
            circ.add(h(dil))
            _add_block(circ, expanded, f"branch{i}_u", u, half_depth, half_cnot)

    # the tree, without its closing trace; build_mixer checked its gates
    # against a register of the same num_qubits
    circ.gates += mixer.gates[:-1]

    _, grouping0, dil0 = _branch_qubits(0, n, g)
    circ.add(postselect(dil0, 0))
    # register 0's grouping wires, then every later register and the ancillas
    traced = grouping0 + tuple(range(q, circ.num_qubits))
    if traced:
        circ.add(trace_out(traced))
    return circ


# --- serialization -----------------------------------------------------------


def export_circuit(circ: Circuit, fmt: str = "native-text") -> str:
    """Serialize a circuit; deterministic gate-per-line text formats.

    ``native-text`` round-trips through :func:`parse_circuit` (opaque
    matrices travel in the JSON sidecar, see :func:`opaque_sidecar`).
    ``qasm-elementary`` emits OPENQASM 2.0 with opaque declarations for
    unitary blocks; logical multi-target CSWAPs are not expressible there.
    """
    if fmt == "native-text":
        return _export_native(circ)
    if fmt == "qasm-elementary":
        return _export_qasm(circ)
    raise UnsupportedGateError(f"unknown export format {fmt!r}")


# note key -> (Gate field, type). A line's notes follow " # ": the field its kind
# carries, other than theta, and the weights where the kind does not fix them.
_NOTES = {
    "id": ("matrix_id", str),
    "outcome": ("outcome", int),
    "n_targets": ("n_targets", int),
    "depth_weight": ("depth_weight", float),
    "cnot_weight": ("cnot_weight", float),
}


def _gate_line(g: Gate) -> str:
    _, carried, weights = _SHAPES[g.kind]
    written = (carried,) if weights else (carried, "depth_weight", "cnot_weight")
    notes = []
    for key, (name, typ) in _NOTES.items():
        if name in written:
            v = getattr(g, name)
            notes.append(f"{key}={format_float(v) if typ is float else v}")
    parts = ["GATE", g.kind] + [f"q{q}" for q in g.qubits]
    if g.theta is not None:
        parts.append(f"theta={format_float(g.theta)}")
    line = " ".join(parts)
    return line + " # " + ",".join(notes) if notes else line


def _export_native(circ: Circuit) -> str:
    lines = [f"CIRCUIT num_qubits={circ.num_qubits}"]
    for name in sorted(circ.registers):
        if name.split() != [name]:  # the reader takes a name as one whitespace-free token
            raise CircuitError(f"register name {name!r} is not one word")
        qs = " ".join(f"q{q}" for q in circ.registers[name])
        lines.append(f"REGISTER {name} {qs}".rstrip())
    for reg in circ.input_registers:
        if not reg:  # the reader refuses an INPUT line with no qubits
            raise CircuitError("an input register is empty")
        lines.append("INPUT " + " ".join(f"q{q}" for q in reg))
    lines.extend(_gate_line(g) for g in circ.gates)
    return "\n".join(lines) + "\n"


def parse_circuit(text: str, matrices: dict[str, np.ndarray] | None = None) -> Circuit:
    """Parse native-text back into a Circuit (inverse of the exporter).

    Every qubit index must lie in ``[0, num_qubits)`` of the header; an INPUT
    line names one or more qubits, a REGISTER zero or more.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("CIRCUIT "):
        raise CircuitError("native-text must start with a CIRCUIT header")
    try:
        num_qubits = int(lines[0].split("num_qubits=")[1])
        if num_qubits < 0:
            raise ValueError("negative qubit count")
    except (IndexError, ValueError) as exc:
        raise CircuitError(f"malformed header {lines[0]!r}: {exc!r}") from exc
    circ = Circuit(num_qubits=num_qubits)
    registers: dict[str, tuple[int, ...]] = {}
    inputs: list[tuple[int, ...]] = []
    for ln in lines[1:]:
        tokens = ln.split()
        try:
            if tokens[0] == "REGISTER":
                if tokens[1] in registers:
                    raise ValueError(f"register {tokens[1]!r} is already defined")
                registers[tokens[1]] = _qubits(tokens[2:], num_qubits)
            elif tokens[0] == "INPUT":
                if not tokens[1:]:
                    raise ValueError("an INPUT line needs one or more qubits")
                inputs.append(_qubits(tokens[1:], num_qubits))
            elif tokens[0] == "GATE":
                circ.add(_parse_gate(ln, num_qubits))
            else:
                raise ValueError("not a REGISTER, INPUT or GATE line")
        except (CircuitError, IndexError, KeyError, ValueError) as exc:
            raise CircuitError(f"malformed line {ln!r}: {exc!r}") from exc
    circ.registers = registers
    circ.input_registers = tuple(inputs)
    if matrices:
        circ.matrices = {k: np.asarray(v, dtype=complex) for k, v in matrices.items()}
    return circ


def _qubits(tokens, num_qubits: int) -> tuple[int, ...]:
    """``q<digits>`` tokens as qubit indices; ValueError for any other token,
    a qubit outside ``[0, num_qubits)`` or a repeated qubit."""
    bad = [t for t in tokens if not (t[:1] == "q" and t[1:].isascii() and t[1:].isdigit())]
    if bad:
        raise ValueError(f"{bad[0]!r} is not a qubit token q<digits>")
    qubits = tuple(int(t[1:]) for t in tokens)
    bad = [q for q in qubits if not 0 <= q < num_qubits]
    if bad:
        raise ValueError(f"qubit {bad[0]} outside [0, {num_qubits})")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"repeated qubit in {' '.join(tokens)}")
    return qubits


def _parse_gate(ln: str, num_qubits: int) -> Gate:
    """``Gate(kind, qubits, theta=..., **notes)`` of a GATE line; a stray token or an
    unknown or repeated note raises an error :func:`parse_circuit` reports with the line."""
    body, _, comment = ln.partition(" # ")
    _, kind, *tokens = body.split()
    notes = [kv.split("=", 1) for kv in comment.split(",")] if comment else []
    fields = {_NOTES[key][0]: _NOTES[key][1](value) for key, value in notes}
    if len(fields) != len(notes):
        raise ValueError("repeated note key")
    if tokens and tokens[-1].startswith("theta="):
        fields["theta"] = float(tokens.pop()[len("theta="):])
    return Gate(kind, _qubits(tokens, num_qubits), **fields)


_BLOCK_PAIRS = 4096  # the writer fills at most this many pairs (and at least one row) at a time
# one [re, im] pair laid out as json's indent=1 form, indexed by 2 * (real part
# written) + (imaginary part written): a part that is +0.0 is literal text, and
# any other part is a ``%r`` slot
_PAIRS = np.array(
    [f"   [\n    {re},\n    {im}\n   ]" for re in ("0.0", "%r") for im in ("0.0", "%r")],
    dtype=object,
)


def _rows(written: np.ndarray) -> str:
    """The ``%``-template of a block of rows laid out as json's indent=1 form,
    with slots for the parts where ``written`` (rows x pairs x 2) is true."""
    pairs = _PAIRS[2 * written[..., 0] + written[..., 1]].tolist()  # the four strings, not copies
    return ",\n".join("  [\n" + ",\n".join(row) + "\n  ]" for row in pairs)


def opaque_sidecar(circ: Circuit) -> str:
    """JSON sidecar mapping matrix ids to [re, im]-pair matrices.

    Byte contract: identical to ``json.dumps(payload, indent=1)`` of the
    payload ``{mid: matrix_to_pairs(m)}`` in sorted id order; finite,
    non-empty 2-D complex matrices only. Anything else raises CircuitError,
    for the first such matrix in id order, and no text is returned (json
    would write ``NaN``, which :func:`parse_sidecar` rejects, and ``[]``,
    which the template cannot reproduce).

    Each matrix is filled in blocks of whole rows, at most ``_BLOCK_PAIRS`` pairs
    (or one row) each, by one ``%`` fill of a template laid out as json's
    indent=1 form; one ``"".join`` of the pieces is the only whole-text copy.
    ``%r`` of a float is ``float.__repr__``, the text json writes for a finite
    float. Only the written parts are formatted: a real or imaginary part that is
    +0.0 (all 64 bits zero; a -0.0 has its sign bit set) is literal ``0.0`` text,
    as most of a sznagy or svd block is.
    """
    pieces = []
    for mid, mat in sorted(circ.matrices.items()):
        a = np.asarray(mat, dtype=complex, order="C")
        if a.ndim != 2 or 0 in a.shape:
            raise CircuitError(
                f"matrix {mid!r} has shape {a.shape}; the sidecar holds non-empty 2-D matrices"
            )
        if not np.isfinite(a).all():
            raise CircuitError(f"matrix {mid!r} has a non-finite entry")
        pieces.append(f"{',' if pieces else '{'}\n {json.dumps(mid)}: [\n")
        step = max(_BLOCK_PAIRS // a.shape[1], 1)
        for top in range(0, a.shape[0], step):
            pairs = a[top : top + step].view(float).reshape(-1, a.shape[1], 2)
            written = pairs.view(np.uint64) != 0
            pieces += (",\n" if top else "", _rows(written) % tuple(pairs[written].tolist()))
        pieces.append("\n ]")
    return "".join([*pieces, "\n}"]) if pieces else "{}"


_CHUNK = 1 << 16  # the reader encodes and splits at most about this many chars at a time
_NUMBER = b"0123456789+-.eE"
_NOT_NUMBER = re.compile(f"[^{re.escape(_NUMBER.decode())}]")  # where the reader may cut a body
_SPACE = b" \t\n\r"  # json's whitespace
_STRUCTURE_TO_SPACE = bytes.maketrans(b"[],", b"   ")


def _skeleton(r: int, c: int) -> bytes:
    """What an r x c matrix's text leaves once its numbers and whitespace are removed."""
    row = b"[" + b",".join([b"[,]"] * c) + b"]"
    return b"[" + b",".join([row] * r) + b"]"


def _read_matrix(text_and_start, scan_once):
    """json's ``parse_array`` hook: the array opening at ``text[start - 1]`` as one
    r x c matrix, and the index just past it.

    The array ends at the last ``]`` before the next ``"`` or ``}``. It is read twice
    in chunks of about ``_CHUNK`` chars: without its numbers and whitespace it must
    be ``_skeleton(r, c)``, and then its 2 r c number tokens fill the values array."""
    text, start = text_and_start
    quote = text.find('"', start)
    stop = len(text) if quote < 0 else quote
    brace = text.find("}", start, stop)
    end = text.rfind("]", start, stop if brace < 0 else brace) + 1
    cuts = [start - 1]  # chunk bounds, each before a non-number char: no number is cut
    while cuts[-1] < end:
        edge = _NOT_NUMBER.search(text, min(cuts[-1] + _CHUNK, end), end)
        cuts.append(edge.start() if edge else end)
    chunks = list(zip(cuts, cuts[1:]))
    pieces = []  # this first pass meets any non-ASCII char; the second cannot
    for a, b in chunks:
        try:
            pieces.append(text[a:b].encode("ascii").translate(None, _NUMBER + _SPACE))
        except UnicodeEncodeError as exc:
            i = a + exc.start  # the char's index in the whole text, not in its chunk
            raise ValueError(f"non-ASCII character {text[i]!r} at char {i}") from None
    skeleton = b"".join(pieces)
    c = max(skeleton.find(b"]]") // 4, 1)  # a row is "[" + "[,]," * (c - 1) + "[,]]"
    r = max((len(skeleton) - 1) // (4 * c + 2), 1)
    if skeleton != _skeleton(r, c):
        raise ValueError(f"the array at char {start - 1} is not a grid of [re, im] pairs")
    values, count = np.empty(2 * r * c), 0
    for a, b in chunks:
        tokens = text[a:b].encode("ascii").translate(_STRUCTURE_TO_SPACE).split()
        if count + len(tokens) <= len(values):
            values[count : count + len(tokens)] = np.array(tokens, dtype=float)
        count += len(tokens)
    if count != 2 * r * c:
        raise ValueError(f"the {r} x {c} matrix at char {start - 1} holds {count} numbers")
    if not np.isfinite(values).all():
        raise ValueError(f"the matrix at char {start - 1} has a non-finite entry")
    # each [re, im] pair reinterpreted in place: bit-exact, signed zeros kept
    return values.view(complex).reshape(r, c), end


def parse_sidecar(text: str) -> dict[str, np.ndarray]:
    """Inverse of :func:`opaque_sidecar`; malformed input raises CircuitError.

    The object follows json's rules (escapes, whitespace, duplicate keys: the last
    wins); each value must be a non-empty r x c grid of ``[re, im]`` pairs, read
    bit-exact. Numbers are read with ``float()``'s grammar, which also takes
    ``+1``, ``01``, ``.5`` and ``1.`` (JSON forbids them; the value is the same);
    non-finite values, JSON strings and booleans are refused.
    """
    decoder = json.JSONDecoder()
    decoder.parse_array = _read_matrix
    # the C scanner ignores the parse_array hook; the Python one calls it
    decoder.scan_once = json.scanner.py_make_scanner(decoder)
    try:
        raw = decoder.decode(text)
    except (ValueError, RecursionError) as exc:
        raise CircuitError(f"malformed sidecar: {exc}") from exc
    if not isinstance(raw, dict):
        raise CircuitError(f"sidecar must be a JSON object, got {type(raw).__name__}")
    bad = [mid for mid, value in raw.items() if not isinstance(value, np.ndarray)]
    if bad:
        raise CircuitError(f"malformed sidecar: {bad[0]!r} is not a matrix")
    return raw


_QASM_NAMES = {"H": "h", "T": "t", "TDG": "tdg", "RZ": "rz", "RY": "ry", "CNOT": "cx"}


def _export_qasm(circ: Circuit) -> str:
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{circ.num_qubits}];"]
    declared: set[str] = set()
    for g in circ.gates:
        if g.kind in _QASM_NAMES:
            name = _QASM_NAMES[g.kind]
            args = ",".join(f"q[{q}]" for q in g.qubits)
            if g.theta is not None:
                lines.append(f"{name}({format_float(g.theta)}) {args};")
            else:
                lines.append(f"{name} {args};")
        elif g.kind == "OPAQUE_UNITARY":
            if g.matrix_id not in declared:
                declared.add(g.matrix_id)
                params = ",".join(f"a{i}" for i in range(len(g.qubits)))
                lines.insert(3, f"opaque {g.matrix_id} {params};")
            args = ",".join(f"q[{q}]" for q in g.qubits)
            lines.append(f"{g.matrix_id} {args};")
        elif g.kind == "POSTSELECT":
            lines.append(f"// postselect q[{g.qubits[0]}] -> {g.outcome}")
        elif g.kind == "TRACE_OUT":
            qs = ",".join(f"q[{q}]" for q in g.qubits)
            lines.append(f"// trace_out {qs}")
        else:
            raise UnsupportedGateError(
                f"{g.kind} has no elementary QASM form; lower it first (fanout mode)"
            )
    return "\n".join(lines) + "\n"
