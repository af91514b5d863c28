"""Analytic depth / CNOT / qubit / success-probability formulas.

Two kinds of numbers appear in reports. Mixer and CSWAP figures are exact:
they equal the measured depth and CNOT count of the emitted elementary
sub-circuits. Dilation-block figures are model values: closed-form gate
counts of the standard isometry and two-level decompositions, used as both
the CNOT weight and (by documented convention) the depth weight of each
opaque block. Lower-order logarithmic isometry terms are reported in a
separate ``uncounted_cnot_bound`` field rather than folded in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

from .channel import is_power_of_two

METHODS = ("stinespring", "sznagy", "svd")
ANCILLA_MODES = ("shared", "fanout")

# per-CSWAP weights of the elementary decomposition
CSWAP_DEPTH = 14
CSWAP_CNOTS = 9


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")


def _check_mode(mode: str) -> None:
    if mode not in ANCILLA_MODES:
        raise ValueError(f"unknown ancilla mode {mode!r}, expected one of {ANCILLA_MODES}")


def _log2_int(n: int, what: str) -> int:
    if not is_power_of_two(n):
        raise ValueError(f"{what} = {n} is not a power of two")
    return int(math.log2(n))


def format_float(x: float) -> str:
    """17 significant digits: every float round-trips through the text."""
    return f"{x:.17g}"


def success_probability(method: str, m: int, group_size: int) -> float:
    """Post-selection success probability: group_size / m, or 1 for stinespring."""
    return 1.0 if method == "stinespring" else group_size / m


def multi_target_cswap_depth(n_targets: int) -> int:
    """Depth weight of one shared-control multi-target CSWAP."""
    if n_targets < 1:
        raise ValueError("need at least one target pair")
    return 6 * math.ceil(math.log2(n_targets)) + CSWAP_DEPTH


def multi_target_cswap_cnots(n_targets: int) -> int:
    """CNOT weight: 3 control fan-out trees of n_t CNOTs plus 6 per pair."""
    if n_targets < 1:
        raise ValueError("need at least one target pair")
    return CSWAP_CNOTS * n_targets


@dataclass(frozen=True)
class BranchCost:
    """Per-dilation-block gate counts (model values, not transpiler output)."""

    cnot: float
    depth: float
    diag_gates: float = 0.0
    uncounted_cnot_bound: float = 0.0


def svd_unitary_block(expanded_dim: int) -> tuple[float, float]:
    """(cnot, depth) weight of one dense unitary factor in the svd route.

    The CNOT figure is half the two-factor formula; the depth weight is the
    same number floored at one layer, so tiny blocks still occupy a layer.
    """
    ld = expanded_dim
    cnot = (23 / 48) * ld**2 - 1.5 * ld + 4 / 3
    return cnot, max(1.0, cnot)


def dilation_cost(
    method: str, n: int, *, group_size: int = 1, m: int | None = None
) -> BranchCost:
    """Leading-order CNOT/depth of one dilation block.

    stinespring covers the whole set (requires a power-of-two ``m``);
    sznagy/svd cost one branch of ``m / group_size``. Depth equals the
    block's total gate count by convention, since no transpiler-independent
    depth exists for dense unitary blocks. An n below 1, and for sznagy/svd a
    group size that is not a power of two, raise ValueError as combined_cost does.
    """
    _check_method(method)
    if n < 1:
        raise ValueError(f"system qubit count n = {n} must be at least 1")
    d = 2**n
    ld = group_size * d
    if method == "stinespring":
        if m is None:
            raise ValueError("stinespring cost needs the operator count m")
        _log2_int(m, "operator count m")
        cnot = m * d**2 - m * d / 24
        return BranchCost(
            cnot=cnot,
            depth=cnot,
            uncounted_cnot_bound=math.log2(m * d) ** 2 * d,
        )
    _log2_int(group_size, "group size")
    if method == "sznagy":
        # isometry of shape (2*ld x d) per branch; scales linearly in the
        # grouping factor, with the ungrouped linear term kept at d/24
        cnot = group_size * (2 * d**2 - d / 24)
        return BranchCost(
            cnot=cnot,
            depth=cnot,
            uncounted_cnot_bound=math.log2(2 * ld) ** 2 * d,
        )
    # svd: two dense unitaries on log2(ld) qubits plus one diagonal on
    # log2(ld) + 1 qubits; the interposed ancilla Hadamards schedule in
    # parallel with the dense blocks and add no depth
    half_cnot, half_depth = svd_unitary_block(ld)
    diag = 4 * ld - 3
    return BranchCost(
        cnot=2 * half_cnot,
        depth=2 * half_depth + diag,
        diag_gates=diag,
    )


@dataclass(frozen=True)
class MixerCost:
    """Exact cost of the divide-and-conquer mixer over N states of q qubits.

    ``cswap_depth`` is the CSWAP-layer figure (layers x per-layer weight),
    excluding ancilla preparation. ``prep_depth`` is the standalone
    preparation cost (1 for an H-prepared control; 1 + ceil(log2 q) for the
    entangled fanout control). ``total_depth`` is what the standalone mixer
    circuit measures under ASAP layering: the shared-mode control H delays
    the first CSWAP layer by one, while in fanout mode one preparation
    layer hides inside the first elementary-CSWAP block's control slack.
    """

    cswap_depth: int
    prep_depth: int
    total_depth: int
    ancillas: int
    cnot: int


def mixer_cost(num_states: int, state_width: int, mode: str = "shared") -> MixerCost:
    """Exact depth/ancilla/CNOT figures for the binary mixing tree. The mixers it
    prices (N a power of two, q >= 1) and its ancilla count are the builders'."""
    _check_mode(mode)
    layers = _log2_int(num_states, "number of states")
    q = state_width
    if q < 1:
        raise ValueError(f"state width {q} must be at least one qubit")
    if num_states == 1:
        return MixerCost(0, 0, 0, 0, 0)
    merges = num_states - 1
    if mode == "shared":
        per_layer = multi_target_cswap_depth(q)
        return MixerCost(
            cswap_depth=layers * per_layer,
            prep_depth=1,
            total_depth=layers * per_layer + 1,
            ancillas=merges,
            cnot=multi_target_cswap_cnots(q) * merges,
        )
    tree = math.ceil(math.log2(q)) if q > 1 else 0
    return MixerCost(
        cswap_depth=CSWAP_DEPTH * layers,
        prep_depth=1 + tree,
        total_depth=CSWAP_DEPTH * layers + tree,
        ancillas=q * merges,
        cnot=(CSWAP_CNOTS * q + q - 1) * merges,
    )


@dataclass(frozen=True)
class CostReport:
    """Cost summary for one (method, n, m, group size, ancilla mode) point."""

    method: str
    n: int
    m: int
    group_size: int
    ancilla_mode: str
    depth: float
    cnot_count: float
    qubit_count: int
    success_probability: float
    expected_shots: float
    dilation_cnot: float = 0.0
    dilation_depth: float = 0.0
    mixer_cnot: int = 0
    mixer_depth: int = 0
    diag_gates: float = 0.0
    uncounted_cnot_bound: float = 0.0
    notes: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


CSV_HEADER = "method,n,m,l,mode,depth,cnot,qubits,p_success,shots"


def report_to_csv_row(r: CostReport) -> str:
    vals = [
        r.method,
        str(r.n),
        str(r.m),
        str(r.group_size),
        r.ancilla_mode,
        format_float(r.depth),
        format_float(r.cnot_count),
        str(r.qubit_count),
        format_float(r.success_probability),
        format_float(r.expected_shots),
    ]
    return ",".join(vals)


def reports_to_csv(reports) -> str:
    return "\n".join([CSV_HEADER] + [report_to_csv_row(r) for r in reports]) + "\n"


def combined_cost(
    method: str,
    n: int,
    m: int,
    group_size: int = 1,
    mode: str = "shared",
) -> CostReport:
    """Dilation plus mixer cost of the full simulation circuit.

    Branch blocks run in parallel on disjoint registers, so the depth is
    one branch depth plus the mixer's CSWAP layers (ancilla preparation
    overlaps the branch blocks). Success probability is group_size / m,
    or 1 for the deterministic stacked-isometry route, which is the
    one-branch case: group size 1 whatever ``group_size`` says, no mixer.
    A point whose figures do not fit a finite float raises ``ValueError``.
    """
    try:
        r = _combined_cost(method, n, m, group_size, mode)
    except OverflowError:  # an int figure beyond the float range
        r = None
    if r is None or not all(map(math.isfinite, (r.depth, r.cnot_count, r.uncounted_cnot_bound))):
        raise ValueError(f"the cost figures of n = {n}, m = {m}, l = {group_size} overflow a float")
    return r


def _combined_cost(method: str, n: int, m: int, group_size: int, mode: str) -> CostReport:
    _check_method(method)
    _check_mode(mode)
    if n < 1:
        raise ValueError(f"system qubit count n = {n} must be at least 1")
    k = _log2_int(m, "operator count m")
    if method == "stinespring":
        group_size, branches, q = 1, 1, n + k
        branch = dilation_cost(method, n, m=m)
        notes = "deterministic; single circuit call"
    else:
        q = n + 1 + _log2_int(group_size, "group size")
        if group_size > m:
            raise ValueError(f"group size {group_size} exceeds m = {m}")
        branches = m // group_size
        branch = dilation_cost(method, n, group_size=group_size)
        notes = ""
        if group_size == m:
            notes = "stinespring dominates: grouped dilation carries extra defect terms"
    p = success_probability(method, m, group_size)
    mix = mixer_cost(branches, q, mode)
    return CostReport(
        method=method,
        n=n,
        m=m,
        group_size=group_size,
        ancilla_mode=mode,
        depth=branch.depth + mix.cswap_depth,
        cnot_count=branches * branch.cnot + mix.cnot,
        qubit_count=branches * q + mix.ancillas,
        success_probability=p,
        expected_shots=1.0 / p,
        dilation_cnot=branches * branch.cnot,
        dilation_depth=branch.depth,
        mixer_cnot=mix.cnot,
        mixer_depth=mix.cswap_depth,
        diag_gates=branches * branch.diag_gates,
        uncounted_cnot_bound=branches * branch.uncounted_cnot_bound,
        notes=notes,
    )


def sweep_group_sizes(
    method: str, n: int, m: int, mode: str = "shared"
) -> list[CostReport]:
    """Cost reports for every power-of-two group size from 1 to m."""
    if method == "stinespring":
        raise ValueError("group-size sweep applies to sznagy/svd only")
    sizes = [2**k for k in range(_log2_int(m, "operator count m") + 1)]
    return [combined_cost(method, n, m, group_size=l, mode=mode) for l in sizes]


def tradeoff_flags(reports) -> dict:
    """Monotonicity summary of a sweep: CNOT down, depth up, best ratio last."""
    cnots = [r.cnot_count for r in reports]
    depths = [r.depth for r in reports]
    ratios = [c / d for c, d in zip(cnots, depths)]
    return {
        "cnot_nonincreasing": all(b <= a + 1e-9 for a, b in zip(cnots, cnots[1:])),
        "depth_nondecreasing": all(b >= a - 1e-9 for a, b in zip(depths, depths[1:])),
        "ratio_argmin": int(min(range(len(ratios)), key=ratios.__getitem__)),
    }
