"""Kraus-set model of a quantum channel.

Provides CPTP validation, the dense reference channel application that every
circuit simulation is checked against, reproducible random channel
generation, the operator-grouping scheme that packs several Kraus operators
into one expanded operator, and the discretized exciton-transport channel
used as the worked physical example.

A Kraus stack is one (m, d, d) complex array, operator k at index k; every
channel sum is one batched matmul reduced over axis 0 in operator order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import (
    DimensionMismatchError,
    NotPSDError,
    dagger,
    matrix_to_pairs,
    max_abs,
    pairs_to_matrix,
    partial_trace,
    psd_sqrt,
)


class ChannelError(Exception):
    pass


class NotTracePreservingError(ChannelError):
    pass


class NotPowerOfTwoError(ChannelError):
    pass


class InvalidGroupSizeError(ChannelError):
    pass


class InvalidRatesError(ChannelError):
    pass


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def next_power_of_two(n: int) -> int:
    """Smallest power of two that is at least ``n`` (``n >= 1``)."""
    if n < 1:
        raise ValueError(f"{n} has no power-of-two padding; need at least 1")
    return 1 << (n - 1).bit_length()


@dataclass(frozen=True, eq=False)
class KrausSet:
    """A validated stack of Kraus operators on a power-of-two space.

    ``operators`` is the (m, d, d) complex stack; ``deviation`` records
    ``||sum_k M_k^dag M_k - I||_max`` at validation time.
    """

    operators: np.ndarray
    dim: int
    num_qubits: int
    deviation: float

    @property
    def num_operators(self) -> int:
        return len(self.operators)

    @property
    def is_minimal(self) -> bool:
        """Minimal sets need at most dim**2 operators."""
        return self.num_operators <= self.dim**2


def _completeness(ops: np.ndarray) -> np.ndarray:
    """``sum_k M_k^dag M_k`` of an (m, d, d) stack, summed in operator order."""
    return (dagger(ops) @ ops).sum(axis=0)


def validate_cptp(ops, tol: float = 1e-9) -> KrausSet:
    """Validate trace preservation and stack a copy of the operators in a KrausSet.

    ``ops`` is an (m, d, d) array or a sequence of d x d matrices. Raises
    :class:`NotTracePreservingError` when the completeness sum deviates from
    the identity by more than ``tol``,
    :class:`DimensionMismatchError` for ragged, non-square or 1x1 input and
    :class:`NotPowerOfTwoError` when the dimension is not a qubit count.
    """
    mats = [np.asarray(op, dtype=complex) for op in ops]
    if not mats:
        raise DimensionMismatchError("a Kraus set needs at least one operator")
    if not mats[0].shape:
        raise DimensionMismatchError(f"operators must be d x d matrices, got {mats[0].shape}")
    d = mats[0].shape[0]
    for m in mats:
        if m.shape != (d, d):
            raise DimensionMismatchError(f"all operators must be {d}x{d}, got {m.shape}")
    if d < 2:
        raise DimensionMismatchError(f"dimension {d} has no qubit; a Kraus set needs dim >= 2")
    if not is_power_of_two(d):
        raise NotPowerOfTwoError(f"dimension {d} is not a power of two")
    stack = np.array(mats)
    dev = max_abs(_completeness(stack) - np.eye(d))
    if not dev <= tol:
        raise NotTracePreservingError(
            f"sum M^dag M deviates from identity by {dev:.3e} (tol {tol})"
        )
    return KrausSet(operators=stack, dim=d, num_qubits=int(math.log2(d)), deviation=dev)


def pad_to_power_of_two(kset: KrausSet) -> KrausSet:
    """Append zero operators up to a power-of-two count; ``kset`` itself if already one.

    Zero blocks add nothing to ``sum M^dag M``, so ``deviation`` carries over.
    """
    m = kset.num_operators
    if is_power_of_two(m):
        return kset
    zeros = np.zeros((next_power_of_two(m) - m, kset.dim, kset.dim), dtype=complex)
    return replace(kset, operators=np.concatenate([kset.operators, zeros]))


def apply_channel(kset: KrausSet, rho: np.ndarray) -> np.ndarray:
    """Reference channel application ``sum_k M_k rho M_k^dag``.

    This is the oracle every synthesized circuit is verified against.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (kset.dim, kset.dim):
        raise DimensionMismatchError(
            f"state shape {rho.shape} does not match channel dimension {kset.dim}"
        )
    return (kset.operators @ rho @ dagger(kset.operators)).sum(axis=0)


def random_kraus_set(num_qubits: int, num_operators: int, seed: int) -> KrausSet:
    """Reproducible random CPTP set.

    Samples complex Gaussian matrices G_k and normalizes them with the
    inverse square root of S = sum G_k^dag G_k, which enforces trace
    preservation exactly up to numerics. Identical seeds give bitwise
    identical operators.
    """
    if num_qubits < 1 or num_operators < 1:
        raise ValueError("need num_qubits >= 1 and num_operators >= 1")
    rng = np.random.default_rng(seed)
    d = 2**num_qubits
    gs = np.array([
        (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
        for _ in range(num_operators)
    ])
    w, v = np.linalg.eigh(_completeness(gs))
    inv_sqrt = (v / np.sqrt(w)) @ dagger(v)
    return validate_cptp(gs @ inv_sqrt, tol=1e-10)


def group_kraus(kset: KrausSet, group_size: int) -> np.ndarray:
    """The (m/l + 1, l*d, l*d) stack that packs l = ``group_size`` Kraus operators
    into each expanded operator.

    ``group_size`` must be a power of two that divides m, as it is for any
    group size up to m of a ``pad_to_power_of_two`` set. One reshape stacks
    each run of l operators in the first d columns of an l*d square matrix
    (zeros elsewhere): these m/l slices are the branches. The last slice holds
    the identity on the non-initial block so the expanded set is again trace
    preserving. At l = 1 the branches are the base operators and the last
    slice is zero.
    """
    m, d = kset.num_operators, kset.dim
    if not is_power_of_two(group_size):
        raise InvalidGroupSizeError(f"group size {group_size} is not a power of two")
    if group_size > m:
        raise InvalidGroupSizeError(f"group size {group_size} outside [1, {m}]")
    if m % group_size:
        raise InvalidGroupSizeError(f"group size {group_size} does not divide m = {m}")
    b, ld = m // group_size, group_size * d
    expanded = np.zeros((b + 1, ld, ld), dtype=complex)
    expanded[:b, :, :d] = np.reshape(kset.operators, (b, ld, d))
    expanded[b, d:, d:] = np.eye(ld - d)

    dev = max_abs(_completeness(expanded) - np.eye(ld))
    if not dev <= max(1e-9, 10 * kset.deviation):
        raise NotTracePreservingError(f"expanded set deviates from identity by {dev:.3e}")
    return expanded


def _group_dims(stack: np.ndarray) -> tuple[int, int]:
    """(l, d) of a :func:`group_kraus` stack: its last slice is the identity on
    all but the first d of its l*d dimensions, so its trace is l*d - d."""
    ld = stack.shape[-1]
    d = ld - round(np.trace(stack[-1]).real)
    return ld // d, d


def expand_state(stack: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Embed a base-space state as (grouping register in |0..0>) x rho."""
    rho = np.asarray(rho, dtype=complex)
    l, d = _group_dims(stack)
    if rho.shape != (d, d):
        raise DimensionMismatchError(f"state shape {rho.shape}, expected {(d, d)}")
    zero = np.zeros((l, l), dtype=complex)
    zero[0, 0] = 1.0
    return np.kron(zero, rho)


def reduce_state(stack: np.ndarray, rho_expanded: np.ndarray) -> np.ndarray:
    """Trace the grouping subsystem out of an expanded-space state."""
    return partial_trace(rho_expanded, _group_dims(stack), keep={1})


def apply_grouped(stack: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Apply a :func:`group_kraus` stack to the embedded state and trace back.

    Equals ``apply_channel`` on the base set; this is the grouping
    trace-out identity.
    """
    emb = expand_state(stack, rho)
    return reduce_state(stack, (stack @ emb @ dagger(stack)).sum(axis=0))


@dataclass(frozen=True)
class FMOParams:
    """Rates (1/fs) and timestep (fs) of the discretized exciton channel."""

    alpha: float = 3e-3
    beta: float = 5e-7
    gamma: float = 6.28e-3
    dt: float = 48.4


# Default initial state: equal superposition of |001>, |010>, |100>.
FMO_INITIAL_KETS = (1, 2, 4)


def fmo_initial_state() -> np.ndarray:
    """Density matrix of the default single-exciton superposition input."""
    psi = np.zeros(8, dtype=complex)
    psi[list(FMO_INITIAL_KETS)] = 1 / np.sqrt(3)
    return np.outer(psi, psi.conj())


def fmo_kraus_set(params: FMOParams = FMOParams()) -> KrausSet:
    """Eight Kraus operators of one discrete timestep on 3 qubits.

    Sites are computational basis states 0..4 of the 8-dimensional space:
    dephasing on sites 1..3, recombination from sites 1..3 to the ground
    state 0, relaxation from site 3 into the sink site 4, and a remainder
    operator M_0 that acts as the identity on the unused levels 5..7.
    Operators are returned in index order M_0..M_7.
    """
    for name in ("alpha", "beta", "gamma", "dt"):
        if not getattr(params, name) >= 0:
            raise InvalidRatesError(f"{name} must be non-negative")
    a, b, g = (rate * params.dt for rate in (params.alpha, params.beta, params.gamma))
    if not all(x <= 1.0 for x in (a, b, g)):
        raise InvalidRatesError("rate * dt must stay within [0, 1]")

    # M_k = sqrt(rate * dt) |i><j| for k = 1..7
    ops = np.zeros((8, 8, 8), dtype=complex)
    ops[range(1, 8), [1, 2, 3, 0, 0, 0, 4], [1, 2, 3, 1, 2, 3, 3]] = np.sqrt([a, a, a, b, b, b, g])
    try:
        ops[0] = psd_sqrt(np.eye(8) - _completeness(ops[1:]), tol=1e-10)
    except NotPSDError as exc:
        raise InvalidRatesError(f"rates leave no PSD remainder: {exc}") from exc
    return validate_cptp(ops, tol=1e-10)


@dataclass(frozen=True)
class Trajectory:
    """Site populations <s|rho|s> (s = 0..4) and trace, per timestep."""

    times_fs: np.ndarray
    populations: np.ndarray  # shape (steps + 1, 5)
    traces: np.ndarray

    @property
    def steps(self) -> int:
        return len(self.traces) - 1


def fmo_trajectory(
    params: FMOParams, rho0: np.ndarray, steps: int
) -> Trajectory:
    """Iterate the discretized channel and record site populations.

    Row 0 holds the initial state; row t the state after t applications.
    """
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    kset = fmo_kraus_set(params)
    rho = np.asarray(rho0, dtype=complex)
    if rho.shape != (8, 8):
        raise DimensionMismatchError(f"FMO state must be 8x8, got {rho.shape}")
    pops = np.empty((steps + 1, 5))
    traces = np.empty(steps + 1)
    for t in range(steps + 1):
        pops[t] = [rho[s, s].real for s in range(5)]
        traces[t] = np.trace(rho).real
        if t < steps:
            rho = apply_channel(kset, rho)
    times = np.arange(steps + 1) * params.dt
    return Trajectory(times_fs=times, populations=pops, traces=traces)


# --- Kraus JSON interchange -------------------------------------------------
#
# {"dim": d, "operators": [m matrices, each d x d of [re, im] pairs, row-major]}


def kraus_to_json_dict(kset: KrausSet) -> dict:
    return {"dim": kset.dim, "operators": matrix_to_pairs(kset.operators)}


def kraus_from_json_dict(data: dict, validate: bool = True, tol: float = 1e-9) -> KrausSet:
    """Parse the Kraus JSON object; rejects non-CPTP input unless ``validate=False``."""
    try:
        dim = data["dim"]
        if type(dim) is not int:  # 2.9, "2" and true are not sizes
            raise TypeError(f"dim {dim!r} is not an int")
        ops = data["operators"]
        # an empty list reaches validate_cptp, which names it
        stack = pairs_to_matrix(ops) if ops else np.empty((0, dim, dim))
        if stack.shape[1:] != (dim, dim):
            raise ValueError(f"operator shape {stack.shape[1:]} is not {(dim, dim)}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ChannelError(f"malformed Kraus JSON: {exc}") from exc
    return validate_cptp(stack, tol=tol if validate else math.inf)
