"""Dilation back-ends: embed non-unitary Kraus operators into unitaries.

Three constructions are provided. The stacked-isometry form handles a whole
Kraus set at once and is deterministic; the defect-operator and
singular-value forms dilate a single (possibly expanded) operator with one
ancilla qubit and succeed probabilistically on post-selection. Each
back-end returns its matrices, and each places the source operator in the
top-left block of the dilated matrix, so circuit assembly and verification
can treat all back-ends alike.

Block convention: ancilla indices are the most significant part of the
row/column index, so "ancilla = 0" selects the top block row.
"""

from __future__ import annotations

import numpy as np

from .channel import KrausSet
from .linalg import dagger, is_unitary, svd_factorize

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

# Singular values up to 1 + CONTRACTION_TOL count as a contraction.
CONTRACTION_TOL = 1e-9


class DilationError(Exception):
    pass


class NotContractionError(DilationError):
    pass


def stinespring_isometry(kset: KrausSet) -> np.ndarray:
    """The Kraus stack read as one (md x d) isometry, a view of ``kset.operators``.

    Tracing the log2(m)-qubit environment out of ``V rho V^dag`` reproduces
    the channel exactly, with success probability 1.
    """
    return kset.operators.reshape(-1, kset.dim)


def _contraction_svd(m: np.ndarray):
    """SVD of a square operator whose spectral norm is at most 1 + CONTRACTION_TOL."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DilationError(f"expected a square operator, got {m.shape}")
    u, s, vdag = svd_factorize(m)
    if not s.max(initial=0.0) <= 1.0 + CONTRACTION_TOL:
        raise NotContractionError(
            f"spectral norm {s.max():.12f} exceeds 1 + {CONTRACTION_TOL}"
        )
    return m, u, s, vdag


def sznagy_unitary(m: np.ndarray) -> np.ndarray:
    """One-ancilla unitary dilation (2d x 2d) of a contraction via defect operators.

    Builds ``[[M, D_Mdag], [D_M, -M^dag]]`` with ``D_T = sqrt(I - T^dag T)``.
    Acting on (system in psi, ancilla in 0) the top block applies M, so
    measuring the ancilla in 0 succeeds with probability ||M psi||^2.

    Both defect operators are formed from one SVD of M, which makes the
    intertwining relation ``M^dag D_Mdag = D_M M^dag`` hold to roundoff
    even when unit singular values are degenerate (separate PSD square
    roots lose ~sqrt(eps) there and fail the unitarity check).
    """
    m, u_f, s, vdag = _contraction_svd(m)
    root = np.sqrt(1.0 - np.clip(s, 0.0, 1.0) ** 2)
    defect = (dagger(vdag) * root) @ vdag
    defect_dagger = (u_f * root) @ dagger(u_f)
    u = np.block([[m, defect_dagger], [defect, -dagger(m)]])
    if not is_unitary(u, 1e-9):
        raise DilationError("defect-operator dilation failed the unitarity check")
    return u


def svd_dilation(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-ancilla dilation through the singular value decomposition.

    Factors ``M = U diag(s) Vdag`` and lifts each singular value to the
    unimodular pair ``s +- i sqrt(1 - s^2)`` on the ancilla branches, giving
    the diagonal unitary ``u_sigma`` (2d x 2d). Returns ``(u, u_sigma,
    vdag)``; the assembled ``(I(x)U)(H(x)I) u_sigma (H(x)I)(I(x)Vdag)`` has M
    as its top-left block. Singular values in (1, 1 + CONTRACTION_TOL] are
    clamped to 1; larger ones are rejected.
    """
    _, u, s, vdag = _contraction_svd(m)
    s = np.clip(s, 0.0, 1.0)
    lift = 1j * np.sqrt(1.0 - s**2)
    return u, np.diag(np.concatenate([s + lift, s - lift])), vdag
