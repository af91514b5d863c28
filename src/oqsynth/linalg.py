"""Dense complex matrix kernel used by every other module.

All matrices are numpy ``complex128`` arrays. Every function is pure and
never mutates its arguments, so values are safe to share across threads.
Tolerances are explicit parameters with stated defaults; there are no
hidden globals.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence

import numpy as np


class LinalgError(Exception):
    """Base class for matrix-kernel failures."""


class NotHermitianError(LinalgError):
    pass


class NotPSDError(LinalgError):
    pass


class NotIsometryError(LinalgError):
    pass


class DimensionMismatchError(LinalgError):
    pass


class ConvergenceFailure(LinalgError):
    pass


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def max_abs(a: np.ndarray) -> float:
    """Max-entry norm ||A||_max."""
    return float(np.abs(a).max()) if a.size else 0.0


def is_unitary(a: np.ndarray, tol: float = 1e-10) -> bool:
    a = np.asarray(a)
    return a.shape[0] == a.shape[1] and is_isometry(a, tol)


def is_isometry(a: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff ||A^dag A - I||_max <= tol (columns orthonormal)."""
    a = np.asarray(a)
    if a.shape[0] < a.shape[1]:
        return False
    return max_abs(dagger(a) @ a - np.eye(a.shape[1])) <= tol


def psd_sqrt(a: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition.

    Eigenvalues in ``[-tol, 0)`` are clamped to 0; anything below ``-tol``
    raises :class:`NotPSDError`. The result ``B`` is Hermitian PSD with
    ``B @ B`` equal to the input within ``10 * tol``.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"psd_sqrt needs a square matrix, got {a.shape}")
    if max_abs(a - dagger(a)) > tol:
        raise NotHermitianError(
            f"matrix is not Hermitian within {tol} (deviation {max_abs(a - dagger(a)):.3e})"
        )
    w, v = np.linalg.eigh((a + dagger(a)) / 2)
    if w.min() < -tol:
        raise NotPSDError(f"eigenvalue {w.min():.3e} below -{tol}")
    w = np.clip(w, 0.0, None)
    b = (v * np.sqrt(w)) @ dagger(v)
    return (b + dagger(b)) / 2


def svd_factorize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD ``A = U diag(s) Vdag`` with s non-negative, descending."""
    a = np.asarray(a, dtype=complex)
    try:
        u, s, vdag = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD did not converge: {exc}") from exc
    return u, s, vdag


def matrix_to_pairs(m: np.ndarray) -> list:
    """Nested ``[re, im]`` lists of a complex array of any rank, row-major (JSON form)."""
    m = np.asarray(m)
    return np.stack([m.real, m.imag], -1).tolist()


def pairs_to_matrix(pairs) -> np.ndarray:
    """Inverse of :func:`matrix_to_pairs`: nested ``[re, im]`` pairs of any rank.

    The result has the shape of ``pairs`` without its last axis; the caller
    checks the rank. Raises ``ValueError`` unless ``pairs`` is a regular nest
    of finite ``[re, im]`` pairs of numbers: numpy would read a string or a
    bool as one.
    """
    try:
        a = np.asarray(pairs, dtype=float)
    except OverflowError as exc:  # an int literal beyond the float range
        raise ValueError(f"matrix entry out of range: {exc}") from exc
    if a.ndim == 0 or a.shape[-1] != 2:
        raise ValueError(f"expected rows of [re, im] pairs, got shape {a.shape}")
    entries = pairs
    for _ in range(a.ndim - 1):
        entries = chain.from_iterable(entries)
    kinds = set(map(type, entries))
    bad = sorted(k.__name__ for k in kinds if k is bool or not issubclass(k, (int, float)))
    if bad:
        raise ValueError(f"a matrix entry of type {bad[0]} is not a number")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    # reinterpret each [re, im] pair in place: bit-exact, signed zeros kept
    return np.ascontiguousarray(a).view(complex)[..., 0]


def complete_isometry(v: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Extend an isometry to a square unitary whose first columns equal ``v``.

    The remaining columns are the orthogonal complement from a complete QR
    factorization of ``v``. The input columns are copied into the result
    exactly.
    """
    v = np.asarray(v, dtype=complex)
    rows, cols = v.shape
    if rows < cols:
        raise NotIsometryError(f"isometry needs rows >= cols, got {v.shape}")
    if not is_isometry(v, tol):
        raise NotIsometryError("columns are not orthonormal within tolerance")
    u = np.linalg.qr(v, mode="complete")[0]
    u[:, :cols] = v
    if not is_unitary(u, tol):
        raise NotIsometryError("completed matrix failed the unitarity check")
    return u


def partial_trace(
    rho: np.ndarray, dims: Sequence[int], keep: Iterable[int]
) -> np.ndarray:
    """Trace out all subsystems not in ``keep``.

    ``dims`` lists subsystem dimensions most-significant first, i.e. the
    row index factors as ``i = i_0 * (d_1 * ... ) + ... + i_{n-1}``.
    The trace of the input is preserved.
    """
    rho = np.asarray(rho, dtype=complex)
    dims = list(dims)
    total = int(np.prod(dims))
    if rho.shape != (total, total):
        raise DimensionMismatchError(
            f"matrix shape {rho.shape} does not match dims product {total}"
        )
    keep_set = set(keep)
    if not keep_set <= set(range(len(dims))):
        raise DimensionMismatchError(f"keep indices {sorted(keep_set)} out of range")

    t = rho.reshape(dims + dims)
    cur = list(dims)
    for i in sorted(set(range(len(dims))) - keep_set, reverse=True):
        t = np.trace(t, axis1=i, axis2=i + len(cur))
        del cur[i]
    out = int(np.prod(cur)) if cur else 1
    return t.reshape(out, out)
