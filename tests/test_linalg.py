import numpy as np
import pytest

from oqsynth.linalg import (
    DimensionMismatchError,
    NotHermitianError,
    NotIsometryError,
    NotPSDError,
    complete_isometry,
    dagger,
    is_isometry,
    is_unitary,
    max_abs,
    partial_trace,
    psd_sqrt,
    svd_factorize,
)


def random_complex(rng, rows, cols):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def random_psd(rng, dim):
    g = random_complex(rng, dim, dim)
    return g @ dagger(g)


def hermitian(a, tol):
    return max_abs(a - dagger(a)) <= tol


class TestPredicates:
    def test_identity_is_everything(self):
        eye = np.eye(4, dtype=complex)
        assert is_unitary(eye, 1e-12)
        assert hermitian(eye, 1e-12)
        assert is_isometry(eye, 1e-12)

    def test_non_hermitian_detected(self):
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        assert not hermitian(a, 1e-10)

    def test_isometry_rectangular(self):
        v = np.array([[1], [0]], dtype=complex)
        assert is_isometry(v, 1e-12)
        assert not is_isometry(v.T, 1e-12)


class TestPsdSqrt:
    def test_identity(self):
        eye = np.eye(4, dtype=complex)
        assert max_abs(psd_sqrt(eye) - eye) <= 1e-12

    def test_zero(self):
        z = np.zeros((3, 3), dtype=complex)
        assert max_abs(psd_sqrt(z)) == 0.0

    def test_diagonal(self):
        # brute-force oracle: eigendecomposition of a diagonal matrix is itself
        b = psd_sqrt(np.diag([4.0, 9.0]).astype(complex))
        assert max_abs(b - np.diag([2.0, 3.0])) <= 1e-12
        assert max_abs(b @ b - np.diag([4.0, 9.0])) <= 1e-12

    def test_clamps_tiny_negative(self):
        a = np.diag([1.0, -1e-12]).astype(complex)
        b = psd_sqrt(a, tol=1e-10)
        assert b[1, 1] == 0.0

    def test_rejects_negative(self):
        with pytest.raises(NotPSDError):
            psd_sqrt(np.diag([1.0, -1e-3]).astype(complex))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            psd_sqrt(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_square_property_randomized(self):
        # spec invariant: 100 random trials, dims <= 16
        rng = np.random.default_rng(7)
        for trial in range(100):
            dim = int(rng.choice([2, 4, 8, 16]))
            a = random_psd(rng, dim)
            b = psd_sqrt(a, tol=1e-10)
            assert hermitian(b, 1e-10)
            assert np.linalg.eigvalsh(b).min() >= -1e-9
            assert max_abs(b @ b - a) <= 1e-9 * max(1.0, max_abs(a))


class TestSvdFactorize:
    def test_identity(self):
        u, s, vdag = svd_factorize(np.eye(2, dtype=complex))
        assert np.allclose(s, [1.0, 1.0])
        assert max_abs(u @ vdag - np.eye(2)) <= 1e-12

    def test_diagonal_contraction(self):
        _, s, _ = svd_factorize(np.diag([0.5, 0.0]).astype(complex))
        assert np.allclose(s, [0.5, 0.0])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = random_complex(rng, 8, 8)
            u, s, vdag = svd_factorize(a)
            assert is_unitary(u, 1e-10)
            assert is_unitary(vdag, 1e-10)
            assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
            assert max_abs(u @ np.diag(s) @ vdag - a) <= 1e-10 * max(1.0, max_abs(a))

    def test_random_4x4_contraction(self):
        rng = np.random.default_rng(3)
        a = random_complex(rng, 4, 4)
        a = a / np.linalg.norm(a, 2)
        u, s, vdag = svd_factorize(a)
        assert max_abs(u @ np.diag(s) @ vdag - a) <= 1e-10


class TestCompleteIsometry:
    def test_first_basis_column(self):
        v = np.array([[1.0], [0.0]], dtype=complex)
        u = complete_isometry(v)
        assert u.shape == (2, 2)
        assert is_unitary(u, 1e-12)
        assert np.array_equal(u[:, 0], v[:, 0])

    def test_superposition_column(self):
        v = np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2)
        u = complete_isometry(v)
        assert is_unitary(u, 1e-10)
        assert np.array_equal(u[:, 0], v[:, 0])

    def test_stacked_kraus_isometry(self):
        # 8x4: amplitude-damping Kraus operators lifted to 2 qubits and stacked
        g = 0.3
        m0 = np.diag([1.0, np.sqrt(1 - g)]).astype(complex)
        m1 = np.array([[0, np.sqrt(g)], [0, 0]], dtype=complex)
        v = np.vstack([np.kron(m0, np.eye(2)), np.kron(m1, np.eye(2))])
        assert is_isometry(v, 1e-12)
        u = complete_isometry(v)
        assert u.shape == (8, 8)
        assert is_unitary(u, 1e-9)
        assert max_abs(u[:, :4] - v) == 0.0

    def test_random_isometries(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            full, _, _ = svd_factorize(random_complex(rng, 8, 8))
            v = full[:, :3]
            u = complete_isometry(v)
            assert is_unitary(u, 1e-9)
            assert max_abs(u[:, :3] - v) == 0.0

    def test_rejects_non_isometry(self):
        with pytest.raises(NotIsometryError):
            complete_isometry(np.array([[1.0], [1.0]], dtype=complex))


class TestPartialTrace:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(13)
        r1 = random_psd(rng, 2)
        r2 = random_psd(rng, 4)
        joint = np.kron(r1, r2)
        red = partial_trace(joint, [2, 4], keep={0})
        assert max_abs(red - r1 * np.trace(r2)) <= 1e-12 * max(1.0, max_abs(joint))

    def test_bell_state(self):
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        rho = np.outer(phi, phi.conj())
        red = partial_trace(rho, [2, 2], keep={0})
        assert max_abs(red - np.eye(2) / 2) <= 1e-12

    def test_trace_preserved_and_linear(self):
        rng = np.random.default_rng(17)
        a = random_psd(rng, 8)
        b = random_psd(rng, 8)
        ra = partial_trace(a, [2, 2, 2], keep={1})
        rb = partial_trace(b, [2, 2, 2], keep={1})
        rab = partial_trace(a + 2 * b, [2, 2, 2], keep={1})
        assert abs(np.trace(ra) - np.trace(a)) <= 1e-12 * abs(np.trace(a))
        assert max_abs(rab - (ra + 2 * rb)) <= 1e-12 * max_abs(a + 2 * b)

    def test_keep_multiple(self):
        rng = np.random.default_rng(19)
        r1 = random_psd(rng, 2)
        r2 = random_psd(rng, 2)
        r3 = random_psd(rng, 2)
        joint = np.kron(np.kron(r1, r2), r3)
        red = partial_trace(joint, [2, 2, 2], keep={0, 2})
        expect = np.kron(r1, r3) * np.trace(r2)
        assert max_abs(red - expect) <= 1e-12 * max(1.0, max_abs(joint))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            partial_trace(np.eye(4, dtype=complex), [2, 4], keep={0})

    def test_cswap_mixing_identity(self):
        # controlled-swap on rho1 (x) rho2 (x) |p><p| then tracing the last
        # two subsystems leaves the weighted mixture on the first
        rng = np.random.default_rng(29)
        g1 = random_complex(rng, 2, 2)
        g2 = random_complex(rng, 2, 2)
        rho1 = g1 @ dagger(g1)
        rho1 /= np.trace(rho1)
        rho2 = g2 @ dagger(g2)
        rho2 /= np.trace(rho2)
        p1 = 0.3
        ctrl = np.array([np.sqrt(p1), np.sqrt(1 - p1)])
        joint = np.kron(np.kron(rho1, rho2), np.outer(ctrl, ctrl))
        cswap = np.zeros((8, 8))
        for i in range(8):
            a, b, c = (i >> 2) & 1, (i >> 1) & 1, i & 1
            j = (b << 2) | (a << 1) | c if c else i
            cswap[j, i] = 1
        mixed = cswap @ joint @ cswap.T
        reduced = partial_trace(mixed, [2, 2, 2], keep={0})
        assert max_abs(reduced - (p1 * rho1 + (1 - p1) * rho2)) <= 1e-12


class TestKron:
    # np.kron's layout (first factor most significant) is the one partial_trace assumes
    def test_identities(self):
        assert max_abs(np.kron(np.eye(2), np.eye(2)) - np.eye(4)) == 0.0

    def test_index_arithmetic(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        p0 = np.diag([1.0, 0.0]).astype(complex)
        m = np.kron(x, p0)
        assert m[2, 0] == 1.0
        assert m[0, 2] == 1.0
        assert np.count_nonzero(m) == 2

    def test_associativity(self):
        rng = np.random.default_rng(23)
        a = random_complex(rng, 2, 2)
        b = random_complex(rng, 2, 2)
        c = random_complex(rng, 2, 2)
        assert max_abs(np.kron(np.kron(a, b), c) - np.kron(a, np.kron(b, c))) <= 1e-12
