import numpy as np
import pytest

from oqsynth.channel import pad_to_power_of_two, random_kraus_set, validate_cptp
from oqsynth.dilation import (
    HADAMARD,
    NotContractionError,
    stinespring_isometry,
    svd_dilation,
    sznagy_unitary,
)
from oqsynth.linalg import (
    complete_isometry,
    dagger,
    is_unitary,
    max_abs,
    partial_trace,
)


def amplitude_damping(g):
    m0 = np.diag([1.0, np.sqrt(1 - g)]).astype(complex)
    m1 = np.array([[0, np.sqrt(g)], [0, 0]], dtype=complex)
    return validate_cptp([m0, m1])


def random_density(rng, dim):
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    rho = g @ dagger(g)
    return rho / np.trace(rho)


def haar_state(rng, dim):
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def svd_unitary(m):
    """The full (ancilla, system) unitary the svd route's three blocks compose."""
    u, u_sigma, vdag = svd_dilation(m)
    h = np.kron(HADAMARD, np.eye(u.shape[0]))
    return np.kron(np.eye(2), u) @ h @ u_sigma @ h @ np.kron(np.eye(2), vdag)


class TestStinespring:
    def test_identity_channel(self):
        k = validate_cptp([np.eye(2, dtype=complex)])
        v = stinespring_isometry(k)
        assert v.shape == (2, 2)  # no environment qubit
        assert max_abs(v - np.eye(2)) == 0.0

    def test_amplitude_damping_matches_oracle(self):
        rng = np.random.default_rng(0)
        k = amplitude_damping(0.3)
        v = stinespring_isometry(k)
        assert v.shape == (4, 2)
        for _ in range(5):
            rho = random_density(rng, 2)
            lifted = v @ rho @ dagger(v)
            reduced = partial_trace(lifted, [2, 2], keep={1})
            want = sum(m @ rho @ dagger(m) for m in k.operators)
            assert max_abs(reduced - want) <= 1e-10

    def test_random_set_shapes_and_isometry(self):
        k = random_kraus_set(2, 16, seed=3)
        v = stinespring_isometry(k)
        assert v.shape == (64, 4)  # 16 blocks: four environment qubits
        assert max_abs(dagger(v) @ v - np.eye(4)) <= 1e-10

    def test_block_rows_equal_operators(self):
        k = pad_to_power_of_two(random_kraus_set(1, 3, seed=5))
        v = stinespring_isometry(k)
        assert v.shape == (8, 2)  # 2^k * d rows: padded from 3 to 4 operators
        for j, m in enumerate(k.operators):
            assert max_abs(v[2 * j : 2 * j + 2] - m) == 0.0
        assert max_abs(v[6:8]) == 0.0

    def test_unitary_completion(self):
        k = random_kraus_set(1, 4, seed=7)
        v = stinespring_isometry(k)
        u = complete_isometry(v, tol=1e-9)
        assert is_unitary(u, 1e-9)
        assert max_abs(u[:, :2] - v) == 0.0


class TestSzNagy:
    def test_identity_operator(self):
        u = sznagy_unitary(np.eye(2, dtype=complex))
        want = np.block(
            [[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), -np.eye(2)]]
        ).astype(complex)
        assert max_abs(u - want) <= 1e-12

    def test_zero_operator(self):
        u = sznagy_unitary(np.zeros((2, 2), dtype=complex))
        want = np.block(
            [[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]]
        ).astype(complex)
        assert max_abs(u - want) <= 1e-12

    def test_scaled_identity_defects(self):
        m = np.sqrt(0.5) * np.eye(2, dtype=complex)
        u = sznagy_unitary(m)
        assert max_abs(u[2:, :2] - np.sqrt(0.5) * np.eye(2)) <= 1e-12
        assert is_unitary(u, 1e-12)

    def test_top_left_block_and_column_zero(self):
        k = random_kraus_set(2, 4, seed=11)
        for m in k.operators:
            u = sznagy_unitary(m)
            assert is_unitary(u, 1e-9)
            assert max_abs(u[:4, :4] - m) <= 1e-12

    def test_success_probability(self):
        rng = np.random.default_rng(13)
        k = random_kraus_set(1, 3, seed=17)
        for m in k.operators:
            u = sznagy_unitary(m)
            psi = haar_state(rng, 2)
            # ancilla-major embedding: |0> (x) psi fills the first d entries
            inp = np.concatenate([psi, np.zeros(2, dtype=complex)])
            out = u @ inp
            p = np.linalg.norm(out[:2]) ** 2
            assert abs(p - np.linalg.norm(m @ psi) ** 2) <= 1e-10

    def test_rejects_expansion(self):
        with pytest.raises(NotContractionError):
            sznagy_unitary(1.5 * np.eye(2, dtype=complex))

    def test_defect_matches_psd_sqrt(self):
        from oqsynth.linalg import psd_sqrt

        k = random_kraus_set(1, 3, seed=43)
        for m in k.operators:
            u = sznagy_unitary(m)
            want = psd_sqrt(np.eye(2) - dagger(m) @ m, tol=1e-9)
            assert max_abs(u[2:, :2] - want) <= 1e-9

    def test_degenerate_unit_singular_values(self):
        # fully grouped operator: d-fold degenerate unit singular values
        from oqsynth.channel import group_kraus

        k = random_kraus_set(1, 4, seed=47)
        g = group_kraus(k, 4)
        assert is_unitary(sznagy_unitary(g[0]), 1e-11)


class TestSvdDilation:
    def test_unimodular_lift_extremes(self):
        us = svd_dilation(np.eye(2, dtype=complex))[1]
        assert np.allclose(np.diag(us), np.ones(4))  # sigma = 1 -> entries 1
        us0 = np.diag(svd_dilation(np.zeros((2, 2), dtype=complex))[1])
        assert np.allclose(us0[:2], 1j) and np.allclose(us0[2:], -1j)

    def test_paper_pinned_diagonal(self):
        us = svd_dilation(np.diag([0.5, 1.0]).astype(complex))[1]
        # singular values sort descending: (1, 0.5)
        plus = np.diag(us)[:2]
        want = {1.0 + 0j, 0.5 + 1j * np.sqrt(0.75)}
        got = set(np.round(plus, 12))
        assert got == {complex(np.round(z, 12)) for z in want}

    def test_u_sigma_unitary_diagonal(self):
        k = random_kraus_set(2, 5, seed=19)
        for m in k.operators:
            us = svd_dilation(m)[1]
            assert max_abs(us - np.diag(np.diag(us))) == 0.0
            assert max_abs(np.abs(np.diag(us)) - 1.0) <= 1e-12

    def test_assembled_top_left_block(self):
        k = random_kraus_set(2, 4, seed=23)
        for m in k.operators:
            w = svd_unitary(m)
            assert is_unitary(w, 1e-9)
            assert max_abs(w[:4, :4] - m) <= 1e-10

    def test_success_probability(self):
        rng = np.random.default_rng(29)
        k = random_kraus_set(1, 4, seed=31)
        for m in k.operators:
            w = svd_unitary(m)
            psi = haar_state(rng, 2)
            inp = np.concatenate([psi, np.zeros(2, dtype=complex)])
            out = w @ inp
            p = np.linalg.norm(out[:2]) ** 2
            assert abs(p - np.linalg.norm(m @ psi) ** 2) <= 1e-10

    def test_clamps_marginal_singular_values(self):
        m = (1.0 + 5e-10) * np.eye(2, dtype=complex)
        us = svd_dilation(m)[1]
        assert np.allclose(np.diag(us), 1.0)

    def test_rejects_expansion(self):
        with pytest.raises(NotContractionError):
            svd_dilation(1.01 * np.eye(2, dtype=complex))


class TestCrossBackend:
    def test_top_left_block_everywhere(self):
        # every dilation kind exposes the source operator in its first block
        for n in (1, 2):
            k = random_kraus_set(n, 4, seed=100 + n)
            d = k.dim
            v = stinespring_isometry(k)
            for j, m in enumerate(k.operators):
                assert max_abs(v[j * d : (j + 1) * d] - m) <= 1e-12
                assert max_abs(sznagy_unitary(m)[:d, :d] - m) <= 1e-9
                assert max_abs(svd_unitary(m)[:d, :d] - m) <= 1e-9
