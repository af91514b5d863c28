import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oqsynth.channel import (
    ChannelError,
    FMOParams,
    InvalidGroupSizeError,
    InvalidRatesError,
    NotPowerOfTwoError,
    NotTracePreservingError,
    _completeness,
    apply_channel,
    apply_grouped,
    expand_state,
    fmo_initial_state,
    fmo_kraus_set,
    fmo_trajectory,
    group_kraus,
    kraus_from_json_dict,
    kraus_to_json_dict,
    pad_to_power_of_two,
    random_kraus_set,
    reduce_state,
    validate_cptp,
)
from oqsynth.linalg import DimensionMismatchError, dagger, max_abs


def amplitude_damping(g):
    m0 = np.diag([1.0, np.sqrt(1 - g)]).astype(complex)
    m1 = np.array([[0, np.sqrt(g)], [0, 0]], dtype=complex)
    return [m0, m1]


def random_density(rng, dim):
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    rho = g @ dagger(g)
    return rho / np.trace(rho)


class TestValidateCptp:
    def test_identity_channel(self):
        k = validate_cptp([np.eye(2, dtype=complex)])
        assert k.num_operators == 1
        assert k.dim == 2 and k.num_qubits == 1
        assert k.deviation <= 1e-15

    def test_amplitude_damping(self):
        k = validate_cptp(amplitude_damping(0.3))
        assert k.deviation <= 1e-15

    def test_doubled_identity_rejected(self):
        with pytest.raises(NotTracePreservingError):
            validate_cptp([np.eye(2, dtype=complex), np.eye(2, dtype=complex)])

    def test_ragged_rejected(self):
        with pytest.raises(DimensionMismatchError):
            validate_cptp([np.eye(2, dtype=complex), np.eye(4, dtype=complex)])

    def test_scalar_operator_rejected(self):
        msg = r"^operators must be d x d matrices, got \(\)$"
        with pytest.raises(DimensionMismatchError, match=msg):
            validate_cptp([5])

    def test_non_power_of_two_rejected(self):
        with pytest.raises(NotPowerOfTwoError):
            validate_cptp([np.eye(3, dtype=complex)])

    def test_minimality_flag(self):
        k = random_kraus_set(1, 4, seed=0)
        assert k.is_minimal
        k5 = random_kraus_set(1, 5, seed=0)
        assert not k5.is_minimal


class TestPadToPowerOfTwo:
    def test_power_of_two_count_returns_the_set_itself(self):
        for m in (1, 2, 4):
            k = random_kraus_set(1, m, seed=m)
            assert pad_to_power_of_two(k) is k

    @pytest.mark.parametrize("m,padded", [(3, 4), (5, 8), (9, 16)])
    def test_zero_blocks_leave_the_channel_unchanged(self, m, padded):
        k = random_kraus_set(2, m, seed=m)
        p = pad_to_power_of_two(k)
        assert p.num_operators == padded
        assert np.array_equal(p.operators[:m], k.operators)
        assert all(not op.any() and op.shape == (4, 4) for op in p.operators[m:])
        assert p.deviation == k.deviation
        rho = random_density(np.random.default_rng(m), 4)
        assert np.array_equal(apply_channel(p, rho), apply_channel(k, rho))


class TestApplyChannel:
    def test_identity_channel_fixes_state(self):
        rng = np.random.default_rng(0)
        k = validate_cptp([np.eye(4, dtype=complex)])
        rho = random_density(rng, 4)
        assert max_abs(apply_channel(k, rho) - rho) == 0.0

    def test_amplitude_damping_on_excited(self):
        # hand expansion: M0|1><1|M0^dag = (1-g)|1><1|, M1|1><1|M1^dag = g|0><0|
        k = validate_cptp(amplitude_damping(0.3))
        rho1 = np.diag([0.0, 1.0]).astype(complex)
        out = apply_channel(k, rho1)
        assert max_abs(out - np.diag([0.3, 0.7])) <= 1e-15

    def test_preserves_density_properties(self):
        rng = np.random.default_rng(1)
        for n, m in [(1, 3), (2, 7)]:
            k = random_kraus_set(n, m, seed=int(rng.integers(1 << 30)))
            rho = random_density(rng, k.dim)
            out = apply_channel(k, rho)
            assert abs(np.trace(out) - 1.0) <= 1e-10
            assert max_abs(out - dagger(out)) <= 1e-12
            assert np.linalg.eigvalsh(out).min() >= -1e-9

    def test_dimension_mismatch(self):
        k = validate_cptp([np.eye(2, dtype=complex)])
        with pytest.raises(DimensionMismatchError):
            apply_channel(k, np.eye(4, dtype=complex))


class TestRandomKrausSet:
    def test_single_operator_is_unitary(self):
        k = random_kraus_set(1, 1, seed=42)
        m = k.operators[0]
        assert max_abs(dagger(m) @ m - np.eye(2)) <= 1e-12

    def test_cptp_within_tolerance(self):
        k = random_kraus_set(2, 16, seed=9)
        assert k.deviation <= 1e-10

    def test_deterministic_per_seed(self):
        a = random_kraus_set(2, 5, seed=123)
        b = random_kraus_set(2, 5, seed=123)
        for ma, mb in zip(a.operators, b.operators):
            assert np.array_equal(ma, mb)
        c = random_kraus_set(2, 5, seed=124)
        assert not np.array_equal(a.operators[0], c.operators[0])


class TestGroupKraus:
    def test_group_of_one_returns_base(self):
        k = random_kraus_set(1, 4, seed=5)
        g = group_kraus(k, 1)
        assert len(g) == 5
        for got, want in zip(g, k.operators):
            assert np.array_equal(got, want)
        assert np.array_equal(g[-1], np.zeros((2, 2)))  # the identity block
        assert g.shape[-1] == k.dim
        assert len(g[:-1]) == 4

    @pytest.mark.parametrize(
        "n,m,l", [(1, 4, 2), (1, 4, 1), (1, 4, 4), (2, 8, 2), (2, 8, 8)]
    )
    def test_worked_four_into_two(self, n, m, l):
        # oracle: build the expanded operators by hand with np.block
        k = random_kraus_set(n, m, seed=7)
        z = np.zeros((k.dim, k.dim), dtype=complex)
        one = np.eye(k.dim, dtype=complex)
        want = [
            np.block([[k.operators[j * l + r]] + [z] * (l - 1) for r in range(l)])
            for j in range(m // l)
        ]
        want.append(np.block([[one if r == c > 0 else z for c in range(l)] for r in range(l)]))
        g = group_kraus(k, l)
        assert len(g) == m // l + 1
        assert len(g[:-1]) == m // l
        for got, w in zip(g, want):
            assert max_abs(got - w) == 0.0

    def test_expanded_set_trace_preserving(self):
        k = random_kraus_set(2, 4, seed=11)
        g = group_kraus(k, 2)
        total = sum(dagger(op) @ op for op in g)
        assert max_abs(total - np.eye(8)) <= 1e-10

    def test_partial_group_padding(self):
        # the one padding rule: a partial group exists only as a zero-padded set
        k = random_kraus_set(1, 3, seed=13)
        with pytest.raises(InvalidGroupSizeError, match="m = 3"):
            group_kraus(k, 2)
        g = group_kraus(pad_to_power_of_two(k), 2)
        assert len(g) == 3
        z = np.zeros((2, 2), dtype=complex)
        assert np.array_equal(g[1], np.block([[k.operators[2], z], [z, z]]))
        total = sum(dagger(op) @ op for op in g)
        assert max_abs(total - np.eye(4)) <= 1e-10

    def test_trace_out_identity(self):
        # the grouped channel on the expanded space reproduces the base channel
        rng = np.random.default_rng(17)
        for n in (1, 2):
            k = random_kraus_set(n, 4, seed=500 + n)
            rho = random_density(rng, k.dim)
            want = apply_channel(k, rho)
            for l in (1, 2, 4):
                got = apply_grouped(group_kraus(k, l), rho)
                assert max_abs(got - want) <= 1e-10

    def test_identity_block_annihilates_embedded_input(self):
        rng = np.random.default_rng(19)
        k = random_kraus_set(1, 4, seed=23)
        g = group_kraus(k, 2)
        emb = expand_state(g, random_density(rng, 2))
        ident = g[-1]
        assert max_abs(ident @ emb) == 0.0

    def test_invalid_group_sizes(self):
        k = random_kraus_set(1, 4, seed=29)
        with pytest.raises(InvalidGroupSizeError):
            group_kraus(k, 3)
        with pytest.raises(InvalidGroupSizeError):
            group_kraus(k, 8)

    def test_reduce_state_round_trip(self):
        rng = np.random.default_rng(31)
        k = random_kraus_set(1, 4, seed=37)
        g = group_kraus(k, 4)
        rho = random_density(rng, 2)
        assert max_abs(reduce_state(g, expand_state(g, rho)) - rho) <= 1e-15


class TestFMO:
    def test_paper_constants_give_cptp(self):
        k = fmo_kraus_set(FMOParams())
        assert k.num_operators == 8
        assert k.deviation <= 1e-10

    def test_zero_rates_give_identity(self):
        k = fmo_kraus_set(FMOParams(alpha=0, beta=0, gamma=0))
        assert max_abs(k.operators[0] - np.eye(8)) <= 1e-12
        for m in k.operators[1:]:
            assert max_abs(m) == 0.0

    def test_sink_entry_value(self):
        p = FMOParams()
        k = fmo_kraus_set(p)
        assert abs(k.operators[7][4, 3] - np.sqrt(p.gamma * p.dt)) <= 1e-15

    def test_remainder_identity_on_unused_levels(self):
        k = fmo_kraus_set(FMOParams())
        m0 = k.operators[0]
        for lvl in (5, 6, 7):
            assert abs(m0[lvl, lvl] - 1.0) <= 1e-12

    def test_invalid_rates(self):
        with pytest.raises(InvalidRatesError):
            fmo_kraus_set(FMOParams(alpha=-1e-3))
        with pytest.raises(InvalidRatesError):
            fmo_kraus_set(FMOParams(alpha=1.0, dt=48.4))

    def test_ground_state_is_fixed(self):
        rho0 = np.zeros((8, 8), dtype=complex)
        rho0[0, 0] = 1.0
        traj = fmo_trajectory(FMOParams(), rho0, steps=20)
        assert np.allclose(traj.populations[:, 0], 1.0, atol=1e-12)

    def test_single_step_trace(self):
        k = fmo_kraus_set(FMOParams())
        out = apply_channel(k, fmo_initial_state())
        assert abs(np.trace(out) - 1.0) <= 1e-12

    def test_trace_preserved(self):
        traj = fmo_trajectory(FMOParams(), fmo_initial_state(), steps=50)
        assert np.abs(traj.traces - 1.0).max() <= 1e-10

    def test_sink_population_non_decreasing(self):
        traj = fmo_trajectory(FMOParams(), fmo_initial_state(), steps=50)
        sink = traj.populations[:, 4]
        assert np.all(np.diff(sink) >= -1e-14)

    def test_trajectory_shape_and_times(self):
        traj = fmo_trajectory(FMOParams(), fmo_initial_state(), steps=10)
        assert traj.populations.shape == (11, 5)
        assert traj.steps == 10
        assert traj.times_fs[1] == pytest.approx(48.4)


class TestKrausJson:
    def test_round_trip(self):
        k = random_kraus_set(2, 3, seed=41)
        data = kraus_to_json_dict(k)
        k2 = kraus_from_json_dict(data, validate=True, tol=1e-9)
        assert k2.dim == k.dim
        for a, b in zip(k.operators, k2.operators):
            assert np.array_equal(a, b)

    def test_rejects_non_cptp_unless_disabled(self):
        data = {
            "dim": 2,
            "operators": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]] * 2,
        }
        with pytest.raises(NotTracePreservingError):
            kraus_from_json_dict(data)
        k = kraus_from_json_dict(data, validate=False)
        assert k.num_operators == 2
        assert k.deviation > 0.5

    def test_malformed_input(self):
        from oqsynth.channel import ChannelError

        with pytest.raises(ChannelError):
            kraus_from_json_dict({"operators": "nope"})

    def test_rejects_operator_smaller_than_dim(self):
        from oqsynth.channel import ChannelError

        data = kraus_to_json_dict(validate_cptp([np.eye(2, dtype=complex)]))
        data["dim"] = 4
        with pytest.raises(ChannelError, match="not \\(4, 4\\)"):
            kraus_from_json_dict(data, validate=False)

    def test_rejects_non_finite_entries(self):
        from oqsynth.channel import ChannelError

        data = kraus_to_json_dict(validate_cptp([np.eye(2, dtype=complex)]))
        data["operators"][0][1][1][0] = float("nan")
        with pytest.raises(ChannelError, match="finite"):
            kraus_from_json_dict(data, validate=False)


def test_nan_operator_is_not_trace_preserving():
    op = np.eye(2, dtype=complex)
    op[0, 0] = np.nan
    with pytest.raises(NotTracePreservingError):
        validate_cptp([op])


@pytest.mark.parametrize(
    "params",
    [FMOParams(alpha=float("nan")), FMOParams(dt=float("nan")), FMOParams(gamma=float("inf"), dt=0.0)],
    ids=["nan-alpha", "nan-dt", "inf-times-zero"],
)
def test_fmo_non_finite_rates_are_invalid(params):
    with pytest.raises(InvalidRatesError):
        fmo_kraus_set(params)


def test_fmo_trajectory_rejects_negative_steps():
    with pytest.raises(ValueError, match="steps must be non-negative, got -1"):
        fmo_trajectory(FMOParams(), fmo_initial_state(), steps=-1)


# --- stack sums against the per-operator loops they replaced ---------------------

def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def loop_completeness(ops):
    return sum(dagger(m) @ m for m in ops)


def loop_kraus_sum(ops, rho):
    out = np.zeros_like(rho)
    for m in ops:
        out += m @ rho @ dagger(m)
    return out


SEEDS = st.integers(0, 2**32 - 1)
KRAUS_SETS = st.one_of(
    st.builds(random_kraus_set, st.integers(1, 3), st.integers(1, 9), SEEDS),
    # zero blocks
    st.builds(
        lambda n, m, seed: pad_to_power_of_two(random_kraus_set(n, m, seed)),
        st.integers(1, 3),
        st.integers(1, 9),
        SEEDS,
    ),
    # exact zeros everywhere but a few entries
    st.sampled_from(
        [FMOParams(), FMOParams(beta=0.0), FMOParams(alpha=0, beta=0, gamma=0)]
    ).map(fmo_kraus_set),
)


def states(dim, seed):
    """A random density and the sparse |0><0|."""
    sparse = np.zeros((dim, dim), dtype=complex)
    sparse[0, 0] = 1.0
    return random_density(np.random.default_rng(seed), dim), sparse


@settings(deadline=None, max_examples=150)
@given(KRAUS_SETS, SEEDS, st.integers(0, 4))
def test_stack_sums_equal_the_per_operator_loops_bit_for_bit(k, seed, j):
    ops = k.operators
    assert same_bits(_completeness(ops), loop_completeness(list(ops)))
    for rho in states(k.dim, seed):
        assert same_bits(apply_channel(k, rho), loop_kraus_sum(list(ops), rho))
    padded = pad_to_power_of_two(k)
    zeros = np.zeros((padded.num_operators - k.num_operators, k.dim, k.dim), dtype=complex)
    assert same_bits(padded.operators, np.array(list(ops) + list(zeros)))
    l = 2 ** min(j, int(np.log2(padded.num_operators)))
    g = group_kraus(padded, l)
    assert same_bits(_completeness(g), loop_completeness(list(g)))
    for rho in states(k.dim, seed):
        want = reduce_state(g, loop_kraus_sum(list(g), expand_state(g, rho)))
        assert same_bits(apply_grouped(g, rho), want)


Z, ONE = [0.0, 0.0], [1.0, 0.0]
KRAUS_REFUSALS = {
    # numpy names the raggedness; its wording varies by version after this prefix
    "ragged operator": (
        {"dim": 2, "operators": [[[ONE, Z], [Z]]]},
        "malformed Kraus JSON: setting an array element with a sequence",
    ),
    "operators of two sizes": (
        {"dim": 2, "operators": [[[ONE, Z], [Z, ONE]], [[ONE]]]},
        "malformed Kraus JSON: setting an array element with a sequence",
    ),
    "wrong dim": (
        {"dim": 4, "operators": [[[ONE, Z], [Z, ONE]]]},
        "malformed Kraus JSON: operator shape (2, 2) is not (4, 4)",
    ),
    "bool entry": (
        {"dim": 2, "operators": [[[[True, 0.0], Z], [Z, ONE]]]},
        "malformed Kraus JSON: a matrix entry of type bool is not a number",
    ),
    "string entry": (
        {"dim": 2, "operators": [[[["1", 0.0], Z], [Z, ONE]]]},
        "malformed Kraus JSON: a matrix entry of type str is not a number",
    ),
    "NaN entry": (
        {"dim": 2, "operators": [[[[float("nan"), 0.0], Z], [Z, ONE]]]},
        "malformed Kraus JSON: matrix entries must be finite",
    ),
}


@pytest.mark.parametrize("data,message", KRAUS_REFUSALS.values(), ids=KRAUS_REFUSALS)
def test_kraus_json_refusal_messages(data, message):
    with pytest.raises(ChannelError) as exc:
        kraus_from_json_dict(data, validate=False)
    assert str(exc.value).startswith(message)


def test_empty_kraus_json_is_a_dimension_mismatch():
    with pytest.raises(DimensionMismatchError, match="^a Kraus set needs at least one operator$"):
        kraus_from_json_dict({"dim": 2, "operators": []})
