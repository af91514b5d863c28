import math

import pytest

from oqsynth.costmodel import (
    CostReport,
    combined_cost,
    dilation_cost,
    mixer_cost,
    multi_target_cswap_cnots,
    multi_target_cswap_depth,
    report_to_csv_row,
    reports_to_csv,
    sweep_group_sizes,
    tradeoff_flags,
)


class TestDilationCost:
    def test_stinespring_n2_m16(self):
        c = dilation_cost("stinespring", 2, m=16)
        assert c.cnot == pytest.approx(16 * 16 - 16 * 4 / 24)
        assert c.depth == c.cnot
        assert c.uncounted_cnot_bound == pytest.approx(math.log2(64) ** 2 * 4)

    def test_stinespring_needs_power_of_two_m(self):
        # the count is padded once, at the command-line boundary, never here
        with pytest.raises(ValueError, match="m = 3 is not a power of two"):
            dilation_cost("stinespring", 1, m=3)
        c = dilation_cost("stinespring", 1, m=4)
        assert c.cnot == pytest.approx(4 * 4 - 4 * 2 / 24)

    def test_sznagy_ungrouped(self):
        c = dilation_cost("sznagy", 2, group_size=1)
        assert c.cnot == pytest.approx(2 * 16 - 4 / 24)

    def test_sznagy_grouping_scales_linearly(self):
        base = dilation_cost("sznagy", 2, group_size=1).cnot
        for l in (2, 4, 8):
            assert dilation_cost("sznagy", 2, group_size=l).cnot == pytest.approx(l * base)

    def test_svd_small_branch(self):
        c = dilation_cost("svd", 1, group_size=1)
        assert c.cnot == pytest.approx((23 / 24) * 4 - 6 + 8 / 3)
        assert c.diag_gates == pytest.approx(4 * 2 - 3)

    def test_svd_depth_includes_diagonal(self):
        c = dilation_cost("svd", 2, group_size=1)
        half = (23 / 48) * 16 - 1.5 * 4 + 4 / 3
        assert c.depth == pytest.approx(2 * half + (4 * 4 - 3))

    def test_stinespring_requires_m(self):
        with pytest.raises(ValueError):
            dilation_cost("stinespring", 2)

    # the refusals and messages of combined_cost
    @pytest.mark.parametrize("method", ["stinespring", "sznagy", "svd"])
    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_system_without_qubits(self, method, n):
        with pytest.raises(ValueError, match=f"^system qubit count n = {n} must be at least 1$"):
            dilation_cost(method, n, m=4)

    @pytest.mark.parametrize("method", ["sznagy", "svd"])
    @pytest.mark.parametrize("l", [0, 3, -2])
    def test_rejects_group_size_not_a_power_of_two(self, method, l):
        with pytest.raises(ValueError, match=f"^group size = {l} is not a power of two$"):
            dilation_cost(method, 1, group_size=l)

    def test_stinespring_ignores_the_group_size(self):
        want = dilation_cost("stinespring", 1, m=4)
        assert dilation_cost("stinespring", 1, m=4, group_size=3) == want


class TestMixerCost:
    def test_shared_example(self):
        c = mixer_cost(4, 2, "shared")
        assert c.cswap_depth == 2 * (6 + 14)
        assert c.ancillas == 3
        assert c.cnot == 9 * 2 * 3

    def test_fanout_two_states(self):
        c = mixer_cost(2, 3, "fanout")
        assert c.cswap_depth == 14
        assert c.ancillas == 3
        assert c.prep_depth == 1 + 2

    def test_trivial(self):
        c = mixer_cost(1, 5, "shared")
        assert c.cswap_depth == 0 and c.ancillas == 0 and c.total_depth == 0

    @pytest.mark.parametrize("mode", ["shared", "fanout"])
    @pytest.mark.parametrize("num_states", [1, 2, 4])
    @pytest.mark.parametrize("q", [0, -1])
    def test_rejects_state_without_qubits(self, q, num_states, mode):
        with pytest.raises(ValueError, match=f"^state width {q} must be at least one qubit$"):
            mixer_cost(num_states, q, mode)

    def test_eight_states_shared(self):
        c = mixer_cost(8, 3, "shared")
        assert c.cswap_depth == 3 * (6 * 2 + 14)
        assert c.ancillas == 7

    def test_multi_target_weights(self):
        for n_t in (1, 2, 4, 8):
            assert multi_target_cswap_depth(n_t) == 6 * math.ceil(math.log2(n_t)) + 14
            assert multi_target_cswap_cnots(n_t) == 9 * n_t


class TestCombinedCost:
    def test_stinespring_deterministic(self):
        r = combined_cost("stinespring", 2, 16)
        assert r.success_probability == 1.0
        assert r.expected_shots == 1.0
        assert r.qubit_count == 6

    @pytest.mark.parametrize("mode", ["shared", "fanout"])
    @pytest.mark.parametrize("l", [1, 3, 4])
    def test_stinespring_is_the_one_branch_case(self, l, mode):
        # one isometry block and no mixer, whatever the group size
        b = dilation_cost("stinespring", 2, m=16)
        want = CostReport(
            method="stinespring",
            n=2,
            m=16,
            group_size=1,
            ancilla_mode=mode,
            depth=b.depth,
            cnot_count=b.cnot,
            qubit_count=6,
            success_probability=1.0,
            expected_shots=1.0,
            dilation_cnot=b.cnot,
            dilation_depth=b.depth,
            uncounted_cnot_bound=b.uncounted_cnot_bound,
            notes="deterministic; single circuit call",
        )
        got = combined_cost("stinespring", 2, 16, group_size=l, mode=mode)
        assert repr(got.to_dict()) == repr(want.to_dict())

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_system_without_qubits(self, n):
        with pytest.raises(ValueError, match=f"n = {n} must be at least 1"):
            combined_cost("sznagy", n, 4)

    # an int figure beyond the float range (n = 2000, 600 or m = 2^1100) or a
    # float sum that rounds to inf (n = 511: sznagy's CNOT count was "inf")
    @pytest.mark.parametrize(
        "method,n,m",
        [("sznagy", 2000, 4), ("stinespring", 2000, 4), ("svd", 600, 4), ("sznagy", 511, 4),
         ("sznagy", 2, 2**1100)],
    )
    def test_rejects_figures_beyond_the_float_range(self, method, n, m):
        message = f"^the cost figures of n = {n}, m = {m}, l = 1 overflow a float$"
        with pytest.raises(ValueError, match=message):
            combined_cost(method, n, m)

    def test_largest_figures_are_finite(self):
        r = combined_cost("svd", 509, 4)
        assert math.isfinite(r.cnot_count) and r.cnot_count > 1e306

    def test_svd_probabilities(self):
        r1 = combined_cost("svd", 2, 16, group_size=1)
        assert r1.success_probability == pytest.approx(1 / 16)
        r2 = combined_cost("svd", 2, 16, group_size=2)
        assert r2.success_probability == pytest.approx(1 / 8)
        assert r2.qubit_count < r1.qubit_count

    def test_qubit_accounting(self):
        r = combined_cost("sznagy", 2, 16, group_size=2)
        assert r.qubit_count == 8 * 4 + 7

    def test_shots_inverse_probability(self):
        for l in (1, 2, 4):
            r = combined_cost("sznagy", 1, 4, group_size=l)
            assert r.expected_shots * r.success_probability == pytest.approx(1.0)

    def test_full_grouping_flagged(self):
        r = combined_cost("sznagy", 1, 4, group_size=4)
        assert "stinespring dominates" in r.notes
        assert r.success_probability == 1.0

    def test_rejects_oversize_group(self):
        with pytest.raises(ValueError):
            combined_cost("svd", 1, 4, group_size=8)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            combined_cost("svd", 1, 3)


class TestSweep:
    def test_sznagy_tradeoff(self):
        rows = sweep_group_sizes("sznagy", 2, 16)
        assert [r.group_size for r in rows] == [1, 2, 4, 8, 16]
        flags = tradeoff_flags(rows)
        assert flags["cnot_nonincreasing"]
        assert flags["depth_nondecreasing"]
        assert flags["ratio_argmin"] == len(rows) - 1

    def test_sweep_rejects_stinespring(self):
        with pytest.raises(ValueError):
            sweep_group_sizes("stinespring", 2, 16)

    def test_csv_shape(self):
        rows = sweep_group_sizes("sznagy", 2, 16)
        text = reports_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "method,n,m,l,mode,depth,cnot,qubits,p_success,shots"
        assert len(lines) == 6
        assert report_to_csv_row(rows[0]).startswith("sznagy,2,16,1,shared,")
