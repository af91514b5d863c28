"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances and runtime budgets are asserted inside the tests.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from oqsynth import costmodel
from oqsynth.channel import (
    FMOParams,
    NotPowerOfTwoError,
    apply_grouped,
    apply_channel,
    fmo_initial_state,
    fmo_kraus_set,
    fmo_trajectory,
    group_kraus,
    random_kraus_set,
)
from oqsynth.circuit import (
    Circuit,
    CircuitError,
    assemble_simulation_circuit,
    build_mixer,
    cswap_elementary,
    multi_target_cswap,
)
from oqsynth.linalg import dagger, max_abs
from oqsynth.simulator import run, verify_equivalence

from test_circuit import cswap_reference, sequence_matrix


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def used_wires(circ):
    """The wires some gate acts on; a TRACE_OUT or POSTSELECT marker does not count."""
    return {q for g in circ.gates if g.kind not in ("TRACE_OUT", "POSTSELECT") for q in g.qubits}


def random_density(rng, dim):
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    rho = g @ dagger(g)
    return rho / np.trace(rho)


def haar_density(rng, dim):
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def test_criterion_1_two_state_mixing():
    with criterion(1, "two-state mixing"):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        for trial in range(100):
            q = int(rng.integers(1, 4))  # 1..3 qubits
            dim = 2**q
            rho1 = random_density(rng, dim)
            rho2 = haar_density(rng, dim)
            p1 = float(rng.uniform(0.02, 0.98))
            mixer = build_mixer(2, q, mode="shared", weights=(p1, 1 - p1))
            out, _ = run(mixer, rho1, rho2)
            want = p1 * rho1 + (1 - p1) * rho2
            assert max_abs(out.matrix - want) <= 1e-10, f"trial {trial}"
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"


def _equivalence_grid():
    """25 random channels spread over the (n, m) grid, with all route points."""
    combos = [(n, m) for n in (1, 2) for m in (2, 4, 16)]
    sets = []
    for i in range(25):
        n, m = combos[i % len(combos)]
        sets.append(random_kraus_set(n, m, seed=9000 + i))
    return sets


def test_criterion_2_and_3_channel_equivalence_and_probability():
    with criterion(2, "channel equivalence"):
        start = time.perf_counter()
        reports = []  # (method, report)
        for kset in _equivalence_grid():
            m = kset.num_operators
            reports.append(("stinespring", verify_equivalence(kset, "stinespring", tol=1e-9)))
            for method in ("sznagy", "svd"):
                for l in (1, 2, 4):
                    if l > m:
                        continue
                    reports.append(
                        (method, verify_equivalence(kset, method, group_size=l, tol=1e-9))
                    )
        worst = max(max(r.residuals) for _, r in reports)
        assert worst <= 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"criterion 2 took {elapsed:.2f}s"
    with criterion(3, "success probability l/m"):
        errors = [max(abs(p - r.expected_probability) for p in r.probabilities) for _, r in reports]
        assert max(errors) <= 1e-12
        for (method, r), error in zip(reports, errors):
            if method == "stinespring":
                assert r.expected_probability == 1.0
                assert error == 0.0


def test_criterion_4_cswap_decomposition():
    with criterion(4, "CSWAP decomposition"):
        gates = cswap_elementary(0, 1, 2)
        product = sequence_matrix(gates, 3)
        assert max_abs(product - cswap_reference(0, 1, 2, 3)) <= 1e-12
        cnots = [g for g in gates if g.kind == "CNOT"]
        assert len(cnots) == 9
        circ = Circuit(num_qubits=3)
        circ.extend(gates)
        assert circ.depth() == 14
        assert sum(1 for g in cnots if 0 in g.qubits) == 3


def test_criterion_5_multi_target_depth_formula():
    with criterion(5, "multi-target CSWAP depth"):
        for n_t in (1, 2, 4, 8):
            pairs = [(1 + i, 1 + n_t + i) for i in range(n_t)]
            gates = multi_target_cswap(0, pairs, mode="shared")
            circ = Circuit(num_qubits=1 + 2 * n_t)
            circ.extend(gates)
            assert circ.depth() == 6 * math.ceil(math.log2(n_t)) + 14
        # fanout: each CSWAP layer costs exactly 14 with q(N-1) ancillas
        for n_states, q in [(2, 2), (4, 3)]:
            cost = costmodel.mixer_cost(n_states, q, "fanout")
            layers = int(math.log2(n_states))
            assert cost.cswap_depth == 14 * layers
            assert cost.ancillas == q * (n_states - 1)
            mixer = build_mixer(n_states, q, mode="fanout")
            assert len(mixer.registers["mixer_anc"]) == q * (n_states - 1)
            assert mixer.depth() == cost.total_depth


def test_criterion_6_grouping_cptp_identity():
    with criterion(6, "grouping CPTP + trace-out identity"):
        rng = np.random.default_rng(606)
        kset = random_kraus_set(2, 4, seed=606)
        grouped = group_kraus(kset, 2)
        total = sum(dagger(op) @ op for op in grouped)
        assert max_abs(total - np.eye(8)) <= 1e-10
        for _ in range(5):
            rho = random_density(rng, 4)
            got = apply_grouped(grouped, rho)
            want = apply_channel(kset, rho)
            assert max_abs(got - want) <= 1e-10


def test_criterion_7_fmo_dynamics():
    with criterion(7, "FMO dynamics"):
        start = time.perf_counter()
        params = FMOParams(alpha=3e-3, beta=5e-7, gamma=6.28e-3, dt=48.4)
        kset = fmo_kraus_set(params)
        assert kset.deviation <= 1e-10
        traj = fmo_trajectory(params, fmo_initial_state(), steps=100)
        assert np.abs(traj.traces - 1.0).max() <= 1e-9
        sink = traj.populations[:, 4]
        assert np.all(np.diff(sink) >= -1e-12)
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"criterion 7 took {elapsed:.2f}s"


def test_criterion_8_group_size_tradeoff():
    with criterion(8, "group-size trade-off"):
        rows = costmodel.sweep_group_sizes("sznagy", 2, 16, mode="shared")
        assert [r.group_size for r in rows] == [1, 2, 4, 8, 16]
        cnots = [r.cnot_count for r in rows]
        depths = [r.depth for r in rows]
        assert all(b <= a + 1e-9 for a, b in zip(cnots, cnots[1:]))
        assert all(b >= a - 1e-9 for a, b in zip(depths, depths[1:]))
        ratios = [c / d for c, d in zip(cnots, depths)]
        assert min(range(5), key=ratios.__getitem__) == 4  # minimized at l = m


def test_criterion_9_costmodel_simulator_agreement():
    with criterion(9, "cost-model / circuit agreement"):
        # elementary CSWAP block
        circ = Circuit(num_qubits=3)
        circ.extend(cswap_elementary(0, 1, 2))
        assert circ.depth() == costmodel.CSWAP_DEPTH
        assert circ.cnot_count() == costmodel.CSWAP_CNOTS
        # logical multi-target gates carry the exact analytic weights
        for n_t in (2, 4):
            pairs = [(1 + i, 1 + n_t + i) for i in range(n_t)]
            circ = Circuit(num_qubits=1 + 2 * n_t)
            circ.extend(multi_target_cswap(0, pairs, mode="shared"))
            assert circ.depth() == costmodel.multi_target_cswap_depth(n_t)
            assert circ.cnot_count() == costmodel.multi_target_cswap_cnots(n_t)
        # mixers: measured depth and CNOT count equal the formulas exactly
        for mode in ("shared", "fanout"):
            for n_states in (2, 4, 8):
                for q in (1, 2, 3):
                    mixer = build_mixer(n_states, q, mode=mode)
                    cost = costmodel.mixer_cost(n_states, q, mode)
                    assert mixer.depth() == cost.total_depth, (mode, n_states, q)
                    assert mixer.cnot_count() == cost.cnot, (mode, n_states, q)
                    assert len(mixer.registers["mixer_anc"]) == cost.ancillas
                    # the builder sizes the register from the model, so check that
                    # every wire of it is used (Circuit.add refuses one past it)
                    assert set(mixer.registers["mixer_anc"]) <= used_wires(mixer)
        # success probabilities: analytic report vs measured post-selection
        rng = np.random.default_rng(909)
        for n, m in [(1, 4), (2, 4)]:
            kset = random_kraus_set(n, m, seed=900 + m * n)
            rho = random_density(rng, kset.dim)
            for method in ("sznagy", "svd"):
                for l in (1, 2, 4):
                    if l > m:
                        continue
                    report = costmodel.combined_cost(method, n, m, group_size=l)
                    circ = assemble_simulation_circuit(kset, method, group_size=l)
                    _, p = run(circ, rho)
                    assert abs(p - report.success_probability) <= 1e-12
            report = costmodel.combined_cost("stinespring", n, m)
            circ = assemble_simulation_circuit(kset, "stinespring")
            _, p = run(circ, rho)
            assert p == report.success_probability == 1.0


def test_mixer_cost_and_build_mixer_accept_the_same_shapes():
    # the cost model decides which mixers exist; the builder agrees on every shape
    for n_states in range(10):
        for q in range(-1, 4):
            for mode in ("shared", "fanout"):
                try:
                    cost = costmodel.mixer_cost(n_states, q, mode)
                except ValueError:
                    cost = None
                try:
                    mixer = build_mixer(n_states, q, mode=mode)
                except (CircuitError, NotPowerOfTwoError):
                    mixer = None
                shape = (n_states, q, mode)
                assert (cost is None) == (mixer is None), shape
                if mixer is not None:
                    assert mixer.depth() == cost.total_depth, shape
                    assert mixer.cnot_count() == cost.cnot, shape
                    assert len(mixer.registers["mixer_anc"]) == cost.ancillas, shape
                    weighted = build_mixer(n_states, q, mode=mode, weights=range(1, n_states + 1))
                    for circ in (mixer, weighted):
                        assert set(circ.registers["mixer_anc"]) <= used_wires(circ), shape


def test_every_mixer_ancilla_of_an_assembled_circuit_is_used():
    for n in (1, 2, 3):
        for m in (2, 4, 8, 16):
            kset = random_kraus_set(n, m, seed=100 * n + m)
            for l in (2**j for j in range(int(math.log2(m)) + 1)):
                for method in ("sznagy", "svd"):
                    for mode in ("shared", "fanout"):
                        circ = assemble_simulation_circuit(kset, method, l, mode)
                        anc = set(circ.registers["mixer_anc"])
                        assert anc <= used_wires(circ), (n, m, l, method, mode)
