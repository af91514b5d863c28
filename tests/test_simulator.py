import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oqsynth.channel import (
    FMOParams,
    apply_channel,
    fmo_kraus_set,
    random_kraus_set,
    validate_cptp,
)
from oqsynth.circuit import (
    Circuit,
    assemble_simulation_circuit,
    build_mixer,
    cnot,
    cswap_elementary,
    h,
    parse_sidecar,
    postselect,
    rz,
    t,
    trace_out,
)
from oqsynth.linalg import DimensionMismatchError, dagger, max_abs, partial_trace
from oqsynth.simulator import (
    DensityMatrix,
    EquivalenceFailure,
    ZeroProbabilityBranch,
    check_circuit,
    density,
    run,
    tomography_inputs,
    verify_equivalence,
)
from oqsynth import simulator

from oqsynth.circuit import CircuitError, Gate, multi_target_cswap_gate, opaque_unitary, ry
from oqsynth.simulator import SimulationError

from test_circuit import gate_matrix  # independent dense embedding oracle
from test_circuit import sequence_matrix  # independent dense unitary of a gate list


def random_density(rng, dim):
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    rho = g @ dagger(g)
    return rho / np.trace(rho)


def haar_density(rng, dim):
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def circuit_of(gates, num_qubits, inputs=()):
    c = Circuit(num_qubits=num_qubits, input_registers=tuple(inputs))
    c.extend(gates)
    return c


class TestEngineBasics:
    def test_empty_circuit_passes_input_through(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng, 4)
        c = circuit_of([], 2, inputs=[(0, 1)])
        out, p = run(c, rho)
        assert p == 1.0
        assert max_abs(out.matrix - rho) == 0.0

    def test_h_on_zero(self):
        c = circuit_of([h(0)], 1, inputs=[(0,)])
        out, _ = run(c, np.array([1, 0], dtype=complex))
        assert max_abs(out.matrix - 0.5 * np.ones((2, 2))) <= 1e-12

    def test_matches_dense_oracle_on_random_elementary_circuit(self):
        # cross-check the engine's embedding against an independent one
        rng = np.random.default_rng(1)
        gates = [
            h(0),
            cnot(0, 2),
            t(1),
            rz(2, 0.7),
            cnot(2, 1),
            h(2),
            cnot(1, 0),
        ]
        u = np.eye(8, dtype=complex)
        for g in gates:
            u = gate_matrix(g, 3) @ u
        rho = random_density(rng, 8)
        want = u @ rho @ dagger(u)
        c = circuit_of(gates, 3, inputs=[(0, 1, 2)])
        out, p = run(c, rho)
        assert p == 1.0
        assert max_abs(out.matrix - want) <= 1e-12

    def test_unitary_gates_preserve_trace_and_hermiticity(self):
        rng = np.random.default_rng(2)
        rho = random_density(rng, 4)
        c = circuit_of([h(0), cnot(0, 1), t(1)], 2, inputs=[(0, 1)])
        out, _ = run(c, rho)
        assert abs(np.trace(out.matrix) - 1) <= 1e-11
        assert max_abs(out.matrix - dagger(out.matrix)) <= 1e-11

    def test_cswap_gate_semantics_in_engine(self):
        # control |1>: swap; matches a hand-built swapped product state
        rng = np.random.default_rng(3)
        r1 = haar_density(rng, 2)
        r2 = haar_density(rng, 2)
        gates = cswap_elementary(2, 0, 1)
        c = Circuit(num_qubits=3, input_registers=((0,), (1,), (2,)))
        c.extend(gates)
        one = np.diag([0.0, 1.0]).astype(complex)
        out, _ = run(c, r1, r2, one)
        # qubit order: q2 q1 q0 (MSB first) -> kron(one, r1, r2) after swap
        want = np.kron(one, np.kron(r1, r2))
        assert max_abs(out.matrix - want) <= 1e-12

    def test_postselect_probabilities_complementary(self):
        c0 = circuit_of([h(0), postselect(0, 0)], 1, inputs=[(0,)])
        c1 = circuit_of([h(0), postselect(0, 1)], 1, inputs=[(0,)])
        zero = np.array([1, 0], dtype=complex)
        _, p0 = run(c0, zero)
        _, p1 = run(c1, zero)
        assert abs(p0 + p1 - 1.0) <= 1e-12

    def test_zero_probability_branch(self):
        c = circuit_of([postselect(0, 1)], 1, inputs=[(0,)])
        with pytest.raises(ZeroProbabilityBranch):
            run(c, np.array([1, 0], dtype=complex))

    def test_trace_out(self):
        rng = np.random.default_rng(4)
        r1 = random_density(rng, 2)
        r2 = random_density(rng, 2)
        c = Circuit(num_qubits=2, input_registers=((0,), (1,)))
        c.add(cnot(0, 1))
        c.add(trace_out((1,)))
        out, _ = run(c, r1, r2)
        joint = np.kron(r2, r1)  # qubit 1 is MSB
        cx = gate_matrix(cnot(0, 1), 2)
        evolved = cx @ joint @ dagger(cx)
        want = partial_trace(evolved, [2, 2], keep={1})  # keep LSB block
        assert max_abs(out.matrix - want) <= 1e-12


class TestMixerSemantics:
    def test_two_state_weighted(self):
        rng = np.random.default_rng(5)
        for q in (1, 2):
            r1 = random_density(rng, 2**q)
            r2 = haar_density(rng, 2**q)
            p1 = rng.uniform(0.1, 0.9)
            c = build_mixer(2, q, mode="shared", weights=(p1, 1 - p1))
            out, _ = run(c, r1, r2)
            want = p1 * r1 + (1 - p1) * r2
            assert max_abs(out.matrix - want) <= 1e-10

    @pytest.mark.parametrize("mode", ["shared", "fanout"])
    @pytest.mark.parametrize("n_states", [2, 4, 8])
    def test_uniform_mixture(self, mode, n_states):
        rng = np.random.default_rng(6)
        q = 2 if n_states <= 4 else 1
        states = []
        for i in range(n_states):
            states.append(
                haar_density(rng, 2**q) if i % 2 else random_density(rng, 2**q)
            )
        c = build_mixer(n_states, q, mode=mode)
        out, p = run(c, *states)
        want = sum(states) / n_states
        assert p == 1.0
        assert max_abs(out.matrix - want) <= 1e-10

    def test_four_state_pure_mixture(self):
        rng = np.random.default_rng(7)
        states = [haar_density(rng, 2) for _ in range(4)]
        c = build_mixer(4, 1, mode="shared")
        out, _ = run(c, *states)
        assert max_abs(out.matrix - sum(states) / 4) <= 1e-10

    def test_weighted_four_states(self):
        rng = np.random.default_rng(8)
        states = [haar_density(rng, 2) for _ in range(4)]
        w = [0.1, 0.2, 0.3, 0.4]
        c = build_mixer(4, 1, mode="shared", weights=w)
        out, _ = run(c, *states)
        want = sum(wi * s for wi, s in zip(w, states))
        assert max_abs(out.matrix - want) <= 1e-10

    def test_weighted_fanout(self):
        # the RY-prepared control fans out into a weighted entangled control
        rng = np.random.default_rng(9)
        r1 = random_density(rng, 4)
        r2 = random_density(rng, 4)
        c = build_mixer(2, 2, mode="fanout", weights=(0.7, 0.3))
        out, _ = run(c, r1, r2)
        assert max_abs(out.matrix - (0.7 * r1 + 0.3 * r2)) <= 1e-10


class TestPipelines:
    def amplitude_damping(self, g):
        m0 = np.diag([1.0, np.sqrt(1 - g)]).astype(complex)
        m1 = np.array([[0, np.sqrt(g)], [0, 0]], dtype=complex)
        return validate_cptp([m0, m1])

    def test_identity_channel_all_methods(self):
        k = validate_cptp([np.eye(2, dtype=complex)])
        rng = np.random.default_rng(9)
        rho = random_density(rng, 2)
        for method in ("stinespring", "sznagy", "svd"):
            c = assemble_simulation_circuit(k, method)
            out, p = run(c, rho)
            assert max_abs(out.matrix - rho) <= 1e-10
            assert abs(p - 1.0) <= 1e-12

    def test_amplitude_damping_all_methods(self):
        k = self.amplitude_damping(0.3)
        rng = np.random.default_rng(10)
        rho = random_density(rng, 2)
        want = apply_channel(k, rho)
        for method in ("stinespring", "sznagy", "svd"):
            c = assemble_simulation_circuit(k, method)
            out, p = run(c, rho)
            assert max_abs(out.matrix - want) <= 1e-10
            if method == "stinespring":
                assert p == 1.0
            else:
                assert abs(p - 0.5) <= 1e-12

    def test_stinespring_isometry_route(self):
        # Tr_env(V rho V^dag) equals the oracle
        k = random_kraus_set(2, 4, seed=11)
        rng = np.random.default_rng(12)
        rho = random_density(rng, 4)
        c = assemble_simulation_circuit(k, "stinespring")
        out, p = run(c, rho)
        assert p == 1.0
        assert max_abs(out.matrix - apply_channel(k, rho)) <= 1e-10

    def test_success_probability_matches_group_fraction(self):
        k = random_kraus_set(1, 4, seed=13)
        rng = np.random.default_rng(14)
        rho = random_density(rng, 2)
        for l in (1, 2, 4):
            c = assemble_simulation_circuit(k, "svd", group_size=l)
            out, p = run(c, rho)
            assert abs(p - l / 4) <= 1e-12
            assert max_abs(out.matrix - apply_channel(k, rho)) <= 1e-10

    def test_grouped_sznagy_matches_oracle(self):
        k = random_kraus_set(2, 4, seed=15)
        rng = np.random.default_rng(16)
        rho = random_density(rng, 4)
        want = apply_channel(k, rho)
        for l in (1, 2, 4):
            c = assemble_simulation_circuit(k, "sznagy", group_size=l)
            out, p = run(c, rho)
            assert max_abs(out.matrix - want) <= 1e-10
            assert abs(p - l / 4) <= 1e-12

    def test_fanout_pipeline(self):
        k = random_kraus_set(1, 4, seed=17)
        rng = np.random.default_rng(18)
        rho = random_density(rng, 2)
        c = assemble_simulation_circuit(k, "svd", mode="fanout")
        out, p = run(c, rho)
        assert max_abs(out.matrix - apply_channel(k, rho)) <= 1e-10
        assert abs(p - 0.25) <= 1e-12

    def test_grouped_fanout_pipeline(self):
        k = random_kraus_set(1, 4, seed=20)
        rng = np.random.default_rng(21)
        rho = random_density(rng, 2)
        c = assemble_simulation_circuit(k, "sznagy", group_size=2, mode="fanout")
        out, p = run(c, rho)
        assert max_abs(out.matrix - apply_channel(k, rho)) <= 1e-10
        assert abs(p - 0.5) <= 1e-12

    def test_fmo_svd_grouped_probability(self):
        k = fmo_kraus_set(FMOParams())
        rng = np.random.default_rng(19)
        rho = random_density(rng, 8)
        c = assemble_simulation_circuit(k, "svd", group_size=2)
        out, p = run(c, rho)
        assert abs(p - 2 / 8) <= 1e-12
        assert max_abs(out.matrix - apply_channel(k, rho)) <= 1e-9


class TestVerifyEquivalence:
    def test_identity_channel_zero_residual(self):
        k = validate_cptp([np.eye(2, dtype=complex)])
        for method in ("stinespring", "sznagy", "svd"):
            rep = verify_equivalence(k, method, tol=1e-10)
            assert max(rep.residuals) <= 1e-12

    def test_amplitude_damping_methods_agree(self):
        k = validate_cptp(
            [
                np.diag([1.0, np.sqrt(0.7)]).astype(complex),
                np.array([[0, np.sqrt(0.3)], [0, 0]], dtype=complex),
            ]
        )
        for method in ("stinespring", "sznagy", "svd"):
            rep = verify_equivalence(k, method, tol=1e-10)
            assert max(rep.residuals) <= 1e-10

    def test_failure_names_the_input(self):
        # force failure with an absurd tolerance
        k = random_kraus_set(1, 2, seed=21)
        with pytest.raises(EquivalenceFailure, match="input"):
            verify_equivalence(k, "svd", tol=1e-20)

    def test_report_fields(self):
        k = random_kraus_set(1, 4, seed=22)
        rep = verify_equivalence(k, "sznagy", group_size=2)
        assert rep.expected_probability == pytest.approx(0.5)
        assert max(abs(p - 0.5) for p in rep.probabilities) <= 1e-12

    def test_fmo_channel_all_routes(self):
        # the 3-qubit worked example end to end: 8 operators, every method
        k = fmo_kraus_set(FMOParams())
        for method, l in [("stinespring", 1), ("sznagy", 2), ("svd", 1), ("svd", 2)]:
            rep = verify_equivalence(k, method, group_size=l, tol=1e-9)
            assert max(rep.residuals) <= 1e-10

    def test_three_qubit_random_channel(self):
        k = random_kraus_set(3, 2, seed=23)
        rep = verify_equivalence(k, "svd", group_size=2, tol=1e-9)
        assert max(rep.residuals) <= 1e-9

    def test_round_tripped_circuit_simulates_identically(self):
        from oqsynth.circuit import export_circuit, opaque_sidecar, parse_circuit, parse_sidecar

        k = random_kraus_set(1, 4, seed=24)
        rng = np.random.default_rng(25)
        rho = random_density(rng, 2)
        circ = assemble_simulation_circuit(k, "svd", group_size=2)
        reparsed = parse_circuit(
            export_circuit(circ), matrices=parse_sidecar(opaque_sidecar(circ))
        )
        a, pa = run(circ, rho)
        b, pb = run(reparsed, rho)
        assert pa == pb
        assert max_abs(a.matrix - b.matrix) == 0.0


class TestDensityContract:
    def test_pure_vector_is_normalized(self):
        rho = density(np.array([1, 1]), 1)
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert max_abs(rho - dagger(rho)) <= 1e-10
        assert np.linalg.eigvalsh(rho).min() >= -1e-9


# --- fused controlled swap: engine against the dense oracle --------------------


def joint_density(regs, states, num_qubits):
    """Dense state of independent registers; unlisted qubits start in |0>."""
    zero = np.diag([1.0, 0.0]).astype(complex)
    listed = {q for reg in regs for q in reg}
    regs = list(regs) + [(q,) for q in range(num_qubits) if q not in listed]
    states = list(states) + [zero] * (len(regs) - len(states))
    wires, rho = [], np.ones((1, 1), dtype=complex)
    for reg, s in zip(regs, states):
        wires += list(reversed(reg))  # a register's highest qubit is its MSB
        rho = np.kron(rho, s)
    order = [wires.index(q) for q in reversed(range(num_qubits))]
    t = rho.reshape((2,) * (2 * num_qubits))
    t = t.transpose(order + [num_qubits + i for i in order])
    return t.reshape(2**num_qubits, 2**num_qubits)


def dense_run(gates, traced, regs, states, num_qubits):
    """``U rho U^dag`` on the joint input, then the traced qubits summed out."""
    u = sequence_matrix(gates, num_qubits)
    rho = u @ joint_density(regs, states, num_qubits) @ dagger(u)
    keep = {num_qubits - 1 - q for q in range(num_qubits) if q not in traced}
    return partial_trace(rho, [2] * num_qubits, keep)


FUSED_CASES = {
    # name: (input registers, gates before the trace, traced qubits)
    "one-pair-control-traced": (
        [(0, 1, 2), (3, 4, 5)],
        [h(6), multi_target_cswap_gate(6, [(0, 3)])],
        (6,),
    ),
    "two-pairs-control-kept-ry": (
        [(0, 1, 2), (3, 4, 5)],
        [ry(6, 1.1), multi_target_cswap_gate(6, [(0, 3), (2, 5)])],
        (),
    ),
    "three-pairs-register-traced": (
        [(0, 1, 2), (3, 4, 5)],
        [ry(6, 0.4), multi_target_cswap_gate(6, [(0, 3), (1, 4), (2, 5)])],
        (3, 4, 5, 6),
    ),
    "interleaved-pairs-across-factors": (
        [(0, 2, 4), (1, 3, 5)],
        [h(6), multi_target_cswap_gate(6, [(0, 3), (1, 4), (5, 2)])],
        (1, 3, 5, 6),
    ),
    "control-inside-a-register": (
        [(0, 1, 2, 3), (4, 5, 6)],
        [h(3), multi_target_cswap_gate(3, [(0, 4), (1, 5)])],
        (3, 4, 5, 6),
    ),
    "targets-used-after-the-swap": (
        [(0, 1, 2), (3, 4, 5)],
        [
            ry(6, 2.0),
            multi_target_cswap_gate(6, [(0, 3), (1, 4)]),
            h(0),
            cnot(4, 1),
        ],
        (4, 5, 6),
    ),
    # mixer merges: one mix step each
    "mix-with-a-kept-wire-retiring": (
        [(0, 1, 2), (3, 4, 5)],
        [ry(6, 0.7), multi_target_cswap_gate(6, [(0, 3), (1, 4), (2, 5)])],
        (1, 3, 4, 5, 6),
    ),
    "mix-with-reversed-pairs": (
        [(0, 1, 2), (3, 4, 5)],
        [h(6), multi_target_cswap_gate(6, [(0, 5), (1, 4), (2, 3)])],
        (3, 4, 5, 6),
    ),
    # the shape of a mixer merge, but the control or the b side is kept
    "whole-registers-control-kept": (
        [(0, 1, 2), (3, 4, 5)],
        [ry(6, 1.3), multi_target_cswap_gate(6, [(0, 3), (1, 4), (2, 5)])],
        (3, 4, 5),
    ),
    "whole-registers-b-side-kept": (
        [(0, 1, 2), (3, 4, 5)],
        [h(6), multi_target_cswap_gate(6, [(0, 3), (1, 4), (2, 5)])],
        (6,),
    ),
}


@pytest.mark.parametrize("name", sorted(FUSED_CASES))
@pytest.mark.parametrize("pure", [False, True])
def test_fused_cswap_matches_dense_oracle(name, pure):
    regs, gates, traced = FUSED_CASES[name]
    rng = np.random.default_rng(sum(map(ord, name)) + pure)
    make = haar_density if pure else random_density
    states = [make(rng, 2 ** len(reg)) for reg in regs]
    num_qubits = 7
    c = circuit_of(gates + ([trace_out(traced)] if traced else []), num_qubits, inputs=regs)
    got, p = run(c, *states)
    want = dense_run(gates, set(traced), regs, states, num_qubits)
    assert p == 1.0
    assert max_abs(got.matrix - want) <= 1e-12


def test_fused_cswap_output_width_is_checked_first():
    # kept control plus two kept 7-qubit registers: 15 output qubits over the
    # 12-qubit factor limit
    regs = [tuple(range(7)), tuple(range(7, 14))]
    c = circuit_of([ry(14, 1.1), multi_target_cswap_gate(14, [(0, 7), (6, 13)])], 15, inputs=regs)
    rng = np.random.default_rng(40)
    with pytest.raises(SimulationError, match="12 live qubits"):
        run(c, random_density(rng, 128), random_density(rng, 128))


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_wide_cswap_that_is_not_a_mixer_merge_is_refused_while_planning():
    # fourteen 3-qubit registers with every wire paired: the a side spans seven
    # factors, so the swap lowers pair by pair, and merging the pairs' factors
    # passes 12 qubits; the plan refuses it before any state is built
    regs = [tuple(range(3 * i, 3 * i + 3)) for i in range(14)]
    pairs = [(w, w + 21) for w in range(21)]
    gates = [h(42), multi_target_cswap_gate(42, pairs), trace_out((42,) + tuple(range(11, 42)))]
    c = circuit_of(gates, 43, inputs=regs)
    rho = np.eye(8, dtype=complex) / 8
    errors = []

    def attempt():
        try:
            run(c, rho)
        except SimulationError as exc:
            errors.append(exc)

    peak = traced_peak(attempt)
    assert errors and "12 live qubits" in str(errors[0])
    assert peak < 256 << 10


def per_pair_lowerings(circuits, monkeypatch) -> int:
    """Controlled swaps the planner applies pair by pair over ``circuits``."""
    calls = []
    apply = simulator._Planner.apply

    def spy(self, qubits, u):
        calls.append(u is simulator._CSWAP)
        apply(self, qubits, u)

    monkeypatch.setattr(simulator._Planner, "apply", spy)
    for c in circuits:  # past the plan cache, so every circuit is planned here
        simulator._plan.__wrapped__(tuple(c.gates), tuple(map(tuple, c.input_registers)))
    monkeypatch.undo()
    return sum(calls)


def test_every_library_cswap_takes_the_mix_step(monkeypatch):
    assembled = [
        assemble_simulation_circuit(random_kraus_set(n, m, seed=n + m), method, group_size=l)
        for n in (1, 2, 3)
        for m in (2, 4, 8, 16)
        for method in ("sznagy", "svd")
        for l in (2**i for i in range(m.bit_length()))
    ]
    mixers = [
        build_mixer(b, q, weights=w)
        for b in (2, 4, 8)
        for q in (1, 2, 3)
        for w in (None, range(1, b + 1))
    ]
    circuits = assembled + mixers
    swaps = [g for c in circuits for g in c.gates if g.kind == "MULTI_TARGET_CSWAP"]
    assert len(swaps) > 300  # 252 assembled, 66 from build_mixer
    assert per_pair_lowerings(circuits, monkeypatch) == 0
    # the spy sees a swap that is no mixer merge: its a side is not one factor
    regs, gates, _ = FUSED_CASES["one-pair-control-traced"]
    hand_built = circuit_of(gates + [trace_out((6,))], 7, inputs=regs)
    assert per_pair_lowerings([hand_built], monkeypatch) == 1


@pytest.mark.parametrize("n,m,l", [(3, 8, 4), (3, 16, 8)])
@pytest.mark.parametrize("method", ["sznagy", "svd"])
def test_wide_shared_mixers_verify_in_small_memory(n, m, l, method):
    # the dense merge built 2q+1 = 13 and 15 qubit factors for these shapes
    k = random_kraus_set(n, m, seed=41)
    reports = []
    peak = traced_peak(
        lambda: reports.append(verify_equivalence(k, method, group_size=l))
    )
    assert max(reports[0].residuals) <= 1e-12
    assert peak < 16 << 20


def test_width_checked_before_merging():
    # n=2, m=16, l=4 fanout merges a 5- and a 10-qubit factor into 15 qubits,
    # a 16 GiB density; the 12-qubit check has to fire before that kron
    k = random_kraus_set(2, 16, seed=42)
    c = assemble_simulation_circuit(k, "svd", group_size=4, mode="fanout")
    rho = np.eye(4, dtype=complex) / 4
    errors = []

    def attempt():
        try:
            run(c, rho)
        except SimulationError as exc:
            errors.append(exc)

    peak = traced_peak(attempt)
    assert errors and "12 live qubits" in str(errors[0])
    assert peak < 64 << 20


def test_plan_checks_the_width_before_any_state_is_built():
    # the same refusal, from the plan, before any factor is built: about 50 kB
    # here, where refusing at the merge itself peaked at about 800 kB
    c = assemble_simulation_circuit(random_kraus_set(2, 16, seed=43), "svd", group_size=4, mode="fanout")
    rho = np.eye(4, dtype=complex) / 4
    errors = []

    def attempt():
        try:
            run(c, rho)
        except SimulationError as exc:
            errors.append(exc)

    peak = traced_peak(attempt)
    assert errors and "12 live qubits" in str(errors[0])
    assert peak < 256 << 10


# --- one wire lifecycle: inputs are factors from the start -------------------


def test_partial_trace_of_untouched_register_keeps_the_marginal():
    rng = np.random.default_rng(50)
    rho = random_density(rng, 4)
    c = circuit_of([trace_out((1,))], 2, inputs=[(0, 1)])
    out, p = run(c, rho)
    assert p == 1.0
    # qubit 1 is the register's MSB; the LSB block survives
    assert max_abs(out.matrix - partial_trace(rho, [2, 2], keep={1})) <= 1e-15


def test_gate_after_trace_out_is_rejected():
    c = circuit_of([cnot(0, 1), trace_out((1,)), h(1)], 2, inputs=[(0,), (1,)])
    with pytest.raises(SimulationError, match="TRACE_OUT"):
        run(c, np.eye(2, dtype=complex) / 2)


def test_untouched_register_passes_through_beside_a_touched_one():
    rng = np.random.default_rng(51)
    r0, r1 = random_density(rng, 2), random_density(rng, 4)
    c = circuit_of([h(0)], 3, inputs=[(0,), (1, 2)])
    out, _ = run(c, r0, r1)
    hd = gate_matrix(h(0), 1)
    assert max_abs(out.matrix - np.kron(r1, hd @ r0 @ dagger(hd))) <= 1e-15


def test_overlapping_input_registers_are_rejected():
    c = circuit_of([h(0)], 3, inputs=[(0, 1), (1, 2)])
    with pytest.raises(SimulationError, match="overlap"):
        run(c, np.eye(4, dtype=complex) / 4)


def test_gate_on_no_qubits_is_rejected():
    with pytest.raises(CircuitError):
        Gate("H", ())


# --- one rule for pure states ---------------------------------------------------


def test_unnormalized_pure_input_gives_trace_one():
    out, _ = run(circuit_of([h(0)], 1, inputs=[(0,)]), np.array([1, 1]))
    assert abs(np.trace(out.matrix) - 1.0) <= 1e-12
    assert max_abs(out.matrix - np.diag([1.0, 0.0])) <= 1e-12


def test_zero_pure_state_names_the_norm():
    with pytest.raises(ValueError, match="norm"):
        density(np.zeros(2), 1)
    with pytest.raises(ValueError, match="norm"):
        run(circuit_of([h(0)], 1, inputs=[(0,)]), np.array([0.0, np.nan]))


# --- run(circuit, *states): one state broadcast, or one per input register -----


@pytest.mark.parametrize("method,l", [("stinespring", 1), ("sznagy", 2), ("svd", 1)])
def test_non_finite_state_is_refused(method, l):
    # not an all-NaN output, nor a zero-probability branch that blames the circuit
    c = assemble_simulation_circuit(random_kraus_set(1, 2, seed=1), method, group_size=l)
    with pytest.raises(ValueError, match="non-finite"):
        run(c, np.array([[np.nan, 0], [0, 1]]))


def test_nested_list_state_is_refused_on_two_registers():
    # as a list the density would read as two pure states, |0> and |1>, not I/2
    kset = random_kraus_set(1, 4, seed=1)
    c = assemble_simulation_circuit(kset, "svd", group_size=2)
    assert len(c.input_registers) == 2
    rho = [[0.5, 0], [0, 0.5]]
    with pytest.raises(TypeError, match=r"run\(circuit, \*states\)"):
        run(c, rho)
    out, p = run(c, np.array(rho))
    assert max_abs(out.matrix - apply_channel(kset, np.array(rho))) <= 1e-12
    assert abs(p - 0.5) <= 1e-12


def test_state_count_must_be_one_or_one_per_register():
    c = circuit_of([cnot(0, 1)], 2, inputs=[(0,), (1,)])
    r = np.eye(2, dtype=complex) / 2
    with pytest.raises(DimensionMismatchError, match="0 input states for 2"):
        run(c)
    with pytest.raises(DimensionMismatchError, match="3 input states for 2"):
        run(c, r, r, r)
    # a circuit with no input register takes no state, not even one it would drop
    with pytest.raises(DimensionMismatchError, match="1 input states for 0"):
        run(circuit_of([h(0)], 1), "garbage")


# --- isometry factors: engine against a dense U rho U^dag oracle ---------------


def haar_unitary(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def embed(u, qubits, num_qubits):
    """Full matrix of ``u`` on ``qubits`` (most significant first); qubit 0 is the LSB."""
    idx = np.arange(2**num_qubits)
    sub = sum(((idx >> q) & 1) << (len(qubits) - 1 - i) for i, q in enumerate(qubits))
    rest = idx & ~sum(1 << q for q in qubits)
    return np.where(rest[:, None] == rest[None, :], u[sub[:, None], sub[None, :]], 0)


def oracle_run(circ, states):
    """Every gate as a full ``U rho U^dag`` or projector, then the post-selected and
    traced qubits summed out; returns the normalized state and the kept probability.
    A post-selected qubit takes no later gate, so projecting it in place is exact.
    A qubit outside the input registers that no gate touches is not in the output."""
    n = circ.num_qubits
    rho = joint_density(circ.input_registers, states, n)
    gone = set(range(n)).difference(*circ.input_registers, *(g.qubits for g in circ.gates))
    for g in circ.gates:
        if g.kind == "TRACE_OUT":
            gone.update(g.qubits)
            continue
        if g.kind == "POSTSELECT":
            u = embed(np.diag([1.0 - g.outcome, g.outcome]), g.qubits, n)
            gone.update(g.qubits)
        elif g.kind == "OPAQUE_UNITARY":
            u = embed(circ.matrices[g.matrix_id], g.qubits, n)
        else:
            u = gate_matrix(g, n)
        rho = u @ rho @ dagger(u)
    p = np.trace(rho).real
    keep = {n - 1 - q for q in range(n) if q not in gone}
    reduced = partial_trace(rho, [2] * n, keep)
    if p == 0:  # nothing kept, nothing to normalize
        return reduced, p
    return reduced / p, p


def opaque_circuit(gates, num_qubits, inputs, seed):
    """``circuit_of`` with a Haar-random opaque block for each qubit tuple in ``gates``."""
    rng = np.random.default_rng(seed)
    c = Circuit(num_qubits=num_qubits, input_registers=tuple(inputs))
    for g in gates:
        if isinstance(g, tuple):
            mid = f"u{len(c.matrices)}"
            c.add_matrix(mid, haar_unitary(rng, 2 ** len(g)))
            g = opaque_unitary(g, mid, depth_weight=1.0, cnot_weight=0.0)
        c.add(g)
    return c


def assert_matches_oracle(c, states):
    want, p_want = oracle_run(c, states)
    got, p = run(c, *states)
    assert abs(p - p_want) <= 1e-12
    assert max_abs(got.matrix - want) <= 1e-12


@st.composite
def layered_circuits(draw, cswaps=False):
    """Gates on input and fresh wires in any order, post-selections and traces;
    with ``cswaps``, MULTI_TARGET_CSWAPs of one or two pairs among the gates."""
    n = draw(st.integers(3 if cswaps else 2, 6))
    wires = draw(st.permutations(range(n)))
    held = draw(st.integers(0, n - 1))
    inner = draw(st.sets(st.integers(1, held - 1), max_size=2)) if held > 1 else set()
    cuts = sorted(inner | {0, held})
    regs = [tuple(wires[a:b]) for a, b in zip(cuts, cuts[1:]) if a < b]
    gates = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from([h, t, rz, ry, cnot, "opaque"] + ["cswap"] * cswaps))
        on = draw(st.permutations(range(n)))
        if kind == "cswap":
            k = draw(st.integers(1, min(2, (n - 1) // 2)))
            gates.append(multi_target_cswap_gate(on[0], zip(on[1 : 1 + k], on[1 + k : 1 + 2 * k])))
        elif kind in (rz, ry):
            gates.append(kind(on[0], draw(st.floats(-7, 7))))
        elif kind is cnot:
            gates.append(cnot(on[0], on[1]))
        elif kind == "opaque":
            gates.append(tuple(on[: draw(st.integers(1, min(3, n)))]))
        else:
            gates.append(kind(on[0]))
    # post-select up to two wires after their last gate; trace some of the rest
    ends = draw(st.permutations(range(n)))
    n_post = draw(st.integers(0, min(2, n - 1)))
    for q in ends[:n_post]:
        used = [i for i, g in enumerate(gates) if q in (g if isinstance(g, tuple) else g.qubits)]
        at = draw(st.integers(used[-1] + 1 if used else 0, len(gates)))
        gates.insert(at, postselect(q, draw(st.integers(0, 1))))
    traced = ends[n_post : n_post + draw(st.integers(0, n - 1 - n_post))]
    if traced:
        gates.append(trace_out(traced))
    return n, regs, gates


def check_against_oracle(shape, seed, pure):
    n, regs, gates = shape
    rng = np.random.default_rng(seed)
    make = haar_density if pure else random_density
    states = [make(rng, 2 ** len(reg)) for reg in regs]
    c = opaque_circuit(gates, n, regs, seed)
    want, p_want = oracle_run(c, states)
    assume(p_want > 1e-3)
    got, p = run(c, *states)
    assert abs(p - p_want) <= 1e-12
    assert max_abs(got.matrix - want) <= 1e-12


@settings(deadline=None, max_examples=150)
@given(layered_circuits(), st.integers(0, 2**32 - 1), st.booleans())
def test_isometry_factors_match_dense_oracle(shape, seed, pure):
    check_against_oracle(shape, seed, pure)


@settings(deadline=None, max_examples=150)
@given(layered_circuits(cswaps=True), st.integers(0, 2**32 - 1), st.booleans())
def test_mix_step_and_per_pair_cswaps_match_dense_oracle(shape, seed, pure):
    # one or two pairs, a kept or traced control, and input and fresh wires,
    # among the elementary gates, opaque blocks, post-selections and traces
    check_against_oracle(shape, seed, pure)


def test_opaque_block_with_fresh_wires_between_held_wires():
    # register (0, 2, 4) holds the input; 1 and 3 start fresh inside the block
    rng = np.random.default_rng(60)
    gates = [h(3), (4, 3, 2, 1, 0), cnot(1, 4), (3, 1), trace_out((1, 3))]
    c = opaque_circuit(gates, 5, [(0, 2, 4)], 61)
    assert_matches_oracle(c, [random_density(rng, 8)])


def test_postselected_fresh_wire():
    # wire 2 starts fresh, is entangled with the input and post-selected on 1;
    # wire 3 is never touched and post-selected on 0 with probability one
    rng = np.random.default_rng(62)
    gates = [ry(2, 0.9), (2, 1, 0), postselect(2, 1), h(0), postselect(3, 0)]
    c = opaque_circuit(gates, 4, [(0, 1)], 63)
    assert_matches_oracle(c, [random_density(rng, 4)])


def test_gate_on_dense_factor_after_cswap():
    # the kept control and register 0 leave the CSWAP dense; a one-qubit gate,
    # a CNOT and an opaque block with a fresh wire then act on that factor
    rng = np.random.default_rng(64)
    gates = [
        ry(4, 0.7),
        multi_target_cswap_gate(4, [(0, 2), (1, 3)]),
        h(1),
        cnot(4, 0),
        (5, 4, 0),
        t(5),
        trace_out((2, 3, 5)),
    ]
    c = opaque_circuit(gates, 6, [(0, 1), (2, 3)], 65)
    assert_matches_oracle(c, [random_density(rng, 4), haar_density(rng, 4)])


@pytest.mark.parametrize("method", ["svd", "sznagy"])
def test_fanout_mixer_matches_channel(method):
    k = random_kraus_set(2, 4, seed=66)
    report = verify_equivalence(k, method, group_size=1, mode="fanout")
    assert max(report.residuals) <= 1e-12
    assert max(abs(p - 0.25) for p in report.probabilities) <= 1e-12


def test_svd_peak_memory_stays_near_the_isometry():
    # n=3, m=16, svd l=16 is one 8-qubit branch holding an 8-column isometry;
    # two-sided 256 x 256 gate products on its density peaked at 3.4 MB
    k = random_kraus_set(3, 16, seed=67)
    c = assemble_simulation_circuit(k, "svd", group_size=16)
    rho = random_density(np.random.default_rng(68), 8)
    assert traced_peak(lambda: run(c, rho)) < 2 << 20


# --- one state contract and one verification path -----------------------------


@pytest.mark.parametrize("d", [2, 4, 8])
def test_tomography_pure_states_span_every_matrix(d):
    inputs = tomography_inputs(d)
    pure = [v for name, v in inputs.items() if name != "mixture"]
    assert len(pure) == d * d and list(inputs)[-1] == "mixture"
    vectorized = np.array([np.outer(v, v.conj()).ravel() for v in pure])
    assert np.linalg.matrix_rank(vectorized) == d * d
    mixture = density(inputs["mixture"], d.bit_length() - 1)
    assert np.linalg.eigvalsh(mixture).min() > 0  # full rank


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), pure=st.booleans())
def test_valid_densities_pass_run_unchanged(seed, n, pure):
    rho = (haar_density if pure else random_density)(np.random.default_rng(seed), 2**n)
    out, p = run(circuit_of([], n, inputs=[tuple(range(n))]), rho)
    assert p == 1.0 and np.array_equal(out.matrix, rho)


DIAG = np.diag([0.75, 0.25]).astype(complex)
NOT_DENSITIES = [  # (1-qubit state, the property it breaks)
    (DIAG * (1 + 1e-6), "trace"),
    (DIAG * (1 - 1e-6), "trace"),
    (DIAG + 1e-6 * np.array([[0, 1], [-1, 0]]), "not Hermitian"),  # anti-Hermitian part
    (np.diag([1 + 1e-6, -1e-6]).astype(complex), "not positive semidefinite"),
]


@pytest.mark.parametrize("method,l", [("stinespring", 1), ("sznagy", 2), ("svd", 1)])
@pytest.mark.parametrize("state,prop", NOT_DENSITIES)
def test_run_refuses_states_off_by_1e_6(method, l, state, prop):
    c = assemble_simulation_circuit(random_kraus_set(1, 4, seed=1), method, group_size=l)
    with pytest.raises(ValueError, match=prop):
        run(c, state)


def with_nan(monkeypatch, field):
    """Make the executors of ``simulator._plan`` return NaN in their output state
    or their probability."""
    real = simulator._plan

    def with_nan_executor(*structure):
        execute = real(*structure)

        def patched(*args):
            out, p = execute(*args)
            if field == "output":
                return DensityMatrix(np.full_like(out.matrix, np.nan), out.num_qubits), p
            return out, np.nan

        return patched

    monkeypatch.setattr(simulator, "_plan", with_nan_executor)


@pytest.mark.parametrize("field", ["output", "probability"])
def test_nan_fails_closed(monkeypatch, field):
    k = random_kraus_set(1, 4, seed=1)
    rho = tomography_inputs(2)["mixture"]
    with_nan(monkeypatch, field)
    report = check_circuit(k, assemble_simulation_circuit(k, "svd"), 0.25, [rho, rho], 1e-9)
    assert report.failed == (0, 1)
    with pytest.raises(EquivalenceFailure, match="input"):
        verify_equivalence(k, "svd")


@pytest.mark.parametrize("method,l", [("stinespring", 1), ("sznagy", 2), ("svd", 2)])
def test_fixed_inputs_refuse_a_transposed_block(monkeypatch, method, l):
    k = random_kraus_set(2, 4, seed=3)
    assert not verify_equivalence(k, method, group_size=l).failed
    real = simulator.assemble_simulation_circuit

    def transposed(*args, **kwargs):
        circ = real(*args, **kwargs)
        block = sorted(circ.matrices)[0]
        circ.matrices[block] = circ.matrices[block].T
        return circ

    monkeypatch.setattr(simulator, "assemble_simulation_circuit", transposed)
    with pytest.raises(EquivalenceFailure, match="input"):
        verify_equivalence(k, method, group_size=l)


# --- one plan per circuit structure ---------------------------------------------


def test_circuits_that_differ_in_matrices_share_a_plan():
    gates = [h(3), (3, 1, 0), multi_target_cswap_gate(4, [(0, 2)]), (4, 2), trace_out((2, 3))]
    rng = np.random.default_rng(70)
    rho = random_density(rng, 4)
    a, b = (opaque_circuit(gates, 5, [(0, 1)], seed) for seed in (71, 72))
    assert a.gates == b.gates
    assert_matches_oracle(a, [rho])
    assert_matches_oracle(b, [rho])
    assert max_abs(run(a, rho)[0].matrix - run(b, rho)[0].matrix) > 1e-3
    assert simulator._plan(tuple(a.gates), a.input_registers) is simulator._plan(
        tuple(b.gates), b.input_registers
    )


def test_gate_appended_after_a_run_changes_the_next_run():
    rng = np.random.default_rng(73)
    rho = random_density(rng, 4)
    c = opaque_circuit([(1, 0), cnot(0, 2)], 3, [(0, 1)], 74)
    assert_matches_oracle(c, [rho])
    before = run(c, rho)[0].matrix
    c.add(h(2))
    assert_matches_oracle(c, [rho])
    assert max_abs(run(c, rho)[0].matrix - before) > 1e-3


def test_missing_matrix_names_the_block_with_a_plan_cached():
    c = opaque_circuit([(1, 0), h(0)], 2, [(0, 1)], 75)
    rho = np.eye(4, dtype=complex) / 4
    run(c, rho)
    del c.matrices["u0"]
    with pytest.raises(SimulationError, match="missing matrix for block 'u0'"):
        run(c, rho)


# (a block on a 2-qubit gate, or the 1x1 block a sidecar can carry)
BAD_BLOCKS = {
    "1x1 from a sidecar": parse_sidecar('{"u0": [[[1, 0]]]}')["u0"],
    "2x2": np.eye(2),
    "8x8": np.eye(8),
    "4x2": np.eye(4)[:, :2],
    "1-D": np.ones(4),
}


@pytest.mark.parametrize("block", BAD_BLOCKS.values(), ids=BAD_BLOCKS)
def test_block_of_the_wrong_shape_is_named_before_any_step_runs(block):
    # the first step refuses |000> (its branch has probability 0), so only a
    # check made before any step runs can name the block of the second gate
    c = opaque_circuit([postselect(2, 1), (1, 0)], 3, [(0, 1, 2)], 75)
    rho = np.diag(np.eye(8)[0]).astype(complex)
    with pytest.raises(ZeroProbabilityBranch):
        run(c, rho)
    c.matrices["u0"] = block
    message = f"block 'u0' is {np.shape(block)}, not (4, 4)"
    with pytest.raises(SimulationError, match=re.escape(message)):
        run(c, rho)


def test_each_state_passes_density_once(monkeypatch):
    calls = []

    def counted(state, num_qubits):
        calls.append(num_qubits)
        return density(state, num_qubits)

    monkeypatch.setattr(simulator, "density", counted)
    k = random_kraus_set(1, 4, seed=1)
    verify_equivalence(k, "svd")  # n = 1: d^2 + 1 = 5 inputs
    assert len(calls) == 5
    c = assemble_simulation_circuit(k, "svd")
    assert len(c.input_registers) == 4
    states = list(tomography_inputs(2).values())[:3]
    calls.clear()
    check_circuit(k, c, 0.25, states, 1e-9)
    assert len(calls) == 3
    calls.clear()
    run(c, states[0])
    assert calls == [1]


def test_check_circuit_refuses_a_register_narrower_than_the_channel():
    k = random_kraus_set(2, 4, seed=1)
    c = circuit_of([h(0)], 2, inputs=[(0,)])
    with pytest.raises(DimensionMismatchError, match=r"shape \(4, 4\), expected dimension 2"):
        check_circuit(k, c, 1.0, [np.eye(4) / 4], 1e-9)


@pytest.mark.parametrize("states", [[], (), iter([])], ids=["list", "tuple", "generator"])
def test_check_circuit_refuses_no_states(states):
    # a report of no run would read as a pass
    k = random_kraus_set(1, 4, seed=1)
    with pytest.raises(ValueError, match="no states"):
        check_circuit(k, assemble_simulation_circuit(k, "svd"), 0.25, states, 1e-9)


@pytest.mark.parametrize("method", ["svd", "sznagy"])
def test_warm_run_searches_no_contraction_path(monkeypatch, method):
    c = assemble_simulation_circuit(random_kraus_set(2, 16, seed=76), method, group_size=4)
    rho = random_density(np.random.default_rng(77), 4)
    want = run(c, rho)[0].matrix
    calls = []

    def counted(name):
        real = getattr(np, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    for name in ("einsum", "einsum_path"):
        monkeypatch.setattr(np, name, counted(name))
    got = run(c, rho)[0].matrix
    assert calls == []
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "gates, width",
    [([h(0), cnot(0, 1)], 4), ([h(0), trace_out((0, 1))], 1)],
    ids=["fresh-wires-only", "all-traced"],
)
def test_output_that_needs_no_input_is_fresh_on_every_run(gates, width):
    # such an output comes from the plan's steps alone; it must still be a new,
    # writable array on each run, never one the cached plan holds
    c = circuit_of(gates, 2)
    first = run(c)[0].matrix
    want = first.copy()
    assert first.shape == (width, width)
    first[...] = 7
    second = run(c)[0].matrix
    assert second is not first
    assert np.array_equal(second, want)
    second[...] = 0
    assert np.array_equal(run(c)[0].matrix, want)
