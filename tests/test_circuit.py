import json
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oqsynth import circuit, costmodel
from oqsynth.channel import NotPowerOfTwoError, random_kraus_set, validate_cptp
from oqsynth.circuit import (
    Circuit,
    CircuitError,
    Gate,
    MissingAncillasError,
    QubitCollisionError,
    UnsupportedGateError,
    assemble_simulation_circuit,
    build_mixer,
    cnot,
    cswap_elementary,
    export_circuit,
    h,
    multi_target_cswap,
    multi_target_cswap_gate,
    opaque_sidecar,
    opaque_unitary,
    parse_circuit,
    parse_sidecar,
    postselect,
    ry,
    rz,
    t,
    tdg,
    trace_out,
)
from oqsynth.dilation import svd_dilation
from oqsynth.linalg import matrix_to_pairs
from oqsynth.linalg import max_abs


def kinds(c):
    """Gate count per kind."""
    return Counter(g.kind for g in c.gates)


# --- independent dense oracle for small gate lists ---------------------------

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_T = np.diag([1, np.exp(1j * np.pi / 4)]).astype(complex)
_SINGLES = {"H": _H, "T": _T, "TDG": _T.conj().T}


def gate_matrix(g, num_qubits):
    """Embed one gate into the full space; qubit 0 is the least significant bit."""
    dim = 2**num_qubits
    if g.kind in _SINGLES or g.kind in ("RZ", "RY"):
        if g.kind == "RZ":
            u1 = np.diag([np.exp(-0.5j * g.theta), np.exp(0.5j * g.theta)])
        elif g.kind == "RY":
            c, s = np.cos(g.theta / 2), np.sin(g.theta / 2)
            u1 = np.array([[c, -s], [s, c]], dtype=complex)
        else:
            u1 = _SINGLES[g.kind]
        q = g.qubits[0]
        out = np.eye(1, dtype=complex)
        for pos in reversed(range(num_qubits)):  # MSB = highest qubit id
            out = np.kron(out, u1 if pos == q else np.eye(2))
        return out
    if g.kind == "CNOT":
        c, tgt = g.qubits
        m = np.zeros((dim, dim), dtype=complex)
        for i in range(dim):
            j = i ^ (1 << tgt) if (i >> c) & 1 else i
            m[j, i] = 1
        return m
    if g.kind == "MULTI_TARGET_CSWAP":
        n_t = g.n_targets
        ctrl = g.qubits[0]
        pairs = list(zip(g.qubits[1 : 1 + n_t], g.qubits[1 + n_t :]))
        m = np.zeros((dim, dim), dtype=complex)
        for i in range(dim):
            j = i
            if (i >> ctrl) & 1:
                for a, b in pairs:
                    ba, bb = (j >> a) & 1, (j >> b) & 1
                    if ba != bb:
                        j ^= (1 << a) | (1 << b)
            m[j, i] = 1
        return m
    raise AssertionError(f"oracle cannot embed {g.kind}")


def sequence_matrix(gates, num_qubits):
    u = np.eye(2**num_qubits, dtype=complex)
    for g in gates:
        u = gate_matrix(g, num_qubits) @ u
    return u


def cswap_reference(ctrl, a, b, num_qubits):
    dim = 2**num_qubits
    m = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        j = i
        if (i >> ctrl) & 1:
            ba, bb = (i >> a) & 1, (i >> b) & 1
            if ba != bb:
                j = i ^ ((1 << a) | (1 << b))
        m[j, i] = 1
    return m


def circuit_of(gates, num_qubits):
    c = Circuit(num_qubits=num_qubits)
    c.extend(gates)
    return c


class TestDepthAndCounts:
    def test_single_gate(self):
        c = circuit_of([h(0)], 1)
        assert c.depth() == 1 and c.cnot_count() == 0

    def test_disjoint_gates_share_layer(self):
        c = circuit_of([h(0), h(1), cnot(2, 3)], 4)
        assert c.depth() == 1

    def test_serial_chain(self):
        c = circuit_of([cnot(0, 1), cnot(1, 2), cnot(2, 3)], 4)
        assert c.depth() == 3 and c.cnot_count() == 3

    def test_depth_invariant_under_in_layer_reorder(self):
        gates = [h(0), h(1), cnot(0, 1), h(0), h(1)]
        swapped = [h(1), h(0), cnot(0, 1), h(1), h(0)]
        assert circuit_of(gates, 2).depth() == circuit_of(swapped, 2).depth()

    def test_opaque_weights(self):
        g = opaque_unitary((1, 0), "blk", depth_weight=7.5, cnot_weight=30.0)
        c = circuit_of([g, h(0)], 2)
        assert c.depth() == 8.5
        assert c.cnot_count() == 30.0

    def test_markers_cost_nothing(self):
        c = circuit_of([h(0), postselect(0, 0), trace_out((1,))], 2)
        assert c.depth() == 1 and c.cnot_count() == 0

    def test_opaque_weight_floor(self):
        with pytest.raises(CircuitError):
            opaque_unitary((0,), "blk", depth_weight=0.5, cnot_weight=0)


class TestCswapElementary:
    def test_matrix_is_exact_cswap(self):
        gates = cswap_elementary(0, 1, 2)
        u = sequence_matrix(gates, 3)
        assert max_abs(u - cswap_reference(0, 1, 2, 3)) <= 1e-12

    def test_other_wirings(self):
        for ctrl, a, b in [(2, 0, 1), (1, 2, 0)]:
            u = sequence_matrix(cswap_elementary(ctrl, a, b), 3)
            assert max_abs(u - cswap_reference(ctrl, a, b, 3)) <= 1e-12

    def test_counts(self):
        gates = cswap_elementary(0, 1, 2)
        c = circuit_of(gates, 3)
        assert c.cnot_count() == 9
        assert c.depth() == 14

    def test_three_cnots_touch_control(self):
        gates = cswap_elementary(5, 1, 2)
        touching = [g for g in gates if g.kind == "CNOT" and 5 in g.qubits]
        assert len(touching) == 3
        assert all(g.qubits[0] == 5 for g in touching)

    def test_distinct_qubits_required(self):
        with pytest.raises(QubitCollisionError):
            cswap_elementary(0, 0, 1)


class TestMultiTargetCswap:
    def test_shared_single_pair_is_one_logical_gate(self):
        gates = multi_target_cswap(0, [(1, 2)], mode="shared")
        assert [(g.kind, g.n_targets) for g in gates] == [("MULTI_TARGET_CSWAP", 1)]
        assert circuit_of(gates, 3).depth() == 14
        assert circuit_of(gates, 3).cnot_count() == 9
        u = sequence_matrix(gates, 3)
        assert max_abs(u - cswap_reference(0, 1, 2, 3)) <= 1e-12

    def test_fanout_single_pair_is_elementary(self):
        assert multi_target_cswap(0, [(1, 2)], mode="fanout") == cswap_elementary(0, 1, 2)

    def test_shared_depth_formula(self):
        for n_t in (1, 2, 4, 8):
            pairs = [(1 + i, 1 + n_t + i) for i in range(n_t)]
            gates = multi_target_cswap(0, pairs, mode="shared")
            depth = circuit_of(gates, 1 + 2 * n_t).depth()
            assert depth == 6 * int(np.ceil(np.log2(n_t))) + 14

    def test_shared_semantics_two_pairs(self):
        gates = multi_target_cswap(0, [(1, 3), (2, 4)], mode="shared")
        u = sequence_matrix(gates, 5)
        want = cswap_reference(0, 1, 3, 5) @ cswap_reference(0, 2, 4, 5)
        assert max_abs(u - want) <= 1e-12

    def test_fanout_semantics_two_pairs(self):
        # ancilla starts |0>; copying the control gives the same controlled
        # swap, with the ancilla left correlated with the control
        gates = multi_target_cswap(0, [(1, 3), (2, 4)], mode="fanout", ancillas=(5,))
        u = sequence_matrix(gates, 6)
        cols = [i for i in range(64) if not (i >> 5) & 1]
        for i in cols:
            out = u[:, i]
            j = int(np.argmax(np.abs(out)))
            assert abs(abs(out[j]) - 1.0) <= 1e-12
            ctrl = (i >> 0) & 1
            expect = i
            if ctrl:
                for a, b in [(1, 3), (2, 4)]:
                    ba, bb = (expect >> a) & 1, (expect >> b) & 1
                    if ba != bb:
                        expect ^= (1 << a) | (1 << b)
                expect |= 1 << 5  # ancilla copies the control
            assert j == expect

    def test_fanout_layer_depth(self):
        # CSWAP blocks stay at depth 14; the copy tree adds its rounds minus
        # the one layer of control slack inside the elementary decomposition
        for n_t, want in [(2, 14), (4, 15), (8, 16)]:
            pairs = [(1 + i, 1 + n_t + i) for i in range(n_t)]
            anc = tuple(range(1 + 2 * n_t, 1 + 2 * n_t + n_t - 1))
            gates = multi_target_cswap(0, pairs, mode="fanout", ancillas=anc)
            depth = circuit_of(gates, 1 + 3 * n_t).depth()
            assert depth == want

    def test_fanout_needs_ancillas(self):
        with pytest.raises(MissingAncillasError):
            multi_target_cswap(0, [(1, 3), (2, 4)], mode="fanout", ancillas=())

    def test_collisions_rejected(self):
        with pytest.raises(QubitCollisionError):
            multi_target_cswap(0, [(1, 2), (2, 3)], mode="shared")


class TestBuildMixer:
    def test_shared_structure(self):
        c = build_mixer(4, 2, mode="shared")
        assert c.num_qubits == 4 * 2 + 3
        assert kinds(c)["MULTI_TARGET_CSWAP"] == 3
        assert kinds(c)["H"] == 3
        mix = costmodel.mixer_cost(4, 2, "shared")
        assert c.depth() == mix.total_depth
        assert c.cnot_count() == mix.cnot

    def test_fanout_structure(self):
        c = build_mixer(4, 3, mode="fanout")
        assert c.num_qubits == 4 * 3 + 3 * 3
        mix = costmodel.mixer_cost(4, 3, "fanout")
        assert c.depth() == mix.total_depth
        assert c.cnot_count() == mix.cnot

    def test_single_state_trivial(self):
        c = build_mixer(1, 2)
        assert c.depth() == 0 and not c.gates

    def test_weighted_controls_use_ry(self):
        c = build_mixer(2, 1, weights=(0.25, 0.75))
        kinds = [g.kind for g in c.gates]
        assert "RY" in kinds and "H" not in kinds

    def test_equal_weights_are_uniform(self):
        assert build_mixer(2, 1, weights=(2, 2)).gates == build_mixer(2, 1).gates

    def test_rejects_non_power_of_two(self):
        with pytest.raises(NotPowerOfTwoError):
            build_mixer(3, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(CircuitError, match="finite"):
            build_mixer(2, 1, weights=[bad, 1.0])


class TestAssemble:
    def test_stinespring_layout(self):
        k = random_kraus_set(2, 16, seed=1)
        c = assemble_simulation_circuit(k, "stinespring")
        assert c.num_qubits == 2 + 4
        assert kinds(c)["OPAQUE_UNITARY"] == 1
        assert kinds(c)["POSTSELECT"] == 0
        cost = costmodel.combined_cost("stinespring", 2, 16)
        assert c.depth() == cost.depth
        assert c.cnot_count() == cost.cnot_count

    def test_unitary_channel_stinespring(self):
        k = random_kraus_set(1, 1, seed=2)
        c = assemble_simulation_circuit(k, "stinespring")
        assert c.num_qubits == 1
        assert kinds(c)["TRACE_OUT"] == 0
        # an empty REGISTER stays legal, unlike an empty INPUT
        text = export_circuit(c)
        assert "REGISTER environment\n" in text
        assert parse_circuit(text).registers["environment"] == ()

    def test_sznagy_ungrouped_counts(self):
        k = random_kraus_set(2, 16, seed=3)
        c = assemble_simulation_circuit(k, "sznagy", group_size=1)
        cost = costmodel.combined_cost("sznagy", 2, 16, group_size=1)
        assert c.num_qubits == cost.qubit_count == 16 * 3 + 15
        assert kinds(c)["OPAQUE_UNITARY"] == 16
        assert c.depth() == pytest.approx(cost.depth)
        assert c.cnot_count() == pytest.approx(cost.cnot_count)

    def test_svd_grouped_counts(self):
        k = random_kraus_set(2, 16, seed=4)
        for l in (1, 2, 4):
            c = assemble_simulation_circuit(k, "svd", group_size=l)
            cost = costmodel.combined_cost("svd", 2, 16, group_size=l)
            assert c.num_qubits == cost.qubit_count
            assert c.depth() == pytest.approx(cost.depth)
            assert c.cnot_count() == pytest.approx(cost.cnot_count)

    def test_branch_count_excludes_identity_block(self):
        k = random_kraus_set(2, 16, seed=5)
        c = assemble_simulation_circuit(k, "sznagy", group_size=2)
        assert kinds(c)["OPAQUE_UNITARY"] == 8  # not 9

    def test_full_grouping_has_no_mixer(self):
        k = random_kraus_set(1, 4, seed=6)
        c = assemble_simulation_circuit(k, "sznagy", group_size=4)
        assert kinds(c)["MULTI_TARGET_CSWAP"] == 0
        assert kinds(c)["H"] == 0
        assert kinds(c)["POSTSELECT"] == 1

    def test_fanout_mode_is_elementary(self):
        k = random_kraus_set(1, 4, seed=7)
        c = assemble_simulation_circuit(k, "svd", group_size=1, mode="fanout")
        assert kinds(c)["MULTI_TARGET_CSWAP"] == 0
        cost = costmodel.combined_cost("svd", 1, 4, group_size=1, mode="fanout")
        assert c.depth() == pytest.approx(cost.depth)
        assert c.cnot_count() == pytest.approx(cost.cnot_count)

    def test_non_power_of_two_rejected(self):
        k = random_kraus_set(1, 3, seed=8)
        for method in ("stinespring", "sznagy", "svd"):
            with pytest.raises(NotPowerOfTwoError, match="pad_to_power_of_two"):
                assemble_simulation_circuit(k, method)


# each builder, including the paths that never reach a mixer or a fanout tree
@pytest.mark.parametrize(
    "build",
    [
        lambda mode: assemble_simulation_circuit(
            random_kraus_set(1, 4, seed=9), "sznagy", group_size=4, mode=mode
        ),
        lambda mode: assemble_simulation_circuit(
            random_kraus_set(1, 4, seed=9), "stinespring", mode=mode
        ),
        lambda mode: build_mixer(1, 3, mode=mode),
        lambda mode: build_mixer(2, 1, mode=mode),
        lambda mode: multi_target_cswap(0, [(1, 2)], mode=mode),
    ],
    ids=["assemble-one-branch", "stinespring", "mixer-one-state", "mixer", "cswap-one-pair"],
)
def test_builders_refuse_unknown_ancilla_mode(build):
    with pytest.raises(CircuitError, match="unknown ancilla mode 'bogus'"):
        build("bogus")


# (call, the error it raises, what the message says)
REFUSED_CALLS = {
    "negative qubit": (lambda: Gate("H", (-1,)), CircuitError, "negative qubit index"),
    "qubit past the register": (
        lambda: Circuit(2).add(h(2)),
        CircuitError,
        "touches qubit 2 outside register of 2",
    ),
    "no CIRCUIT header": (
        lambda: parse_circuit("GATE H q0"),
        CircuitError,
        "must start with a CIRCUIT header",
    ),
    "unknown export format": (
        lambda: export_circuit(Circuit(1), fmt="bogus"),
        UnsupportedGateError,
        "unknown export format 'bogus'",
    ),
    "unknown method": (
        lambda: assemble_simulation_circuit(random_kraus_set(1, 2, seed=1), "bogus"),
        CircuitError,
        "unknown method 'bogus'",
    ),
    "empty input register": (
        lambda: export_circuit(Circuit(2, input_registers=((0,), ()))),
        CircuitError,
        "an input register is empty",
    ),
    "fanout ancilla on a pair wire": (
        lambda: multi_target_cswap(0, [(1, 2), (3, 4)], mode="fanout", ancillas=(3,)),
        QubitCollisionError,
        "qubits overlap in fanout CSWAP",
    ),
}


@pytest.mark.parametrize("call,error,message", REFUSED_CALLS.values(), ids=REFUSED_CALLS)
def test_refused_calls(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


class TestSerialization:
    def test_single_h(self):
        c = circuit_of([h(0)], 1)
        assert "GATE H q0" in export_circuit(c)

    def test_cswap_has_nine_cnot_lines(self):
        c = circuit_of(cswap_elementary(0, 1, 2), 3)
        text = export_circuit(c)
        assert sum(1 for ln in text.splitlines() if "CNOT" in ln) == 9

    def test_native_round_trip(self):
        k = random_kraus_set(1, 4, seed=9)
        c = assemble_simulation_circuit(k, "svd", group_size=2)
        text = export_circuit(c)
        mats = parse_sidecar(opaque_sidecar(c))
        c2 = parse_circuit(text, matrices=mats)
        assert c2.num_qubits == c.num_qubits
        assert c2.gates == c.gates
        assert c2.registers == c.registers
        assert c2.input_registers == c.input_registers
        assert export_circuit(c2) == text
        for mid, mat in c.matrices.items():
            assert max_abs(c2.matrices[mid] - mat) == 0.0

    def test_sidecar_rejects_short_row(self):
        k = random_kraus_set(1, 2, seed=9)
        payload = json.loads(opaque_sidecar(assemble_simulation_circuit(k, "sznagy")))
        payload["branch0_sznagy"][1].pop()
        with pytest.raises(CircuitError, match="malformed sidecar"):
            parse_sidecar(json.dumps(payload))

    def test_round_trip_rz_theta(self):
        c = circuit_of([rz(0, 0.1234567890123456789), ry(1, -2.5)], 2)
        c2 = parse_circuit(export_circuit(c))
        assert c2.gates[0].theta == c.gates[0].theta
        assert c2.gates[1].theta == c.gates[1].theta

    def test_qasm_elementary(self):
        c = circuit_of(cswap_elementary(0, 1, 2), 3)
        text = export_circuit(c, fmt="qasm-elementary")
        assert text.startswith("OPENQASM 2.0;")
        assert text.count("cx q[") == 9

    def test_qasm_rejects_logical_gates(self):
        c = circuit_of(multi_target_cswap(0, [(1, 3), (2, 4)], mode="shared"), 5)
        with pytest.raises(UnsupportedGateError):
            export_circuit(c, fmt="qasm-elementary")

    def test_qasm_opaque_declaration(self):
        k = validate_cptp([np.eye(2, dtype=complex)])
        c = assemble_simulation_circuit(k, "stinespring")
        text = export_circuit(c, fmt="qasm-elementary")
        assert "opaque stinespring_unitary" in text

    @pytest.mark.parametrize("method", ["sznagy", "svd"])
    def test_qasm_of_a_fanout_assembly(self, method):
        # two branches of one block (sznagy) or three (svd)
        c = assemble_simulation_circuit(random_kraus_set(2, 4, seed=1), method, 2, "fanout")
        lines = export_circuit(c, fmt="qasm-elementary").splitlines()
        ids = {g.matrix_id for g in c.gates if g.kind == "OPAQUE_UNITARY"}
        assert len(ids) == (2 if method == "sznagy" else 6)
        assert sum(ln.startswith("opaque ") for ln in lines) == len(ids)
        for mid in ids:
            (declared,) = [i for i, ln in enumerate(lines) if ln.startswith(f"opaque {mid} ")]
            assert declared < min(i for i, ln in enumerate(lines) if ln.startswith(f"{mid} "))
        (dil0,) = c.registers["branch0_dilation"]
        postselects = [ln for ln in lines if ln.startswith("// postselect")]
        assert postselects == [f"// postselect q[{dil0}] -> 0"]
        assert sum(ln.startswith("// trace_out ") for ln in lines) == 1
        assert not any("MULTI_TARGET_CSWAP" in ln or "cswap" in ln for ln in lines)

    def test_qasm_ry_angles_read_back_bit_exact(self):
        c = build_mixer(4, 2, mode="fanout", weights=(0.1, 0.2, 0.3, 0.4))
        lines = export_circuit(c, fmt="qasm-elementary").splitlines()
        angles = [ln[3 : ln.index(")")] for ln in lines if ln.startswith("ry(")]
        thetas = [g.theta for g in c.gates if g.kind == "RY"]
        assert len(angles) == len(thetas) == 3
        for angle, theta in zip(angles, thetas):
            assert len(angle.replace(".", "").lstrip("0")) == 17
            assert np.float64(float(angle)).tobytes() == np.float64(theta).tobytes()


# --- sidecar byte contract ---------------------------------------------------


def reference_sidecar(matrices) -> str:
    """The sidecar as json's indented encoder writes it."""
    payload = {mid: matrix_to_pairs(m) for mid, m in sorted(matrices.items())}
    return json.dumps(payload, indent=1)


def sidecar_of(matrices) -> str:
    return opaque_sidecar(Circuit(num_qubits=1, matrices=dict(matrices)))


FINITE_MATRICES = hnp.arrays(
    np.complex128,
    st.tuples(st.integers(1, 8), st.integers(1, 8)),
    elements=st.complex_numbers(allow_nan=False, allow_infinity=False),
)


@settings(deadline=None, max_examples=200)
@given(st.dictionaries(st.text(max_size=6), FINITE_MATRICES, max_size=3))
def test_sidecar_bytes_equal_json_indent_1(matrices):
    assert sidecar_of(matrices) == reference_sidecar(matrices)


def test_sidecar_edge_values():
    edge = [-0.0, 5e-324, 1e-5, 1e16, 1e22, 1.0, 0.1 + 0.2, -1e-300]
    wide = np.array([edge, edge[::-1]], dtype=complex)  # 2 x 8
    wide.imag = wide.real[::-1]  # set in place: arithmetic would turn -0.0 into 0.0
    matrices = {
        'quote"id': np.array([[complex(-0.0, 5e-324)]]),
        "grün→ψ": wide,
        "": np.array([[0.1 + 0.2j]]),
    }
    text = sidecar_of(matrices)
    assert text == reference_sidecar(matrices)
    assert '"quote\\"id"' in text and '"gr\\u00fcn\\u2192\\u03c8"' in text
    for token in ("-0.0", "5e-324", "1e-05", "1e+16", "1e+22", "0.30000000000000004"):
        assert f"    {token}" in text
    back = parse_sidecar(text)
    for mid, m in matrices.items():
        assert back[mid].tobytes() == np.asarray(m, dtype=complex).tobytes()


def test_sidecar_of_no_matrices():
    assert sidecar_of({}) == "{}" == json.dumps({}, indent=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_sidecar_rejects_non_finite(bad):
    m = np.eye(2, dtype=complex)
    m[1, 0] = bad
    with pytest.raises(CircuitError, match="non-finite"):
        sidecar_of({"m": m})


@pytest.mark.parametrize("shape", [(), (3,), (0, 2), (2, 0), (0, 0), (2, 2, 1)], ids=str)
def test_sidecar_rejects_non_matrix_shapes(shape):
    with pytest.raises(CircuitError, match="non-empty 2-D"):
        sidecar_of({"m": np.ones(shape, dtype=complex)})


@pytest.mark.parametrize(
    "bad,message",
    [(np.full((2, 2), np.nan), "matrix 'b' has a non-finite entry"),
     (np.ones(3), "matrix 'b' has shape (3,); the sidecar holds non-empty 2-D matrices")],
    ids=["NaN", "1-D"],
)
def test_sidecar_refuses_the_first_bad_matrix_in_id_order(monkeypatch, bad, message):
    # "a" is formatted before "b" is checked; "b" raises, and so would "c"
    formatted, rows = [], circuit._rows
    monkeypatch.setattr(circuit, "_rows", lambda w: formatted.append(w.shape) or rows(w))
    with pytest.raises(CircuitError, match=f"^{re.escape(message)}$"):
        sidecar_of({"c": np.full((2, 2), np.inf), "b": bad, "a": np.eye(2)})
    assert formatted == [(2, 2, 2)]


def from_pairs(pairs) -> np.ndarray:
    """The complex matrix of an r x c grid of [re, im] pairs, bit for bit."""
    return np.array(pairs, dtype=float).view(complex)[..., 0]


@st.composite
def sparse_matrices(draw):
    """Finite matrices up to 16 x 16 in which a random mask of pairs is zeroed,
    each zeroed part +0.0 or -0.0."""
    shape = draw(st.tuples(st.integers(1, 16), st.integers(1, 16)))
    finite = st.complex_numbers(allow_nan=False, allow_infinity=False)
    m = draw(hnp.arrays(np.complex128, shape, elements=finite))
    zeroed = draw(hnp.arrays(bool, shape))
    negative = draw(hnp.arrays(bool, shape + (2,)))
    pairs = np.stack([m.real, m.imag], -1)
    pairs[zeroed] = np.where(negative[zeroed], -0.0, 0.0)
    return from_pairs(pairs)


def assert_sidecar_round_trip(matrices):
    text = sidecar_of(matrices)
    assert text == reference_sidecar(matrices)
    back = parse_sidecar(text)
    assert back.keys() == matrices.keys()
    for mid, m in matrices.items():
        assert back[mid].shape == m.shape and back[mid].tobytes() == m.tobytes()


@settings(deadline=None, max_examples=200)
@given(st.dictionaries(st.text(max_size=6), sparse_matrices(), max_size=3))
def test_sidecar_of_sparse_matrices_with_signed_zeros(matrices):
    assert_sidecar_round_trip(matrices)


ZERO_PAIR_CASES = {
    "all zero": [[[0.0, 0.0]] * 3] * 2,
    "zero row": [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 2.0], [0.0, 3.0]]],
    "(-0.0, 0.0)": [[[-0.0, 0.0]]],
    "(0.0, -0.0)": [[[0.0, -0.0]]],
    "(-0.0, -0.0)": [[[-0.0, -0.0]]],
    "5e-324 beside +0.0": [[[5e-324, 0.0], [0.0, 0.0], [0.0, 5e-324]]],
    "1 x 1 zero": [[[0.0, 0.0]]],
}


@pytest.mark.parametrize("pairs", ZERO_PAIR_CASES.values(), ids=ZERO_PAIR_CASES)
def test_sidecar_zero_pairs(pairs):
    assert_sidecar_round_trip({"m": from_pairs(pairs)})


# --- malformed native text ---------------------------------------------------

MALFORMED_NATIVE = [
    "CIRCUIT num_qubits=4\nGATE MULTI_TARGET_CSWAP # n_targets=1",
    "CIRCUIT num_qubits=4\nGATE CNOT q0",
    "CIRCUIT num_qubits=4\nGATE POSTSELECT q0",
    "CIRCUIT num_qubits=4\nGATE OPAQUE_UNITARY q0 # id=a",
    "CIRCUIT num_qubits=4\nGATE H qx",
    "CIRCUIT num_qubits=4\nGATE H q0 q1",
    "CIRCUIT num_qubits=x",
    "CIRCUIT num_qubits=4\nGATE",
    "CIRCUIT num_qubits=4\nGATE MULTI_TARGET_CSWAP q0 q1 q2 q3 # n_targets=1",
    "CIRCUIT num_qubits=4\nGATE H q0 junk",
    "CIRCUIT num_qubits=4\nGATE RZ theta=1 q0",
    "CIRCUIT num_qubits=4\nGATE CNOT q0 q0",
    "CIRCUIT num_qubits=4\nINPUT x0",
    "CIRCUIT num_qubits=4\nINPUT q0 q0",
    "CIRCUIT num_qubits=4\nINPUT q+1",
    "CIRCUIT num_qubits=4\nINPUT",
    "CIRCUIT num_qubits=4\nREGISTER r q1 q1",
    "CIRCUIT num_qubits=4\nREGISTER r q0\nREGISTER r q1",
    "CIRCUIT num_qubits=4\nGATE H q0 theta=1",
    "CIRCUIT num_qubits=4\nGATE H q0 # junk=1",
    "CIRCUIT num_qubits=4\nGATE RZ q0 theta=nan",
    "CIRCUIT num_qubits=4\nGATE RZ q0 # theta=1",
    "CIRCUIT num_qubits=4\nGATE POSTSELECT q0 # outcome=0,outcome=1",
    "CIRCUIT num_qubits=4\nGATE POSTSELECT q0 # outcome",
    "CIRCUIT num_qubits=4\nNOPE q0",
]


@pytest.mark.parametrize("text", MALFORMED_NATIVE, ids=lambda t: t.splitlines()[-1])
def test_parse_circuit_malformed_line(text):
    with pytest.raises(CircuitError, match=re.escape(repr(text.splitlines()[-1]))):
        parse_circuit(text)


@pytest.mark.parametrize("name", ["", "my reg", " r", "r\n", "a\tb"])
def test_export_refuses_a_register_name_the_reader_cannot_split_off(name):
    # "" used to export as "REGISTER  q0 q1" and read back as register q0 holding
    # (1,); "my reg" exported, and the reader refused it
    c = Circuit(num_qubits=2, registers={name: (0, 1)})
    with pytest.raises(CircuitError, match=re.escape(repr(name))):
        export_circuit(c)
    c.registers = {"my_reg": (0, 1)}
    assert parse_circuit(export_circuit(c)).registers == c.registers


OPAQUE = {"matrix_id": "a", "depth_weight": 1.0, "cnot_weight": 0.0}
OPAQUE_NOTES = "id=a,depth_weight=1,cnot_weight=0"

# (kind, qubits, fields, the same gate as a native line); every one is malformed
MALFORMED_GATES = [
    # a wrong qubit count for each kind
    ("H", (0, 1), {}, "GATE H q0 q1"),
    ("T", (), {}, "GATE T"),
    ("TDG", (0, 1), {}, "GATE TDG q0 q1"),
    ("RZ", (0, 1), {"theta": 1.0}, "GATE RZ q0 q1 theta=1"),
    ("RY", (), {"theta": 1.0}, "GATE RY theta=1"),
    ("CNOT", (0,), {}, "GATE CNOT q0"),
    ("CNOT", (0, 1, 2), {}, "GATE CNOT q0 q1 q2"),
    ("OPAQUE_UNITARY", (), OPAQUE, f"GATE OPAQUE_UNITARY # {OPAQUE_NOTES}"),
    ("MULTI_TARGET_CSWAP", (0, 1), {"n_targets": 1}, "GATE MULTI_TARGET_CSWAP q0 q1 # n_targets=1"),
    (
        "MULTI_TARGET_CSWAP",
        (0, 1, 2, 3),
        {"n_targets": 1},
        "GATE MULTI_TARGET_CSWAP q0 q1 q2 q3 # n_targets=1",
    ),
    ("MULTI_TARGET_CSWAP", (0,), {"n_targets": 0}, "GATE MULTI_TARGET_CSWAP q0 # n_targets=0"),
    ("POSTSELECT", (0, 1), {"outcome": 0}, "GATE POSTSELECT q0 q1 # outcome=0"),
    ("TRACE_OUT", (), {}, "GATE TRACE_OUT"),
    # a field the kind does not carry
    ("H", (0,), {"theta": 1.0}, "GATE H q0 theta=1"),
    ("CNOT", (0, 1), {"outcome": 0}, "GATE CNOT q0 q1 # outcome=0"),
    ("RZ", (0,), {"theta": 1.0, "n_targets": 1}, "GATE RZ q0 theta=1 # n_targets=1"),
    ("TRACE_OUT", (0,), {"matrix_id": "a"}, "GATE TRACE_OUT q0 # id=a"),
    ("POSTSELECT", (0,), {"outcome": 0, "theta": 0.0}, "GATE POSTSELECT q0 theta=0 # outcome=0"),
    # a missing field
    ("RZ", (0,), {}, "GATE RZ q0"),
    ("POSTSELECT", (0,), {}, "GATE POSTSELECT q0"),
    (
        "OPAQUE_UNITARY",
        (0,),
        {"depth_weight": 1.0, "cnot_weight": 0.0},
        "GATE OPAQUE_UNITARY q0 # depth_weight=1,cnot_weight=0",
    ),
    (
        "OPAQUE_UNITARY",
        (0,),
        {"matrix_id": "a", "depth_weight": 1.0},
        "GATE OPAQUE_UNITARY q0 # id=a,depth_weight=1",
    ),
    ("MULTI_TARGET_CSWAP", (0, 1, 2), {}, "GATE MULTI_TARGET_CSWAP q0 q1 q2"),
    # a non-finite angle or weight, a weight out of range, a bad outcome or id
    ("RZ", (0,), {"theta": np.nan}, "GATE RZ q0 theta=nan"),
    ("RY", (0,), {"theta": np.inf}, "GATE RY q0 theta=inf"),
    ("RY", (0,), {"theta": -np.inf}, "GATE RY q0 theta=-inf"),
    (
        "OPAQUE_UNITARY",
        (0,),
        {**OPAQUE, "depth_weight": np.nan},
        "GATE OPAQUE_UNITARY q0 # id=a,depth_weight=nan,cnot_weight=0",
    ),
    (
        "OPAQUE_UNITARY",
        (0,),
        {**OPAQUE, "depth_weight": np.inf},
        "GATE OPAQUE_UNITARY q0 # id=a,depth_weight=inf,cnot_weight=0",
    ),
    (
        "OPAQUE_UNITARY",
        (0,),
        {**OPAQUE, "cnot_weight": np.nan},
        "GATE OPAQUE_UNITARY q0 # id=a,depth_weight=1,cnot_weight=nan",
    ),
    (
        "OPAQUE_UNITARY",
        (0,),
        {**OPAQUE, "depth_weight": 0.5},
        "GATE OPAQUE_UNITARY q0 # id=a,depth_weight=0.5,cnot_weight=0",
    ),
    (
        "OPAQUE_UNITARY",
        (0,),
        {**OPAQUE, "cnot_weight": -1.0},
        "GATE OPAQUE_UNITARY q0 # id=a,depth_weight=1,cnot_weight=-1",
    ),
    ("POSTSELECT", (0,), {"outcome": 2}, "GATE POSTSELECT q0 # outcome=2"),
    (
        "OPAQUE_UNITARY",
        (0,),
        {**OPAQUE, "matrix_id": "a,b"},
        "GATE OPAQUE_UNITARY q0 # id=a,b,depth_weight=1,cnot_weight=0",
    ),
    (
        "OPAQUE_UNITARY",
        (0,),
        {**OPAQUE, "matrix_id": ""},
        "GATE OPAQUE_UNITARY q0 # id=,depth_weight=1,cnot_weight=0",
    ),
    # weights other than the kind's
    (
        "MULTI_TARGET_CSWAP",
        (0, 1, 2),
        {"n_targets": 1, "depth_weight": 15.0},
        "GATE MULTI_TARGET_CSWAP q0 q1 q2 # n_targets=1,depth_weight=15,cnot_weight=9",
    ),
    (
        "MULTI_TARGET_CSWAP",
        (0, 1, 2, 3, 4),
        {"n_targets": 2, "cnot_weight": 9.0},
        "GATE MULTI_TARGET_CSWAP q0 q1 q2 q3 q4 # n_targets=2,depth_weight=20,cnot_weight=9",
    ),
    ("CNOT", (0, 1), {"cnot_weight": 2.0}, "GATE CNOT q0 q1 # cnot_weight=2"),
    ("TRACE_OUT", (0,), {"depth_weight": 1.0}, "GATE TRACE_OUT q0 # depth_weight=1"),
    # an unknown kind
    ("SWAP", (0, 1), {}, "GATE SWAP q0 q1"),
    # a qubit, outcome or target count that equals an int but is not one
    ("POSTSELECT", (0,), {"outcome": True}, "GATE POSTSELECT q0 # outcome=True"),
    (
        "MULTI_TARGET_CSWAP",
        (0, 1, 2),
        {"n_targets": 1.0},
        "GATE MULTI_TARGET_CSWAP q0 q1 q2 # n_targets=1.0",
    ),
    ("H", (True,), {}, "GATE H qTrue"),
    ("H", (0.0,), {}, "GATE H q0.0"),
    # an angle or a weight that is not an int or float, or is a bool
    ("RZ", (0,), {"theta": "1"}, "GATE RZ q0 theta='1'"),
    ("RZ", (0,), {"theta": True}, "GATE RZ q0 theta=True"),
    (
        "OPAQUE_UNITARY",
        (0,),
        {**OPAQUE, "depth_weight": True},
        "GATE OPAQUE_UNITARY q0 # id=a,depth_weight=True,cnot_weight=0",
    ),
    (
        "OPAQUE_UNITARY",
        (0,),
        {**OPAQUE, "cnot_weight": "0"},
        "GATE OPAQUE_UNITARY q0 # id=a,depth_weight=1,cnot_weight='0'",
    ),
]


@pytest.mark.parametrize(
    "kind,qubits,fields,line", MALFORMED_GATES, ids=[row[-1] for row in MALFORMED_GATES]
)
def test_malformed_gate_is_refused_by_gate_and_parser(kind, qubits, fields, line):
    with pytest.raises(CircuitError):
        Gate(kind, qubits, **fields)
    with pytest.raises(CircuitError, match=re.escape(repr(line))):
        parse_circuit(f"CIRCUIT num_qubits=8\n{line}")


def test_kind_fills_in_the_weights():
    cswap = multi_target_cswap_gate(0, [(1, 3), (2, 4)])
    weights = {
        h(0): (1.0, 0.0),
        rz(0, 0.5): (1.0, 0.0),
        cnot(0, 1): (1.0, 1.0),
        postselect(0, 1): (0.0, 0.0),
        trace_out((0, 1)): (0.0, 0.0),
        cswap: (costmodel.multi_target_cswap_depth(2), costmodel.multi_target_cswap_cnots(2)),
    }
    for g, want in weights.items():
        assert (g.depth_weight, g.cnot_weight) == want
    # the kind's own weights may be given, as a native line gives a CSWAP's
    assert Gate(cswap.kind, cswap.qubits, n_targets=2, depth_weight=20.0, cnot_weight=18) == cswap


# (text, the line the error must name)
OUT_OF_RANGE_NATIVE = [
    ("CIRCUIT num_qubits=-1", "CIRCUIT num_qubits=-1"),
    ("CIRCUIT num_qubits=2\nINPUT q-1", "INPUT q-1"),
    ("CIRCUIT num_qubits=2\nINPUT q5\nGATE H q0", "INPUT q5"),
    ("CIRCUIT num_qubits=2\nREGISTER system q0 q2", "REGISTER system q0 q2"),
    ("CIRCUIT num_qubits=2\nGATE CNOT q0 q2", "GATE CNOT q0 q2"),
    ("CIRCUIT num_qubits=2\nGATE H q-1", "GATE H q-1"),
]


@pytest.mark.parametrize("text,bad", OUT_OF_RANGE_NATIVE, ids=[b for _, b in OUT_OF_RANGE_NATIVE])
def test_parse_circuit_bounds_every_qubit_by_the_header(text, bad):
    with pytest.raises(CircuitError, match=re.escape(repr(bad))):
        parse_circuit(text)


@pytest.mark.parametrize("text", ["[]", "null", '"text"', "", "not json", "{"])
def test_parse_sidecar_raises_only_circuit_error(text):
    with pytest.raises(CircuitError):
        parse_sidecar(text)


def assert_reads_every_layout(matrices):
    """The writer's indent=1 text, compact json and a tab/CRLF layout all read
    back bit-exact."""
    payload = {mid: matrix_to_pairs(m) for mid, m in matrices.items()}
    spaced = json.dumps(payload, indent="\t", separators=(" ,\r\n", " : "), ensure_ascii=False)
    for text in (sidecar_of(matrices), json.dumps(payload), spaced):
        back = parse_sidecar(text)
        assert back.keys() == matrices.keys()
        for mid, m in matrices.items():
            assert back[mid].shape == m.shape
            assert back[mid].tobytes() == m.tobytes()


@settings(deadline=None, max_examples=200)
@given(st.dictionaries(st.text(max_size=6), FINITE_MATRICES, max_size=3))
def test_parse_sidecar_reads_every_layout_bit_exact(matrices):
    assert_reads_every_layout(matrices)


@settings(deadline=None, max_examples=100)
@given(st.dictionaries(st.text(max_size=6), FINITE_MATRICES, max_size=3), st.integers(1, 7))
def test_codec_in_tiny_pieces(matrices, chunk):
    # one row per writer block and a reader chunk of a few chars put a cut
    # beside every token: the bytes and the values stay the same
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(circuit, "_BLOCK_PAIRS", 1)
        mp.setattr(circuit, "_CHUNK", chunk)
        assert sidecar_of(matrices) == reference_sidecar(matrices)
        assert_reads_every_layout(matrices)


MALFORMED_SIDECARS = {
    "ragged row": '{"a": [[[1, 0], [2, 0]], [[3, 0]]]}',
    "3-element pair": '{"a": [[[1, 0, 0]]]}',
    "1-element pair": '{"a": [[[1]]]}',
    "empty matrix": '{"a": []}',
    "empty row": '{"a": [[]]}',
    "bare number": '{"a": 1}',
    "NaN": '{"a": [[[NaN, 0]]]}',
    "Infinity": '{"a": [[[0, -Infinity]]]}',
    "overflow to inf": '{"a": [[[1e999, 0]]]}',
    "int beyond the float range": '{"a": [[[1' + "0" * 400 + ', 0]]]}',
    "quoted number": '{"a": [[["1", 0]]]}',
    "true": '{"a": [[[1, 0]], [[true, 0]]]}',
    "null": '{"a": [[[null, 0]]]}',
    "not a number": '{"a": [[[1e, 0]]]}',
    "missing number": '{"a": [[[, 0]]]}',
    "nested object": '{"a": {"b": [[[1, 0]]]}}',
    "object in a matrix": '{"a": [[{"b": 1}]]}',
    "missing comma in a pair": '{"a": [[[1 0]]]}',
    "missing comma between pairs": '{"a": [[[1, 0] [2, 0]]]}',
    "missing comma between entries": '{"a": [[[1, 0]]] "b": [[[1, 0]]]}',
    "trailing comma": '{"a": [[[1, 0],]]}',
    "trailing comma in the object": '{"a": [[[1, 0]]],}',
    "unclosed matrix": '{"a": [[[1, 0]]',
    "trailing data": '{"a": [[[1, 0]]]}]',
    "top-level array": "[[[1, 0]]]",
    "non-ASCII in a body": '{"a": [[[1, 0\u00a0]]]}',
    "deep nesting": '{"a":' * 100_000,
}


def test_parse_sidecar_reads_numbers_with_float_grammar():
    # spellings JSON forbids, each with one unambiguous value; "-0" keeps its sign
    back = parse_sidecar('{"a": [[[+1, 01], [.5, 1.], [-0, 1E+2]]]}')["a"]
    assert back.tobytes() == np.array([[1 + 1j, 0.5 + 1j, complex(-0.0, 100.0)]]).tobytes()


@pytest.mark.parametrize("text", MALFORMED_SIDECARS.values(), ids=MALFORMED_SIDECARS)
def test_parse_sidecar_refuses_malformed_matrix(text):
    with pytest.raises(CircuitError):
        parse_sidecar(text)


@pytest.mark.parametrize("chunk", range(1, 8))
@pytest.mark.parametrize("text", MALFORMED_SIDECARS.values(), ids=MALFORMED_SIDECARS)
def test_parse_sidecar_refuses_malformed_matrix_in_tiny_chunks(text, chunk, monkeypatch):
    monkeypatch.setattr(circuit, "_CHUNK", chunk)
    with pytest.raises(CircuitError):
        parse_sidecar(text)


@pytest.mark.parametrize(
    "shape,at,chunk",
    [((2, 2), 100, None), ((64, 64), 150_000, None), ((2, 2), 100, 1), ((8, 8), 2000, 7)],
    ids=["first body", "past the first chunk", "first body in 1-char chunks", "7-char chunks"],
)
def test_parse_sidecar_names_a_non_ascii_char_by_its_index(shape, at, chunk, monkeypatch):
    if chunk:
        monkeypatch.setattr(circuit, "_CHUNK", chunk)
    rng = np.random.default_rng(5)
    text = sidecar_of({"m": rng.standard_normal(shape) + 1j * rng.standard_normal(shape)})
    i = text.index(" ", at)  # indentation inside the body; 150_000 is past the first chunk
    message = f"malformed sidecar: non-ASCII character 'é' at char {i}$"
    with pytest.raises(CircuitError, match=message):
        parse_sidecar(text[:i] + "é" + text[i + 1 :])


@pytest.mark.parametrize("rows_per_block", [1, 2, 16])
@pytest.mark.parametrize("shape", [(1, 1), (1, 3), (3, 1), (2, 2), (4, 7), (16, 16)])
def test_skeleton_is_the_template_without_numbers_and_whitespace(shape, rows_per_block, monkeypatch):
    # the whole-matrix template as one block, and the writer's text of an
    # all-written matrix cut into blocks of rows_per_block rows
    r, c = shape
    template = "[" + circuit._rows(np.ones((r, c, 2), bool)) + "]"
    stripped = template.replace("%r", "").encode().translate(None, b" \t\n\r")
    assert circuit._skeleton(r, c) == stripped
    monkeypatch.setattr(circuit, "_BLOCK_PAIRS", rows_per_block * c)
    text = sidecar_of({"m": np.full(shape, 1 + 1j)})
    body = text[text.index("[") : text.rindex("]") + 1].encode()
    assert circuit._skeleton(r, c) == body.translate(None, circuit._NUMBER + b" \t\n\r")


def svd_sigma_block(d: int) -> np.ndarray:
    """The diagonal 2d x 2d u_sigma of an svd dilation, as a sidecar ships it."""
    m = np.random.default_rng(d).normal(size=(d, d))
    return svd_dilation(m / np.linalg.norm(m, 2))[1]


CODEC_BLOCKS = pytest.mark.parametrize(
    "matrix",
    [
        np.random.default_rng(5).normal(size=(256, 256, 2)).view(complex)[..., 0],
        svd_sigma_block(128),
    ],
    ids=["dense", "svd sigma"],
)


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@CODEC_BLOCKS
def test_sidecar_writer_holds_the_text_and_its_pieces(matrix):
    # the text, the block strings it is joined from and one block's numbers: about 2.1x
    text, peak = traced_peak(sidecar_of, {"m": matrix})
    assert peak <= 2.5 * len(text)


@CODEC_BLOCKS
def test_sidecar_reader_holds_the_values_and_one_chunk(matrix):
    # the values array, the skeleton and one chunk's bytes and tokens
    text = sidecar_of({"m": matrix})
    back, peak = traced_peak(parse_sidecar, text)
    assert back["m"].tobytes() == matrix.tobytes()
    assert peak <= back["m"].nbytes + 2 * 2**20


# --- native text round trip ----------------------------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)
NAMES = st.text("abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1, max_size=8)
DRAWN_KINDS = ("H", "T", "TDG", "RZ", "RY", "CNOT", "OPAQUE", "CSWAP", "POSTSELECT", "TRACE_OUT")


@st.composite
def native_circuits(draw):
    n = draw(st.integers(3, 8))
    qubit = st.integers(0, n - 1)

    def wires(k):
        return draw(st.lists(qubit, min_size=k, max_size=k, unique=True))

    c = Circuit(num_qubits=n)
    for kind in draw(st.lists(st.sampled_from(DRAWN_KINDS), max_size=12)):
        if kind in ("H", "T", "TDG"):
            g = {"H": h, "T": t, "TDG": tdg}[kind](wires(1)[0])
        elif kind in ("RZ", "RY"):
            g = (rz if kind == "RZ" else ry)(wires(1)[0], draw(FINITE))
        elif kind == "CNOT":
            g = cnot(*wires(2))
        elif kind == "OPAQUE":
            g = opaque_unitary(
                wires(draw(st.integers(1, n))),
                draw(NAMES),
                depth_weight=draw(st.floats(1.0, 1e9)),
                cnot_weight=draw(st.floats(0.0, 1e9)),
            )
        elif kind == "CSWAP":
            n_t = draw(st.integers(1, (n - 1) // 2))
            q = wires(1 + 2 * n_t)
            g = multi_target_cswap_gate(q[0], zip(q[1 : 1 + n_t], q[1 + n_t :]))
        elif kind == "POSTSELECT":
            g = postselect(wires(1)[0], draw(st.integers(0, 1)))
        else:
            g = trace_out(wires(draw(st.integers(1, n))))
        c.add(g)
    registers = st.lists(qubit, max_size=n, unique=True).map(tuple)
    c.registers = draw(st.dictionaries(NAMES, registers, max_size=3))
    inputs = st.lists(st.lists(qubit, min_size=1, max_size=n, unique=True).map(tuple), max_size=3)
    c.input_registers = tuple(draw(inputs))
    return c


@settings(deadline=None, max_examples=200)
@given(native_circuits())
def test_native_text_round_trips(c):
    text = export_circuit(c)
    back = parse_circuit(text)
    assert back.num_qubits == c.num_qubits
    assert back.gates == c.gates
    assert back.registers == c.registers
    assert back.input_registers == c.input_registers
    assert export_circuit(back) == text
