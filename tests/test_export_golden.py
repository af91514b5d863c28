"""Golden native-text exports of assembled circuits and standalone mixers.

The native text carries gate structure and cost weights only (dense matrices
travel in the sidecar), so it is platform-stable. The digests pin the exact
gate order and ancilla numbering of the CSWAP mixing tree. To inspect a
mismatch, print ``export_circuit(...)`` for the failing case and diff it
against the output of a known-good revision.

The sidecar digests pin the matrix codec's exact bytes. They also depend on
the dilations' LAPACK results, so a mismatch on another numpy/BLAS build
while the sidecar's json-equality tests in ``test_circuit.py`` pass points
at the linear algebra, not at the codec.
"""

import hashlib

import pytest

from oqsynth.channel import random_kraus_set
from oqsynth.circuit import (
    assemble_simulation_circuit,
    build_mixer,
    export_circuit,
    opaque_sidecar,
)

ASSEMBLED = {
    ("sznagy", 1, "shared"): "330442398fa9f3504d3b62c6cca0ed27d426dd9e08e93bded0607c46065c6f75",
    ("sznagy", 1, "fanout"): "44fe546a3133117ddeb4e78ce316336f701cd78e7c9e9e82630e438260c5721f",
    ("sznagy", 2, "shared"): "40f0e305f6e62c869cb3fd4aef50aa04ab4e4f32a00038e18fca3bd9f6eb9f97",
    ("sznagy", 2, "fanout"): "63a33b9d289295647e5d7abd47003852f8eef2da56c0c7b928b48cb0e0da7aa8",
    ("svd", 1, "shared"): "24a2b098fbe674622bee2de10c95ac4056ce92c7c97bfe81a26d23a481155d9d",
    ("svd", 1, "fanout"): "a88e893ce35929d6d352f2279198040693cbb3a0b325fe635aafabba68774522",
    ("svd", 2, "shared"): "54d4a09f18fce60d4b7cff0e4e24aff5fc90d37f62026c17d6b06bafb2b85f5d",
    ("svd", 2, "fanout"): "2b7956eb9f7453b0b3f1342e52ca5fcc83ab8e708b79139ce1be2439ea85e084",
    # a middle group size: two branches of four operators each
    ("sznagy", 4, "shared"): "410b53bd200e791604ee9ab8e21393b5c21344e59fa1086fa2f358200631910d",
    ("sznagy", 4, "fanout"): "f87b271bea43e76c6497d119ba8da432a4273a6337241bbb8482e8e6ad90c113",
    ("svd", 4, "shared"): "1c519b2d30d8805bb83ab73c7ab7e70697526cb5400f5f2e33c6a8a260efd41e",
    ("svd", 4, "fanout"): "8aed33549ca70e70f977e0cbe3be90fa7bc02cf16ba030929c1c07d1a2411ead",
}

SIDECARS = {
    ("stinespring", 1): "e361600f63075d9d5a23b264667068158fc286e982d58507dae12b3d00b52909",
    ("sznagy", 1): "e61d0d08dbbfb02f8f8649663d2e6febdf6ba6e1bfa887b2e38a5f8cee3f99ab",
    ("sznagy", 2): "9ef6445e2a9f3b8208904c34415a02f277915de2fbd7d247ab2fbb29183b2f54",
    ("svd", 1): "01af6e01ac1124d4a2887f7dd19fcc51e045bf7aa7d7f5e5870f8681129466cf",
    ("svd", 2): "5219ccf4e4eadbd2279ba73acde65b0cfe026669db97c991d6774833dd40c998",
    ("sznagy", 4): "7d93b298e927fa443a36c31f1057659ac0be67ad4c9ebf36e394e0abea348663",
    ("svd", 4): "6a501f30f7aa1ab5df62fbd7bfe41edc29784c00f5ee5caf34d74df1a2d5af7f",
    # l = m: one branch, the shapes with the most exact-zero pairs
    ("sznagy", 8): "8202605ed2102fa9a8cfc6a8f9757595db2f4530c0b4bb64b01f3508e7713417",
    ("svd", 8): "9190a66c10ceaa30aa7be78143bf68d1cc2b319d7744f756fb5380c5689ea416",
}

MIXERS = {
    "shared": "bde00007f115f8059690b177ea572930a3a8ee6e03562227a3cec1fcc0982954",
    "fanout": "e76e081a29844ea1add263a1ebec2ec20d7b79b12f255eacf0eb6135627d63e4",
}

WEIGHTED_MIXER = """\
CIRCUIT num_qubits=11
REGISTER mixer_anc q8 q9 q10
REGISTER reg0 q0 q1
REGISTER reg1 q2 q3
REGISTER reg2 q4 q5
REGISTER reg3 q6 q7
INPUT q0 q1
INPUT q2 q3
INPUT q4 q5
INPUT q6 q7
GATE RY q8 theta=2.0943951023931957
GATE MULTI_TARGET_CSWAP q8 q0 q1 q2 q3 # n_targets=2,depth_weight=20,cnot_weight=18
GATE RY q9 theta=1.5707963267948966
GATE MULTI_TARGET_CSWAP q9 q4 q5 q6 q7 # n_targets=2,depth_weight=20,cnot_weight=18
GATE RY q10 theta=1.5707963267948966
GATE MULTI_TARGET_CSWAP q10 q0 q1 q4 q5 # n_targets=2,depth_weight=20,cnot_weight=18
GATE TRACE_OUT q2 q3 q4 q5 q6 q7 q8 q9 q10
"""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("method,group,mode", sorted(ASSEMBLED))
def test_assembled_native_text(method, group, mode):
    kset = random_kraus_set(2, 8, seed=11)
    circ = assemble_simulation_circuit(kset, method, group_size=group, mode=mode)
    assert digest(export_circuit(circ)) == ASSEMBLED[(method, group, mode)]


@pytest.mark.parametrize("mode", sorted(MIXERS))
def test_uniform_mixer_native_text(mode):
    assert digest(export_circuit(build_mixer(4, 2, mode))) == MIXERS[mode]


def test_weighted_mixer_native_text():
    circ = build_mixer(4, 2, "shared", weights=[1, 3, 2, 2])
    assert export_circuit(circ) == WEIGHTED_MIXER


@pytest.mark.parametrize("method,group", sorted(SIDECARS))
def test_assembled_sidecar(method, group):
    kset = random_kraus_set(2, 8, seed=11)
    circ = assemble_simulation_circuit(kset, method, group_size=group)
    assert digest(opaque_sidecar(circ)) == SIDECARS[(method, group)]
