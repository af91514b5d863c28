import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oqsynth.channel import (
    apply_channel,
    fmo_kraus_set,
    kraus_to_json_dict,
    random_kraus_set,
    validate_cptp,
)
from oqsynth import circuit, cli, simulator
from oqsynth.cli import main
from oqsynth.circuit import parse_circuit, parse_sidecar


def write_kraus(path, kset):
    path.write_text(json.dumps(kraus_to_json_dict(kset)))
    return str(path)


def write_state(path, num_qubits, kind, data):
    path.write_text(json.dumps({"num_qubits": num_qubits, "kind": kind, "data": data}))
    return str(path)


def identity_set():
    return validate_cptp([np.eye(2, dtype=complex)])


class TestValidate:
    def test_identity_ok(self, tmp_path, capsys):
        path = write_kraus(tmp_path / "k.json", identity_set())
        assert main(["validate", path]) == 0
        assert "valid CPTP set: m=1 dim=2" in capsys.readouterr().out

    def test_doubled_identity_fails(self, tmp_path):
        data = kraus_to_json_dict(identity_set())
        data["operators"] = data["operators"] * 2
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 1

    def test_truncated_json(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"dim": 2, "operators": [[[')
        assert main(["validate", str(path)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2

    def test_operator_smaller_than_dim(self, tmp_path, capsys):
        data = kraus_to_json_dict(identity_set())
        data["dim"] = 4
        path = tmp_path / "short.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 2
        assert "not (4, 4)" in capsys.readouterr().err

    def test_nan_entry_fails_closed(self, tmp_path, capsys):
        data = kraus_to_json_dict(identity_set())
        data["operators"][0][0][0][0] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert "valid CPTP" not in captured.out
        assert "finite" in captured.err


class TestSynth:
    def test_fmo_svd_metrics(self, tmp_path, capsys):
        path = write_kraus(tmp_path / "fmo.json", fmo_kraus_set())
        out = tmp_path / "circ.txt"
        mats = tmp_path / "mats.json"
        metrics = tmp_path / "metrics.json"
        rc = main(
            [
                "synth",
                path,
                "--method",
                "svd",
                "--out",
                str(out),
                "--matrices",
                str(mats),
                "--metrics",
                str(metrics),
            ]
        )
        assert rc == 0
        report = json.loads(metrics.read_text())
        assert report["success_probability"] == pytest.approx(0.125)
        circ = parse_circuit(out.read_text(), matrices=parse_sidecar(mats.read_text()))
        assert circ.num_qubits == report["qubit_count"]

    def test_stinespring_deterministic(self, tmp_path):
        path = write_kraus(tmp_path / "k.json", random_kraus_set(1, 4, seed=1))
        metrics = tmp_path / "m.json"
        rc = main(
            [
                "synth",
                path,
                "--method",
                "stinespring",
                "--out",
                str(tmp_path / "c.txt"),
                "--metrics",
                str(metrics),
            ]
        )
        assert rc == 0
        assert json.loads(metrics.read_text())["success_probability"] == 1.0

    def test_invalid_group_size(self, tmp_path):
        path = write_kraus(tmp_path / "k.json", random_kraus_set(1, 4, seed=2))
        rc = main(
            ["synth", path, "--method", "svd", "--group", "3", "--out", str(tmp_path / "c.txt")]
        )
        assert rc == 2

    def test_identical_invocations_byte_identical(self, tmp_path):
        path = write_kraus(tmp_path / "k.json", random_kraus_set(1, 2, seed=3))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.txt"
            main(["synth", path, "--method", "sznagy", "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


    def test_qasm_elementary_in_fanout_mode(self, tmp_path):
        k = write_kraus(tmp_path / "k.json", random_kraus_set(2, 4, seed=1))
        out = tmp_path / "c.qasm"
        argv = ["synth", k, "--method", "svd", "--group", "2", "--mode", "fanout"]
        assert main([*argv, "--format", "qasm-elementary", "--out", str(out)]) == 0
        assert "// postselect q[3] -> 0\n" in out.read_text()

    @pytest.mark.parametrize("matrices", [[], ["--matrices", "m.json"]])
    def test_qasm_elementary_refuses_shared_mode(self, tmp_path, capsys, matrices, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_kraus(tmp_path / "k.json", random_kraus_set(2, 4, seed=1))
        argv = ["synth", "k.json", "--method", "svd", "--group", "2", "--format", "qasm-elementary"]
        assert main([*argv, "--out", "c.qasm", *matrices]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "MULTI_TARGET_CSWAP has no elementary QASM form" in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["k.json"]


class TestSimulate:
    def test_identity_channel(self, tmp_path, capsys):
        kpath = write_kraus(tmp_path / "k.json", identity_set())
        spath = write_state(tmp_path / "s.json", 1, "pure", [[1.0, 0.0], [0.0, 0.0]])
        assert main(["simulate", kpath, spath, "--method", "svd"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_amplitude_damping_svd(self, tmp_path):
        m0 = np.diag([1.0, np.sqrt(0.7)]).astype(complex)
        m1 = np.array([[0, np.sqrt(0.3)], [0, 0]], dtype=complex)
        kpath = write_kraus(tmp_path / "k.json", validate_cptp([m0, m1]))
        spath = write_state(
            tmp_path / "s.json",
            1,
            "density",
            [[[0.5, 0.0], [0.0, 0.2]], [[0.0, -0.2], [0.5, 0.0]]],
        )
        assert main(["simulate", kpath, spath, "--method", "svd"]) == 0

    def test_wrong_dimension_state(self, tmp_path):
        kpath = write_kraus(tmp_path / "k.json", identity_set())
        spath = write_state(
            tmp_path / "s.json", 2, "pure", [[0.5, 0], [0.5, 0], [0.5, 0], [0.5, 0]]
        )
        assert main(["simulate", kpath, spath]) == 2

    @pytest.mark.parametrize(
        "kind,data,message",
        [
            ("mixed", [[1, 0], [0, 0]], "unknown state kind 'mixed'"),
            ("pure", [[[1, 0], [0, 0]], [[0, 0], [0, 0]]], "expected rows of [re, im] pairs"),
        ],
    )
    def test_state_kind_and_shape(self, tmp_path, capsys, kind, data, message):
        kpath = write_kraus(tmp_path / "k.json", identity_set())
        spath = write_state(tmp_path / "s.json", 1, kind, data)
        assert main(["simulate", kpath, spath]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err

    def test_zero_pure_state(self, tmp_path, capsys):
        kpath = write_kraus(tmp_path / "k.json", identity_set())
        spath = write_state(tmp_path / "zero.json", 1, "pure", [[0.0, 0.0], [0.0, 0.0]])
        assert main(["simulate", kpath, spath, "--method", "sznagy"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "norm" in err


class TestFmo:
    def test_default_run(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["fmo", "--steps", "5", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "step,time_fs,p_site0,p_site1,p_site2,p_site3,p_site4,trace"
        assert len(lines) == 7
        last = lines[-1].split(",")
        assert abs(float(last[-1]) - 1.0) <= 1e-10

    def test_without_out_prints_the_csv(self, capsys):
        assert main(["fmo", "--steps", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "step,time_fs,p_site0,p_site1,p_site2,p_site3,p_site4,trace"
        assert [ln.split(",")[0] for ln in lines[1:4]] == ["0", "1", "2"]
        assert len(lines) == 5 and lines[4].startswith("final populations: ")

    def test_zero_rates_constant_populations(self, tmp_path):
        out = tmp_path / "traj.csv"
        rc = main(
            [
                "fmo",
                "--steps",
                "3",
                "--alpha",
                "0",
                "--beta",
                "0",
                "--gamma",
                "0",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
        first = rows[0][2:7]
        for row in rows[1:]:
            assert row[2:7] == first

    def test_sink_non_decreasing(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["fmo", "--steps", "50", "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
        sink = [float(r[6]) for r in rows]
        assert all(b >= a - 1e-14 for a, b in zip(sink, sink[1:]))

    def test_custom_initial_state(self, tmp_path):
        # start on site 3: relaxation feeds the sink visibly
        amps = [[0.0, 0.0]] * 8
        amps[3] = [1.0, 0.0]
        spath = write_state(tmp_path / "init.json", 3, "pure", amps)
        out = tmp_path / "traj.csv"
        assert main(["fmo", "--steps", "10", "--init", spath, "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
        assert float(rows[0][6]) == 0.0
        assert float(rows[-1][6]) > 0.0


class TestCost:
    def test_sweep_rows(self, tmp_path, capsys):
        out = tmp_path / "costs.csv"
        rc = main(
            ["cost", "--n", "2", "--m", "16", "--method", "sznagy", "--sweep-groups", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 6  # header + l in {1,2,4,8,16}
        cnots = [float(ln.split(",")[6]) for ln in lines[1:]]
        depths = [float(ln.split(",")[5]) for ln in lines[1:]]
        assert all(b <= a + 1e-9 for a, b in zip(cnots, cnots[1:]))
        assert all(b >= a - 1e-9 for a, b in zip(depths, depths[1:]))
        assert "best_cnot_per_depth_at_l=16" in capsys.readouterr().out

    def test_pads_non_power_of_two(self, tmp_path, capsys):
        rc = main(["cost", "--n", "1", "--m", "3", "--method", "svd"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "padded m=4" in err

    def test_single_row(self, capsys):
        rc = main(["cost", "--n", "2", "--m", "16", "--method", "svd", "--group", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("method,n,m,l,mode,depth,cnot,qubits,p_success,shots")
        assert "svd,2,16,2,shared," in out

    def test_rejects_zero_operators(self, capsys):
        assert main(["cost", "--n", "1", "--m", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 0 has no power-of-two padding; need at least 1\n"

    def test_sweep_rejects_stinespring(self):
        assert main(["cost", "--n", "1", "--m", "4", "--method", "stinespring", "--sweep-groups"]) == 2

    @pytest.mark.parametrize("n", ["0", "-1"])
    @pytest.mark.parametrize("sweep", [[], ["--sweep-groups"]])
    def test_rejects_system_without_qubits(self, n, sweep, capsys):
        assert main(["cost", "--n", n, "--m", "4", *sweep]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: system qubit count n = {n} must be at least 1\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n", "2000", "--method", "sznagy"],
            ["--n", "2000", "--method", "stinespring"],
            ["--n", "600", "--method", "svd"],
            ["--n", "600", "--method", "svd", "--sweep-groups"],
        ],
    )
    def test_figures_beyond_the_float_range_are_one_line(self, argv, capsys):
        assert main(["cost", "--m", "4", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        n = argv[1]
        assert captured.err == f"error: the cost figures of n = {n}, m = 4, l = 1 overflow a float\n"


PADDING_WARNING = "warning: padding operator count from 3 to 4 with zero blocks\n"


@pytest.mark.parametrize("method,p", [("stinespring", 1.0), ("sznagy", 0.25), ("svd", 0.25)])
def test_synth_pads_every_method_once(tmp_path, capsys, method, p):
    # the shipped text and sidecar, read back and run, reproduce the
    # unpadded channel
    kset = random_kraus_set(1, 3, seed=4)
    path = write_kraus(tmp_path / "k.json", kset)
    out, mats = tmp_path / "c.txt", tmp_path / "m.json"
    rc = main(["synth", path, "--method", method, "--out", str(out), "--matrices", str(mats)])
    assert rc == 0
    assert capsys.readouterr().err == PADDING_WARNING
    circ = parse_circuit(out.read_text(), matrices=parse_sidecar(mats.read_text()))
    rho = np.diag([0.75, 0.25]).astype(complex)
    got, prob = simulator.run(circ, rho)
    assert np.abs(got.matrix - apply_channel(kset, rho)).max() <= 1e-9
    assert abs(prob - p) <= 1e-12


@pytest.mark.parametrize("method", ["stinespring", "sznagy", "svd"])
def test_simulate_pads_every_method_once(tmp_path, capsys, method):
    kpath = write_kraus(tmp_path / "k.json", random_kraus_set(1, 3, seed=4))
    spath = write_state(tmp_path / "s.json", 1, "pure", [[0.6, 0.0], [0.0, 0.8]])
    assert main(["simulate", kpath, spath, "--method", method]) == 0
    captured = capsys.readouterr()
    assert captured.err == PADDING_WARNING
    assert "PASS" in captured.out


ONE_LINE_FAILURES = [
    # a Kraus operator of spectral norm 2 has no contraction dilation
    "synth {norm2} --no-validate --method svd --out {d}/c.txt",
    "synth {norm2} --no-validate --method sznagy --out {d}/c.txt",
    "simulate {norm2} {state} --no-validate --method svd",
    "simulate {norm2} {state} --no-validate --method sznagy",
    "synth {ident} --out {d}/missing/c.txt",
    "synth {ident} --out {d}/c.txt --metrics {d}/missing/r.json",
]


@pytest.mark.parametrize("cmd", ONE_LINE_FAILURES)
def test_input_failures_are_one_line(tmp_path, capsys, cmd):
    norm2 = tmp_path / "norm2.json"
    norm2.write_text(json.dumps({"dim": 2, "operators": [[[[2, 0], [0, 0]], [[0, 0], [2, 0]]]]}))
    files = {
        "d": tmp_path,
        "norm2": norm2,
        "ident": write_kraus(tmp_path / "k.json", identity_set()),
        "state": write_state(tmp_path / "s.json", 1, "pure", [[1, 0], [0, 0]]),
    }
    assert main(cmd.format(**files).split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# entries numpy would read as numbers: the string "1", false and true
NOT_NUMBERS = '{"dim": 2, "operators": [[[["1", 0], [0, false]], [[0, 0], [true, 0]]]]}'
NOT_NUMBER_COMMANDS = [
    "validate {bad}",
    "synth {bad} --out {d}/c.txt",
    "simulate {bad} {state} --method sznagy",
    "simulate {ident} {bad_pure} --method sznagy",
    "simulate {ident} {bad_density} --method sznagy",
]


@pytest.mark.parametrize("cmd", NOT_NUMBER_COMMANDS)
def test_strings_and_bools_are_not_numbers(tmp_path, capsys, cmd):
    bad = tmp_path / "bad.json"
    bad.write_text(NOT_NUMBERS)
    files = {
        "d": tmp_path,
        "bad": bad,
        "ident": write_kraus(tmp_path / "k.json", identity_set()),
        "state": write_state(tmp_path / "s.json", 1, "pure", [[1, 0], [0, 0]]),
        "bad_pure": write_state(tmp_path / "p.json", 1, "pure", [["1", 0], [0, 0]]),
        "bad_density": write_state(
            tmp_path / "r.json", 1, "density", [[[1, 0], [0, 0]], [[0, 0], [False, 0]]]
        ),
    }
    assert main(cmd.format(**files).split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "is not a number" in err
    assert not (tmp_path / "c.txt").exists()


@pytest.mark.parametrize("cmd", ["validate {deep}", "simulate {ident} {deep}"])
def test_deeply_nested_json_is_one_line(tmp_path, capsys, cmd):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    ident = write_kraus(tmp_path / "k.json", identity_set())
    assert main(cmd.format(deep=deep, ident=ident).split()) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {deep}: ") and err.count("\n") == 1


@pytest.mark.parametrize("cmd", ["validate {big}", "simulate {ident} {big_state}"])
def test_int_beyond_float_range_is_one_line(tmp_path, capsys, cmd):
    huge = 10**400
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"dim": 2, "operators": [[[[huge, 0], [0, 0]], [[0, 0], [1, 0]]]]}))
    files = {
        "big": big,
        "ident": write_kraus(tmp_path / "k.json", identity_set()),
        "big_state": write_state(tmp_path / "s.json", 1, "pure", [[huge, 0], [0, 0]]),
    }
    assert main(cmd.format(**files).split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "out of range" in err


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
def test_simulate_out_of_memory_is_one_line(tmp_path):
    # n=2, m=16, l=4 fanout needs a 15-qubit (16 GiB) density; the 12-qubit
    # factor limit refuses it before allocating (the 2 GiB address-space
    # limit keeps a missed check from taking the host's memory), and the
    # CLI must say so in one line with exit code 1
    kpath = write_kraus(tmp_path / "k.json", random_kraus_set(2, 16, seed=1))
    spath = write_state(tmp_path / "s.json", 2, "pure", [[0.5, 0.0]] * 4)
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from oqsynth.cli import console_main\n"
        "console_main()\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    args = ["simulate", kpath, spath, "--method", "svd", "--group", "4", "--mode", "fanout"]
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")
    assert "12 live qubits" in proc.stderr
    assert "Traceback" not in proc.stderr + proc.stdout


def test_memory_error_exits_semantic(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 16.0 GiB")

    monkeypatch.setattr(simulator, "_plan", exhausted)
    kpath = write_kraus(tmp_path / "k.json", identity_set())
    spath = write_state(tmp_path / "s.json", 1, "pure", [[1.0, 0.0], [0.0, 0.0]])
    assert main(["simulate", kpath, spath, "--method", "sznagy"]) == 1
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 16.0 GiB\n"


def test_simulation_error_exits_semantic(tmp_path, capsys, monkeypatch):
    def zero_branch(*args, **kwargs):
        raise simulator.ZeroProbabilityBranch("post-selecting qubit 2 on 0 has probability 0")

    monkeypatch.setattr(simulator, "_plan", zero_branch)
    kpath = write_kraus(tmp_path / "k.json", identity_set())
    spath = write_state(tmp_path / "s.json", 1, "pure", [[1.0, 0.0], [0.0, 0.0]])
    assert main(["simulate", kpath, spath, "--method", "sznagy"]) == 1
    err = capsys.readouterr().err
    assert err == "error: post-selecting qubit 2 on 0 has probability 0\n"


def test_synth_refuses_non_finite_matrix(tmp_path, capsys, monkeypatch):
    real = circuit.assemble_simulation_circuit

    def with_nan(*args, **kwargs):
        circ = real(*args, **kwargs)
        circ.matrices["branch0_sznagy"][0, 0] = np.nan
        return circ

    monkeypatch.setattr(circuit, "assemble_simulation_circuit", with_nan)
    path = write_kraus(tmp_path / "k.json", random_kraus_set(1, 2, seed=3))
    out, mats = tmp_path / "c.txt", tmp_path / "m.json"
    rc = main(["synth", path, "--method", "sznagy", "--out", str(out), "--matrices", str(mats)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "non-finite" in err
    assert not out.exists() and not mats.exists()


@pytest.mark.parametrize("write_slice", [7, cli._WRITE_SLICE])
def test_synth_writes_each_text_whole_in_slices(tmp_path, monkeypatch, write_slice):
    monkeypatch.setattr(cli, "_WRITE_SLICE", write_slice)
    kset = random_kraus_set(2, 4, seed=5)
    path = write_kraus(tmp_path / "k.json", kset)
    out, mats = tmp_path / "c.txt", tmp_path / "m.json"
    argv = ["synth", path, "--method", "svd", "--group", "2", "--out", str(out), "--matrices", str(mats)]
    assert main(argv) == 0
    circ = circuit.assemble_simulation_circuit(kset, "svd", group_size=2)
    assert mats.read_bytes() == circuit.opaque_sidecar(circ).encode()
    assert out.read_bytes() == circuit.export_circuit(circ).encode()


@pytest.mark.parametrize("flag", ["--out", "--matrices", "--metrics"])
def test_synth_failed_write_leaves_no_artefact(tmp_path, capsys, flag):
    # one unwritable path refuses the run: none of its files stays behind
    path = write_kraus(tmp_path / "k.json", random_kraus_set(1, 2, seed=3))
    argv = ["synth", path, "--method", "sznagy"]
    for name in ("--out", "--matrices", "--metrics"):
        argv += [name, str((tmp_path / "missing" if name == flag else tmp_path) / name[2:])]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k.json"]


@pytest.mark.parametrize("alias", ["same path", "symlink", "hard link"])
@pytest.mark.parametrize("pair", [("--out", "--matrices"), ("--out", "--metrics"),
                                  ("--matrices", "--metrics")])
def test_synth_refuses_two_outputs_in_one_file(tmp_path, capsys, pair, alias):
    # the later write would replace the earlier one, also when the second path is a
    # symlink to the first (which need not exist yet) or a hard link to it: refused
    # before anything is written
    path = write_kraus(tmp_path / "k.json", random_kraus_set(1, 2, seed=3))
    second = "same.txt" if alias == "same path" else "link.txt"
    if alias == "symlink":
        (tmp_path / "link.txt").symlink_to(tmp_path / "same.txt")
    if alias == "hard link":
        (tmp_path / "same.txt").write_text("kept")
        os.link(tmp_path / "same.txt", tmp_path / "link.txt")
    before = sorted(p.name for p in tmp_path.iterdir())
    files = {pair[0]: "same.txt", pair[1]: second}
    argv = ["synth", path, "--method", "sznagy"]
    for name in ("--out", "--matrices", "--metrics"):
        argv += [name, str(tmp_path / files.get(name, name[2:]))]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith(f"name {tmp_path / second} more than once\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert not (tmp_path / "same.txt").exists() or (tmp_path / "same.txt").read_text() == "kept"


def test_simulate_reports_a_bad_state_before_a_bad_group(tmp_path, capsys):
    # the state file is checked when it is read, before the circuit is assembled,
    # so a trace-2 state names its trace and not the group size 3
    k = write_kraus(tmp_path / "k.json", random_kraus_set(1, 4, seed=1))
    s = write_state(tmp_path / "s.json", 1, "density", pairs(np.eye(2)))
    assert main(["simulate", k, s, "--group", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: input state has trace 2.0, not 1\n"


def test_synth_failed_write_keeps_paths_that_existed(tmp_path):
    # a path the run did not create (a user's file, a link such as /dev/stdout) is not removed
    path = write_kraus(tmp_path / "k.json", random_kraus_set(1, 2, seed=3))
    (tmp_path / "target.txt").write_text("")
    (tmp_path / "c.txt").symlink_to(tmp_path / "target.txt")
    out, missing = str(tmp_path / "c.txt"), str(tmp_path / "missing" / "m.json")
    assert main(["synth", path, "--out", out, "--matrices", missing]) == 2
    assert (tmp_path / "c.txt").is_symlink() and (tmp_path / "target.txt").exists()


DIM_ONE_COMMANDS = ["validate {k}"] + [
    f"{cmd} --method {method}"
    for cmd in ("synth {k} --out {d}/c.txt", "simulate {k} {s}")
    for method in ("stinespring", "sznagy", "svd")
]


@pytest.mark.parametrize("cmd", DIM_ONE_COMMANDS)
def test_kraus_set_without_qubits_is_refused(tmp_path, capsys, cmd):
    k = tmp_path / "k.json"
    k.write_text(json.dumps({"dim": 1, "operators": [[[[1, 0]]]]}))
    s = write_state(tmp_path / "s.json", 0, "pure", [[1, 0]])
    assert main(cmd.format(k=k, s=s, d=tmp_path).split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: dimension 1 has no qubit; a Kraus set needs dim >= 2\n"
    assert not (tmp_path / "c.txt").exists()


TOL_COMMANDS = ["validate {k}", "synth {k} --out {d}/c.txt", "simulate {k} {s}"]
TOL_ERRORS = {
    t: f"tolerance must be finite and >= 0, got {t!r}" for t in ("-1", "nan", "inf", "-inf")
}
TOL_ERRORS["x"] = "invalid tolerance value: 'x'"


@pytest.mark.parametrize("tol", list(TOL_ERRORS))
@pytest.mark.parametrize("cmd", TOL_COMMANDS)
def test_tol_must_be_finite_and_non_negative(tmp_path, capsys, cmd, tol):
    k = write_kraus(tmp_path / "k.json", identity_set())
    s = write_state(tmp_path / "s.json", 1, "pure", [[1, 0], [0, 0]])
    with pytest.raises(SystemExit) as exc:
        main(cmd.format(k=k, s=s, d=tmp_path).split() + [f"--tol={tol}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(f"error: argument --tol: {TOL_ERRORS[tol]}")


@pytest.mark.parametrize("cmd", TOL_COMMANDS[:2])
def test_zero_tol_is_accepted(tmp_path, cmd):
    k = write_kraus(tmp_path / "k.json", identity_set())
    s = write_state(tmp_path / "s.json", 1, "pure", [[1, 0], [0, 0]])
    assert main(cmd.format(k=k, s=s, d=tmp_path).split() + ["--tol", "0"]) == 0


@pytest.mark.parametrize("argv", [["--steps", "-1"], ["--steps", "-3"], ["--alpha", "nan"]])
def test_fmo_bad_input_is_one_line(argv, capsys):
    assert main(["fmo", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("steps" if argv[0] == "--steps" else "alpha") in err


# sizes that int() would read as 2 or 1
@pytest.mark.parametrize("dim", [2.9, "2", True])
@pytest.mark.parametrize("cmd", ["validate {k}", "simulate {k} {s} --method sznagy"])
def test_kraus_dim_must_be_an_int(tmp_path, capsys, cmd, dim):
    data = kraus_to_json_dict(identity_set())
    data["dim"] = dim
    k = tmp_path / "k.json"
    k.write_text(json.dumps(data))
    s = write_state(tmp_path / "s.json", 1, "pure", [[1, 0], [0, 0]])
    assert main(cmd.format(k=k, s=s).split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: malformed Kraus JSON: dim {dim!r} is not an int\n"


@pytest.mark.parametrize("num_qubits", [1.5, "1", True])
def test_state_num_qubits_must_be_an_int(tmp_path, capsys, num_qubits):
    k = write_kraus(tmp_path / "k.json", identity_set())
    s = write_state(tmp_path / "s.json", num_qubits, "pure", [[1, 0], [0, 0]])
    assert main(["simulate", k, s, "--method", "sznagy"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: malformed state JSON: num_qubits {num_qubits!r} is not an int\n"


@pytest.mark.parametrize("num_qubits", [10000000, -1])
def test_state_num_qubits_out_of_range(tmp_path, capsys, num_qubits):
    # 2**10000000 failed in int-to-str conversion; -1 asked for dimension 0.5
    k = write_kraus(tmp_path / "k.json", identity_set())
    s = write_state(tmp_path / "s.json", num_qubits, "pure", [[1, 0], [0, 0]])
    assert main(["simulate", k, s, "--method", "sznagy"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: num_qubits {num_qubits} is outside 1..12\n"


def pairs(matrix):
    return np.stack([np.real(matrix), np.imag(matrix)], axis=-1).tolist()


NOT_DENSITIES = [  # (1-qubit density data, the property it breaks)
    (np.eye(2), "trace 2.0"),
    (np.array([[0.5, 0], [0.3, 0.5]]), "not Hermitian"),
    (np.diag([1.0001, -0.0001]), "not positive semidefinite"),
    (np.diag([0.75, 0.25]) * (1 + 1e-6), "trace"),
    (np.diag([0.75, 0.25]) * (1 - 1e-6), "trace"),
    (np.diag([0.75, 0.25]) + 1e-6 * np.array([[0, 1], [-1, 0]]), "not Hermitian"),
    (np.diag([1 + 1e-6, -1e-6]), "not positive semidefinite"),
]


@pytest.mark.parametrize("method", ["stinespring", "sznagy", "svd"])
@pytest.mark.parametrize("state,prop", NOT_DENSITIES)
def test_simulate_refuses_what_is_not_a_density(tmp_path, capsys, method, state, prop):
    # a correct circuit on a trace-2 state exited 1 under svd and 0 under stinespring
    k = write_kraus(tmp_path / "k.json", random_kraus_set(1, 4, seed=1))
    s = write_state(tmp_path / "s.json", 1, "density", pairs(state))
    assert main(["simulate", k, s, "--method", method]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert prop in captured.err and "malformed state JSON" not in captured.err


@pytest.mark.parametrize("field", ["output", "probability"])
def test_simulate_nan_fails_closed(tmp_path, capsys, monkeypatch, field):
    real = simulator._plan

    def with_nan(*structure):
        execute = real(*structure)

        def patched(*args):
            out, p = execute(*args)
            if field == "output":
                return simulator.DensityMatrix(np.full_like(out.matrix, np.nan), out.num_qubits), p
            return out, np.nan

        return patched

    monkeypatch.setattr(simulator, "_plan", with_nan)
    k = write_kraus(tmp_path / "k.json", random_kraus_set(1, 4, seed=1))
    s = write_state(tmp_path / "s.json", 1, "pure", [[0.6, 0.0], [0.0, 0.8]])
    assert main(["simulate", k, s, "--method", "svd"]) == 1
    assert capsys.readouterr().out.endswith("FAIL: circuit output disagrees with the channel oracle\n")


@pytest.mark.parametrize(
    "num_qubits,data,message",
    [(1, [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]], "FMO state must be 8x8"),
     (3, pairs(np.eye(8) / 4), "trace 2.0")],
)
def test_fmo_init_must_be_a_3_qubit_density(tmp_path, capsys, num_qubits, data, message):
    s = write_state(tmp_path / "init.json", num_qubits, "density", data)
    assert main(["fmo", "--steps", "2", "--init", s]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err



# --- the one parser per process ------------------------------------------------


@pytest.fixture
def fresh_parser():
    """Start from an empty parser cache, and leave one behind for later tests."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_main_builds_the_parser_once(tmp_path, capsys, monkeypatch, fresh_parser):
    built = []
    real = cli.build_parser

    def counted():
        built.append(real())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counted)
    k = write_kraus(tmp_path / "k.json", identity_set())
    assert main(["validate", k]) == 0
    with pytest.raises(SystemExit):
        main(["validate"])
    assert main(["cost", "--n", "1", "--m", "2"]) == 0
    assert main(["synth", k, "--method", "sznagy", "--out", str(tmp_path / "c.txt")]) == 0
    assert len(built) == 1


def test_tol_of_one_call_does_not_reach_the_next(tmp_path, capsys, fresh_parser):
    # deviation 2e-6: inside --tol 1e-3, outside the default 1e-9
    ops = [[[[(1 + 2e-6) ** 0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [(1 + 2e-6) ** 0.5, 0.0]]]]
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"dim": 2, "operators": ops}))
    assert [main(["validate", str(path), *tol]) for tol in ([], ["--tol", "1e-3"], [])] == [1, 0, 1]
    verdicts = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    assert verdicts == ["NOT trace preserving", "valid CPTP set", "NOT trace preserving"]


@pytest.mark.parametrize("bad", [[], ["synth"], ["cost", "--n", "x", "--m", "2"]])
def test_usage_error_leaves_the_next_call_clean(bad, capsys, fresh_parser):
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: oqsynth" + (f" {bad[0]}" if bad else ""))
    assert main(["cost", "--n", "1", "--m", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.count("\n") == 2  # CSV header and one row


def help_text(argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", [[], ["validate"], ["synth"], ["simulate"], ["fmo"], ["cost"]])
def test_help_is_the_same_on_a_later_call(command, capsys, fresh_parser):
    first = help_text(command, capsys)
    assert first.startswith("usage: oqsynth")
    for other in ([], ["synth"], ["cost"]):
        help_text(other, capsys)
    assert help_text(command, capsys) == first


def test_build_parser_returns_a_new_parser():
    assert cli.build_parser() is not cli.build_parser()
