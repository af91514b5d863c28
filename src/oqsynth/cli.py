"""Command-line front end: validate, synth, simulate, fmo, cost.

Exit codes: 0 success, 1 semantic failure (trace preservation or
equivalence out of tolerance, or a circuit the simulator could not run:
a zero-probability post-selection, a factor wider than its limit, or
memory exhausted), 2 malformed input, a matrix no dilation accepts, or
an I/O error. All floating-point text output uses 17 significant digits
so values round-trip exactly.

The parser is built once per process, on the first :func:`main` call; later
calls only parse and dispatch, so a caller that runs many commands in one
process pays for each command and not for the argparse tree.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

from . import channel, circuit, costmodel, simulator
from .channel import ChannelError, NotTracePreservingError
from .costmodel import format_float
from .dilation import DilationError
from .linalg import LinalgError, pairs_to_matrix

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_INPUT = 2
# chars encoded per write, so no bytes copy of a whole file is made: beside the text, that
# copy would be the memory high-water of a synth that writes a multi-MB sidecar
_WRITE_SLICE = 1 << 16


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc


class _InputError(Exception):
    pass


def _load_state(path: str):
    """A state JSON file through :func:`simulator.density`."""
    data = _load_json(path)
    try:
        n = data["num_qubits"]
        if type(n) is not int:  # 1.5, "1" and true are not sizes
            raise TypeError(f"num_qubits {n!r} is not an int")
        kind = data["kind"]
        raw = data["data"]
        if kind not in ("pure", "density"):
            raise _InputError(f"unknown state kind {kind!r}")
        m = pairs_to_matrix(raw)
        if m.ndim != (1 if kind == "pure" else 2):  # a row of amplitudes or a grid
            raise ValueError(f"expected rows of [re, im] pairs, got shape {m.shape + (2,)}")
    except (KeyError, TypeError, ValueError) as exc:
        raise _InputError(f"malformed state JSON: {exc}") from exc
    return simulator.density(m, n)


def _write_files(*files: tuple[str, str]) -> None:
    """Write each (path, text) in turn, ``_WRITE_SLICE`` chars at a time; when one
    fails, remove the files this call created, so a refused run leaves nothing
    behind. A path that existed before (a file it overwrote, or /dev/stdout) is kept."""
    created = []
    try:
        for path, text in files:
            new = not os.path.lexists(path)
            with open(path, "w", encoding="utf-8") as fh:
                if new:
                    created.append(path)
                for start in range(0, len(text), _WRITE_SLICE):
                    fh.write(text[start : start + _WRITE_SLICE])
    except OSError as exc:
        for done in created:
            with contextlib.suppress(OSError):
                os.remove(done)
        raise _InputError(f"cannot write {path}: {exc}") from exc


def _assemble(args, kset: channel.KrausSet):
    """Pad the set to a power-of-two count, then lower it with the chosen options."""
    padded = channel.pad_to_power_of_two(kset)
    if padded is not kset:
        m, m_pad = kset.num_operators, padded.num_operators
        warning = f"warning: padding operator count from {m} to {m_pad} with zero blocks"
        print(warning, file=sys.stderr)
    return padded, circuit.assemble_simulation_circuit(
        padded, args.method, group_size=args.group, mode=args.mode
    )


def cmd_validate(args) -> int:
    try:
        kset = channel.kraus_from_json_dict(_load_json(args.kraus), tol=args.tol)
    except NotTracePreservingError as exc:
        print(f"NOT trace preserving: {exc}")
        return EXIT_SEMANTIC
    print(
        f"valid CPTP set: m={kset.num_operators} dim={kset.dim} "
        f"qubits={kset.num_qubits} deviation={format_float(kset.deviation)}"
        + ("" if kset.is_minimal else " (non-minimal: m > dim^2)")
    )
    return EXIT_OK


def cmd_synth(args) -> int:
    # a later write would replace an earlier one, also through a symlink or a hard
    # link; a device such as /dev/stdout may repeat
    outputs = [p for p in (args.out, args.matrices, args.metrics) if p]
    for i, path in enumerate(outputs):
        real, there = os.path.realpath(path), os.path.exists(path)
        aliases = [p for p in outputs[:i] if os.path.realpath(p) == real
                   or there and os.path.exists(p) and os.path.samefile(p, path)]
        if aliases and (os.path.isfile(path) or not there):
            path = os.path.abspath(path)
            raise _InputError(f"--out, --matrices and --metrics name {path} more than once")
    data = _load_json(args.kraus)
    kset = channel.kraus_from_json_dict(data, validate=not args.no_validate, tol=args.tol)
    kset, circ = _assemble(args, kset)
    report = costmodel.combined_cost(
        args.method,
        kset.num_qubits,
        kset.num_operators,
        group_size=args.group,
        mode=args.mode,
    )
    # encode every file before writing any: a matrix or gate the encoders refuse
    # leaves no artefact behind
    sidecar = circuit.opaque_sidecar(circ) if args.matrices else None
    files = [(args.out, circuit.export_circuit(circ, fmt=args.format))]
    if sidecar is not None:
        files.append((args.matrices, sidecar))
    if args.metrics:
        files.append((args.metrics, json.dumps(report.to_dict(), indent=1) + "\n"))
    _write_files(*files)
    print(
        f"synthesized {args.method} circuit: qubits={circ.num_qubits} "
        f"depth={format_float(circ.depth())} cnots={format_float(circ.cnot_count())} "
        f"p_success={format_float(report.success_probability)}"
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    kset = channel.kraus_from_json_dict(_load_json(args.kraus), validate=not args.no_validate)
    rho = _load_state(args.state)
    kset, circ = _assemble(args, kset)
    expected_p = costmodel.success_probability(args.method, kset.num_operators, args.group)
    report = simulator.check_circuit(kset, circ, expected_p, [rho], args.tol)
    (residual,), (p,) = report.residuals, report.probabilities
    print(f"residual={format_float(residual)}")
    print(f"success_probability={format_float(p)} expected={format_float(expected_p)}")
    if report.failed:
        print("FAIL: circuit output disagrees with the channel oracle")
        return EXIT_SEMANTIC
    print("PASS: circuit output matches the channel oracle")
    return EXIT_OK


def cmd_fmo(args) -> int:
    params = channel.FMOParams(
        alpha=args.alpha, beta=args.beta, gamma=args.gamma, dt=args.dt
    )
    rho0 = _load_state(args.init) if args.init else channel.fmo_initial_state()
    traj = channel.fmo_trajectory(params, rho0, args.steps)
    lines = ["step,time_fs,p_site0,p_site1,p_site2,p_site3,p_site4,trace"]
    for step, (t, pops, trace) in enumerate(zip(traj.times_fs, traj.populations, traj.traces)):
        lines.append(",".join([str(step), *map(format_float, [t, *pops, trace])]))
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_files((args.out, text))
        print(f"wrote {traj.steps + 1} rows to {args.out}")
    else:
        print(text, end="")
    final = traj.populations[-1]
    print(
        "final populations: "
        + " ".join(f"site{s}={format_float(final[s])}" for s in range(5))
        + f" trace={format_float(traj.traces[-1])}"
    )
    return EXIT_OK


def cmd_cost(args) -> int:
    m = args.m
    if not channel.is_power_of_two(m):
        m_pad = channel.next_power_of_two(m)
        print(
            f"warning: m={m} is not a power of two; using padded m={m_pad}",
            file=sys.stderr,
        )
        m = m_pad
    if args.sweep_groups:
        if args.method == "stinespring":
            raise _InputError("--sweep-groups applies to sznagy/svd only")
        reports = costmodel.sweep_group_sizes(args.method, args.n, m, mode=args.mode)
        flags = costmodel.tradeoff_flags(reports)
        for r in reports:
            if r.notes:
                print(f"l={r.group_size}: {r.notes}", file=sys.stderr)
        print(
            f"tradeoff: cnot_nonincreasing={flags['cnot_nonincreasing']} "
            f"depth_nondecreasing={flags['depth_nondecreasing']} "
            f"best_cnot_per_depth_at_l={reports[flags['ratio_argmin']].group_size}"
        )
    else:
        reports = [
            costmodel.combined_cost(
                args.method, args.n, m, group_size=args.group, mode=args.mode
            )
        ]
    text = costmodel.reports_to_csv(reports)
    if args.out:
        _write_files((args.out, text))
        print(f"wrote {len(reports)} rows to {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def tolerance(text: str) -> float:
    """The ``--tol`` type: a finite float >= 0, since NaN or inf would pass every check."""
    tol = float(text)
    if not 0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oqsynth",
        description="Compile Kraus channels into dilation-based simulation circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a Kraus JSON file for trace preservation")
    p.add_argument("kraus")
    p.add_argument("--tol", type=tolerance, default=1e-9)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("synth", help="synthesize a simulation circuit")
    p.add_argument("kraus")
    p.add_argument("--method", choices=costmodel.METHODS, default="svd")
    p.add_argument("--group", type=int, default=1)
    p.add_argument("--mode", choices=costmodel.ANCILLA_MODES, default="shared")
    p.add_argument("--format", choices=["native-text", "qasm-elementary"], default="native-text")
    p.add_argument("--tol", type=tolerance, default=1e-9)
    p.add_argument("--no-validate", action="store_true")
    p.add_argument("--out", default="circuit.txt")
    p.add_argument("--matrices", default=None, help="sidecar JSON for opaque blocks")
    p.add_argument("--metrics", default=None, help="cost report JSON path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("simulate", help="verify a circuit against the channel oracle")
    p.add_argument("kraus")
    p.add_argument("state")
    p.add_argument("--method", choices=costmodel.METHODS, default="svd")
    p.add_argument("--group", type=int, default=1)
    p.add_argument("--mode", choices=costmodel.ANCILLA_MODES, default="shared")
    p.add_argument("--tol", type=tolerance, default=1e-9)
    p.add_argument("--no-validate", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fmo", help="run the discretized exciton-transport trajectory")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--dt", type=float, default=48.4)
    p.add_argument("--alpha", type=float, default=3e-3)
    p.add_argument("--beta", type=float, default=5e-7)
    p.add_argument("--gamma", type=float, default=6.28e-3)
    p.add_argument("--init", default=None, help="state JSON (default: built-in superposition)")
    p.add_argument("--out", default=None, help="trajectory CSV path")
    p.set_defaults(func=cmd_fmo)

    p = sub.add_parser("cost", help="analytic cost reports and group-size sweeps")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--method", choices=costmodel.METHODS, default="sznagy")
    p.add_argument("--group", type=int, default=1)
    p.add_argument("--mode", choices=costmodel.ANCILLA_MODES, default="shared")
    p.add_argument("--sweep-groups", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_cost)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: argparse parses into a fresh namespace on every
    call, so nothing one command line sets reaches the next."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (NotTracePreservingError, simulator.SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except (
        _InputError, ChannelError, LinalgError, circuit.CircuitError, DilationError, ValueError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def console_main() -> None:
    sys.exit(main())
