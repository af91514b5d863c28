"""The benchmark tracer binds oqsynth names by string; keep them real.

``perfbench/tracing.py`` wraps each name in ``TRACED`` and counts gates
by the kinds in ``GATE_KINDS``. A rename or deletion in ``src`` would
otherwise break ``perfbench/run.py --trace 1`` with no test failing.
"""

import importlib
import importlib.util
from pathlib import Path

from oqsynth import circuit

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_callables_in_their_modules():
    tracing = load_tracing()
    for qual in tracing.TRACED:
        mod, name = qual.split(".")
        fn = getattr(importlib.import_module(f"oqsynth.{mod}"), name, None)
        assert callable(fn), qual


def test_traced_gate_kinds_are_circuit_gate_kinds():
    assert set(load_tracing().GATE_KINDS) <= set(circuit.GATE_KINDS)
