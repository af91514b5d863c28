"""oqsynth: compile quantum channels into dilation-based simulation circuits.

The pipeline is: validate a Kraus set (``channel``), dilate each operator or
operator group into a unitary/isometry (``dilation``), assemble a gate-level
circuit with a divide-and-conquer CSWAP mixer (``circuit``), check it against
the dense channel oracle (``simulator``), and report analytic depth/CNOT/qubit
costs (``costmodel``). The ``cli`` module ties the stages together with
file-based I/O.
"""

from .channel import (
    FMOParams,
    KrausSet,
    apply_channel,
    fmo_kraus_set,
    fmo_trajectory,
    group_kraus,
    pad_to_power_of_two,
    random_kraus_set,
    validate_cptp,
)
from .circuit import (
    Circuit,
    Gate,
    assemble_simulation_circuit,
    build_mixer,
    cswap_elementary,
    export_circuit,
    multi_target_cswap,
    parse_circuit,
)
from .costmodel import CostReport, combined_cost, mixer_cost, sweep_group_sizes
from .dilation import stinespring_isometry, svd_dilation, sznagy_unitary
from .simulator import DensityMatrix, run, verify_equivalence

__version__ = "0.1.0"

__all__ = [
    "FMOParams",
    "KrausSet",
    "apply_channel",
    "fmo_kraus_set",
    "fmo_trajectory",
    "group_kraus",
    "pad_to_power_of_two",
    "random_kraus_set",
    "validate_cptp",
    "Circuit",
    "Gate",
    "assemble_simulation_circuit",
    "build_mixer",
    "cswap_elementary",
    "export_circuit",
    "multi_target_cswap",
    "parse_circuit",
    "CostReport",
    "combined_cost",
    "mixer_cost",
    "sweep_group_sizes",
    "stinespring_isometry",
    "svd_dilation",
    "sznagy_unitary",
    "DensityMatrix",
    "run",
    "verify_equivalence",
]
