"""Reversible integer-divider synthesis, simulation and cost estimation."""

from .adders import (
    ADDERS,
    AdderBuilder,
    AdderFragment,
    build_cond_add,
    build_cuccaro,
    build_vbe,
    get_adder,
    wrap_add_sub,
    wrap_subtractor,
)
from .circuit import (
    Circuit,
    CircuitError,
    Gate,
    Register,
    ResourceReport,
    ccx,
    cx,
    measure,
    x,
)
from .costs import (
    BASELINES,
    CEIL_REAL_LOG,
    ROW_IDS,
    STRICT_FLOOR,
    comparison_table,
    evaluate_row,
    omega,
)
from .divider import (
    KINDS,
    NON_RESTORING,
    RESTORING,
    DividerLayout,
    DividerParams,
    build_divider,
    make_params,
    run_division,
    verify_exhaustive,
)
from .qasm import QasmExportError, QasmParseError, export_text, import_text
from .sim import SimulationError, apply, decode_register, encode_register

__version__ = "0.1.0"
