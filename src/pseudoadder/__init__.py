"""Exact error analysis of inaccurate binary adders via carry chains.

The package models pseudo-adders (circuits with an adder interface that
may return wrong sums, e.g. overclocked adders read before quiescence)
as delay-annotated gate netlists, attributes their errors to carry
chains, and computes exact statistics (expected absolute error, mean
squared error, maximum absolute error) with fast algorithms checked
against brute-force oracles.
"""

from .analysis import (
    AssumptionReport,
    ConservativeReport,
    check_conservative,
    ec_table_sweep,
    extract_ec_table,
    verify_assumptions,
)
from .chains import (
    decompose_error,
    detect_chains,
    dominating_chain,
    isolate_chain,
    witness_for_chain_set,
)
from .generators import (
    KsaDelays,
    generate_ksa,
    generate_rca,
    staggered_ksa8,
    staggered_ksa8_delays,
)
from .maxerror import iter_chain_sets, max_abs_error
from .model import (
    CarryChain,
    ChainErrorTable,
    ChainSet,
    ConservativenessError,
    InputPair,
    OracleLimitError,
    PseudoAdderError,
    StatsReport,
    all_chains,
    reference_add,
)
from .netlist import Gate, GateKind, Netlist
from .sim import SignalTrace, computed_sum, simulate
from .stats import (
    analyze_table,
    er_avg_fast,
    mse_fast,
    nu_single,
    sae_oracle_chains,
    sae_oracle_simulate,
)
from .sweep import PairSweep
from .tables import random_realizable_table

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport",
    "CarryChain",
    "ChainErrorTable",
    "ChainSet",
    "ConservativeReport",
    "ConservativenessError",
    "Gate",
    "GateKind",
    "InputPair",
    "KsaDelays",
    "Netlist",
    "OracleLimitError",
    "PairSweep",
    "PseudoAdderError",
    "SignalTrace",
    "StatsReport",
    "all_chains",
    "analyze_table",
    "check_conservative",
    "computed_sum",
    "decompose_error",
    "detect_chains",
    "dominating_chain",
    "ec_table_sweep",
    "er_avg_fast",
    "extract_ec_table",
    "generate_ksa",
    "generate_rca",
    "isolate_chain",
    "iter_chain_sets",
    "max_abs_error",
    "mse_fast",
    "nu_single",
    "random_realizable_table",
    "reference_add",
    "sae_oracle_chains",
    "sae_oracle_simulate",
    "simulate",
    "staggered_ksa8",
    "staggered_ksa8_delays",
    "verify_assumptions",
    "witness_for_chain_set",
]
