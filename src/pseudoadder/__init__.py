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
    canonical_pair,
    chain_predicate,
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
    bit,
    reference_add,
)
from .netlist import Gate, GateKind, Netlist, as_delay
from .sim import SignalTrace, computed_sum, simulate
from .stats import (
    analyze_table,
    er_avg_fast,
    mse_fast,
    nu_single,
    sae_oracle_chains,
    sae_oracle_simulate,
)
from .sweep import PairSweep, read_carries
from .tables import (
    is_realizable_error,
    random_realizable_error,
    random_realizable_table,
)

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
    "as_delay",
    "bit",
    "canonical_pair",
    "chain_predicate",
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
    "is_realizable_error",
    "isolate_chain",
    "iter_chain_sets",
    "max_abs_error",
    "mse_fast",
    "nu_single",
    "random_realizable_error",
    "random_realizable_table",
    "read_carries",
    "reference_add",
    "sae_oracle_chains",
    "sae_oracle_simulate",
    "simulate",
    "staggered_ksa8",
    "staggered_ksa8_delays",
    "verify_assumptions",
    "witness_for_chain_set",
]
