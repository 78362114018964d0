"""Exact error analysis of inaccurate binary adders via carry chains.

The package models pseudo-adders (circuits with an adder interface that
may return wrong sums, e.g. overclocked adders read before quiescence)
as delay-annotated gate netlists, attributes their errors to carry
chains, and computes exact statistics (expected absolute error, mean
squared error, maximum absolute error) with fast algorithms checked
against brute-force oracles.

Every name in ``__all__`` loads its home module on first use, so
``import pseudoadder`` loads no submodule.  ``PseudoAdderError``, ``ORACLE_LIMIT``
and ``SAMPLES`` live here for the CLI; :mod:`~pseudoadder.model` re-exports the first.
"""

__version__ = "0.1.0"


class PseudoAdderError(Exception):
    """Base class for errors raised by this package."""


ORACLE_LIMIT = 10  # widest n validity and verify enumerate by default
SAMPLES = 128  # pairs a sampled check draws unless told otherwise

_EXPORTS = {
    "analysis": (
        "AssumptionReport", "ConservativeReport", "check_conservative", "ec_table_sweep",
        "extract_ec_table", "validity",
    ),
    "chains": ("decompose_error", "detect_chains", "dominating_chain", "isolate_chain", "witness_for_chain_set"),
    "generators": ("KsaDelays", "generate_ksa", "generate_rca", "staggered_ksa8", "staggered_ksa8_delays"),
    "maxerror": ("iter_chain_sets", "max_abs_error"),
    "model": (
        "CarryChain", "ChainErrorTable", "ChainSet", "ConservativenessError", "InputPair",
        "PseudoAdderError", "StatsReport", "all_chains", "reference_add",
    ),
    "netlist": ("Gate", "GateKind", "Netlist"),
    "sim": ("SignalTrace", "computed_sum", "simulate"),
    "stats": ("analyze_table", "er_avg_fast", "mse_fast", "nu_single", "sae_oracle_chains", "sae_oracle_simulate"),
    "sweep": ("PairSweep",),
    "tables": ("random_realizable_table",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import an exported name's home module and cache the name here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
