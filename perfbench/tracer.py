"""Per-layer tracing by wrapping the package's public callables.

A layer is one ``pseudoadder`` module.  ``Tracer.install`` wraps every
public function, public class constructor, alternate constructor and
public method defined in a layer module, and rebinds each wrapped
function under every name that holds it in any ``pseudoadder`` module
namespace, so ``from .sim import simulate`` copies are traced too.
``uninstall`` puts the originals back.  Nothing under ``src/`` changes.

Each call is a span.  Spans are aggregated as they close, in memory: a
layer's self time is the sum over its spans of the span's duration minus
the time covered by its child spans.  Functions in ``COUNT_ONLY`` are
too hot to time; only their calls are counted, and their time stays
with the calling span.  Functions in ``UNWRAPPED`` are not wrapped at
all.  Work counters are read from the objects the traced calls return;
the time spent reading them is hidden from every span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from enum import Enum
from time import perf_counter

PACKAGE = "pseudoadder"
LAYERS = (
    "generators", "netlist", "sim", "sweep", "analysis",
    "counting", "stats", "maxerror", "chains", "cli",
)
#: per-function metrics: ``<name>.s`` (inclusive seconds) and ``.calls``
TIMED = (
    "sim.simulate",
    "sim.read_output",
    "sweep.PairSweep",
    "analysis.extract_ec_table",
    "analysis.ec_table_sweep",
    "analysis.check_conservative",
    "stats.er_avg_fast",
    "stats.mse_fast",
    "stats.sae_oracle_simulate",
    "stats.sae_oracle_chains",
    "maxerror.max_abs_error",
)
#: called once per chain pair in ``mse_fast``: calls only
COUNT_ONLY = ("counting.nu_pair",)
#: called once per gate event or signal read inside ``sim``; even a
#: counting wrapper would add seconds, so they stay unwrapped and their
#: time counts in the calling layer
UNWRAPPED = (
    "netlist.evaluate_gate",
    "netlist.Netlist.source_value",
    "netlist.Netlist.input_bit",
    "sim.SignalTrace.value_at",
)
COUNTERS = ("sim.transitions", "sweep.waveform_steps", "sweep.lane_bits", "stats.nonzero_entries")


def per_layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run prints, with its unit.  The
    ``cli`` throughput and latency come from the run's untraced rounds."""
    names = [("cli.rows_per_s", "row/s"), ("cli.op_s.p50", "s")]
    names += [(f"{layer}.self_s", "s") for layer in LAYERS]
    for fn in TIMED:
        names += [(f"{fn}.s", "s"), (f"{fn}.calls", "count")]
    names.append(("counting.nu_pair.calls", "count"))
    names += [(c, "count") for c in COUNTERS]
    names.append(("trace.overhead_s", "s"))
    return names


class Tracer:
    def __init__(self) -> None:
        self.modules = {}
        for name in LAYERS:
            try:
                self.modules[name] = importlib.import_module(f"{PACKAGE}.{name}")
            except ModuleNotFoundError:
                pass  # reported by absent()
        from pseudoadder.model import ChainErrorTable

        self._table_type = ChainErrorTable
        self.self_s: dict[str, float] = defaultdict(float)
        self.fn_s: dict[str, float] = defaultdict(float)
        self.fn_calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self._child = [0.0]  # time covered by child spans, per open span
        self._layer = [""]  # layer of each open span
        self._paused = [False]  # set while counters read results
        self._patches: list[tuple[object, str, object]] = []
        self.wrapped: set[str] = set()
        self._after = {
            "sim.simulate": self._count_transitions,
            "sweep.PairSweep": self._count_sweep,
        }

    # -- installation -------------------------------------------------

    def install(self) -> None:
        for layer, mod in self.modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if f"{layer}.{name}" in UNWRAPPED:
                    continue
                if inspect.isfunction(obj):
                    self._rebind(obj, self._wrap(layer, f"{layer}.{name}", obj))
                elif inspect.isclass(obj) and not issubclass(obj, Enum):
                    self._wrap_class(layer, f"{layer}.{name}", obj)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def absent(self) -> list[str]:
        """Layers and named functions that no longer exist in the package."""
        missing = [layer for layer in LAYERS if layer not in self.modules]
        return missing + [fn for fn in TIMED + COUNT_ONLY if fn not in self.wrapped]

    def _rebind(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _wrap_class(self, layer: str, qualname: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = qualname if attr == "__init__" else f"{qualname}.{attr}"
            if name in UNWRAPPED:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(layer, name, raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(layer, name, raw)
            else:
                continue
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    # -- spans ----------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        self.wrapped.add(name)
        calls = self.fn_calls
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        after = self._after.get(name)
        counts_tables = layer == "stats"
        child, layers, paused = self._child, self._layer, self._paused
        self_s, fn_s = self.self_s, self.fn_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            if counts_tables and layers[-1] != "stats":
                self._hidden(self._count_table, args)
            child.append(0.0)
            layers.append(layer)
            start = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                inner = child.pop()
                layers.pop()
                child[-1] += span
                self_s[layer] += span - inner
                fn_s[name] += span
                calls[name] += 1
            if after is not None:
                self._hidden(after, args, return_value)
            return return_value

        return traced

    def _hidden(self, func, *args) -> None:
        """Run counter bookkeeping without charging it to any span."""
        start = perf_counter()
        self._paused[0] = True
        try:
            func(*args)
        finally:
            self._paused[0] = False
        self._child[-1] += perf_counter() - start

    # -- work counters, read from call arguments and results ------------

    def _count_table(self, args) -> None:
        if args and isinstance(args[0], self._table_type):
            self.counters["stats.nonzero_entries"] += len(args[0].nonzero())

    def _count_transitions(self, args, trace) -> None:
        self.counters["sim.transitions"] += sum(len(v) for v in trace.transitions.values())

    def _count_sweep(self, args, _none) -> None:
        sweep = args[0]
        self.counters["sweep.lane_bits"] += sweep.pair_count
        for gate in sweep.net.gates:
            try:
                self.counters["sweep.waveform_steps"] += len(sweep.waveform(gate.id).steps)
            except KeyError:
                pass  # not kept by this sweep

    # -- report ---------------------------------------------------------

    def metrics(self, rounds: int, overhead_s: float) -> dict[str, float]:
        """Per-round figures for every per-layer metric name."""
        values: dict[str, float] = {}
        for layer in LAYERS:
            values[f"{layer}.self_s"] = self.self_s[layer] / rounds
        for fn in TIMED:
            values[f"{fn}.s"] = self.fn_s[fn] / rounds
            values[f"{fn}.calls"] = self.fn_calls[fn] / rounds
        values["counting.nu_pair.calls"] = self.fn_calls["counting.nu_pair"] / rounds
        for c in COUNTERS:
            values[c] = self.counters[c] / rounds
        values["trace.overhead_s"] = overhead_s
        return values
