"""The report commands of the command-line front end: ``stats``, ``ec``,
``chains``, ``trace``, ``sweep`` and ``verify``, each a function of the
parsed arguments named after its command, with the JSON and CSV writers
they share.  :func:`pseudoadder.cli.main` imports this module for any
command but ``gen``, so a ``gen`` process never compiles it.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Iterator
from itertools import islice

from .cli import SWEEP_ROWS, _named, _output


def _read_time(text: str, option: str) -> Time:
    """A read time as :func:`~pseudoadder.netlist.as_time` reads it; a bad
    one names ``option``."""
    from .netlist import as_time

    with _named(option):
        return as_time(text)


def _load_netlist(path: str) -> Netlist:
    from .netlist import Netlist

    if path == "-":
        return Netlist.from_json(sys.stdin.read())
    with open(path) as fh:
        return Netlist.from_json(fh.read())


JSON_SLICE = 256  # list items per call of the C encoder


def _encode(obj: object, write: Callable[[str], object], dumps: Callable[[object], str]) -> None:
    """Write ``dumps(obj)`` (that is, ``json.dumps``) piece by piece: a
    dict with str keys one member at a time, any iterator (written as a
    list) or a list longer than :data:`JSON_SLICE` one slice of that many
    items at a time, anything else (a dict with other keys, which the
    encoder converts) in one call of the C encoder."""
    if isinstance(obj, dict) and all(type(k) is str for k in obj):
        write("{")
        for k, (key, value) in enumerate(obj.items()):
            write((", " if k else "") + dumps(key) + ": ")
            _encode(value, write, dumps)
        write("}")
    elif isinstance(obj, Iterator) or isinstance(obj, list) and len(obj) > JSON_SLICE:
        items = iter(obj)
        write("[")
        for k, part in enumerate(iter(lambda: list(islice(items, JSON_SLICE)), [])):
            write((", " if k else "") + dumps(part)[1:-1])
        write("]")
    else:
        write(dumps(obj))


def _emit_json(obj: object, output: str | None) -> None:
    """Write ``json.dumps(obj)`` and a newline to stdout or ``output``
    without ever holding the whole line or its encoder's chunk list."""
    import json

    with _output(output) as fh:
        _encode(obj, fh.write, json.JSONEncoder(check_circular=False).encode)
        fh.write("\n")


def _emit(args: argparse.Namespace, obj: object, rows: list[dict]) -> None:
    """Write ``obj`` as :func:`_emit_json` does or, with ``--format csv``,
    ``rows`` as CSV under their keys (no rows write nothing)."""
    if args.format == "json":
        return _emit_json(obj, args.output)
    import csv

    with _output(args.output) as fh:
        if rows:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)


def _stats_row(t: Time, report: StatsReport) -> dict:
    return {
        "T": str(t),
        "sae": report.sae,
        "er_avg_num": report.er_avg.numerator,
        "er_avg_den": report.er_avg.denominator,
        "er_avg": report.er_avg_float,
        "mse_num": report.mse.numerator,
        "mse_den": report.mse.denominator,
        "mse": float(report.mse),
        "max_abs_error": report.max_abs_error,
    }


def _parse_t_range(spec: str, net: Netlist) -> list[Time]:
    """``<start>..<stop>[:<step>]``; a ``quiescence`` stop is the static
    arrival time of the outputs.  A range of more than
    :data:`~pseudoadder.cli.SWEEP_ROWS` read times is refused from its
    exact count, before any is listed."""
    body, _, step_text = spec.partition(":")
    start_text, sep, stop_text = body.partition("..")
    if not sep:
        raise ValueError(f"bad T range {spec!r}, expected start..stop[:step]")
    start = _read_time(start_text, "--t-range")
    stop = net.arrival_time() if stop_text == "quiescence" else _read_time(stop_text, "--t-range")
    step = _read_time(step_text, "--t-range") if step_text else 1
    if step <= 0:
        raise ValueError("--t-range: step must be positive")
    count = max(0, (stop - start) // step + 1)  # exact: each part is an int or a Fraction
    if count > SWEEP_ROWS:
        raise ValueError(f"--t-range: more than {SWEEP_ROWS} read times")
    return [start + k * step for k in range(count)]


def _read(args: argparse.Namespace, *options: int) -> AssumptionReport:
    """The ``-T`` read of ``--netlist`` (released on return): ``validity(net, t, *options)``, whose
    table is None, after its error is printed, when a chain probe leaves the model."""
    from .analysis import validity

    net, t = _load_netlist(args.netlist), _read_time(args.T, "-T")
    verdict = validity(net, t, *options)
    if verdict.probe_error:
        print(f"error: {verdict.probe_error}", file=sys.stderr)
    return verdict


def stats(args: argparse.Namespace) -> int:
    from .stats import analyze_table

    verdict = _read(args)
    t, ec = verdict.read_time, verdict.table
    report = None if ec is None else analyze_table(ec)
    payload = {
        "n": verdict.n,
        "T": str(t),
        "sign_convention": "true_sum_minus_computed_sum",
        "ec": None if ec is None else ec.to_json_dict(lazy=True),
        "stats": None if report is None else report.to_json_dict(lazy=True),
        "validity": verdict.to_json_dict(),
    }
    rows = [] if report is None else [
        {"n": verdict.n, **_stats_row(t, report), "validity": verdict.method if verdict.passed else "failed"}
    ]
    _emit(args, payload, rows)
    return 0 if verdict.passed else 1


def ec(args: argparse.Namespace) -> int:
    verdict = _read(args)
    ec = verdict.table
    table = {"n": verdict.n, "ec": None} if ec is None else ec.to_json_dict(lazy=True)
    _emit_json({**table, "validity": verdict.to_json_dict()}, args.output)
    return 0 if verdict.passed else 1


def chains(args: argparse.Namespace) -> int:
    from .chains import detect_chains
    from .model import InputPair

    found = [[c.i, c.j] for c in detect_chains(InputPair(args.n, args.a, args.b))]
    _emit(args, {"n": args.n, "a": args.a, "b": args.b, "chains": found}, [{"i": i, "j": j} for i, j in found])
    return 0


def trace(args: argparse.Namespace) -> int:
    from .model import InputPair, pair_word
    from .sweep import PairSweep, pair_masks

    net = _load_netlist(args.netlist)
    p = InputPair(net.n, args.a, args.b)
    times = None if args.times is None else [_read_time(x, "--times") for x in args.times.split(",")]
    lane = PairSweep(net, masks=pair_masks([pair_word(p.a, p.b, net.n)], net.n), times=times)
    s_true = p.a + p.b
    rows = []
    for t in lane.output_change_times() if times is None else times:
        s_prime = lane.lane_sums(t)[0]
        c_prime = sum(ck << k for k, ck in enumerate(lane.carries_at(t)[0]))
        rows.append(
            {
                "time": str(t),
                "s_prime": s_prime,
                "error": s_true - s_prime,
                "c_prime": format(c_prime, f"0{net.n + 1}b"),
            }
        )
    _emit(args, {"n": net.n, "a": p.a, "b": p.b, "s": s_true, "rows": rows}, rows)
    return 0


def sweep(args: argparse.Namespace) -> int:
    from .analysis import ec_table_sweep
    from .stats import analyze_table

    net = _load_netlist(args.netlist)
    times = _parse_t_range(args.t_range, net)
    # one table at a time becomes its row; a later T outside the model still writes nothing
    rows = [_stats_row(t, analyze_table(ec)) for t, ec in ec_table_sweep(net, times)]
    _emit(args, {"n": net.n, "rows": rows}, rows)
    return 0


def verify(args: argparse.Namespace) -> int:
    import random

    from .stats import analyze_table, sae_oracle_chains
    from .tables import random_realizable_table

    # zero samples or tables, or no netlist and no tables, would check
    # nothing and still exit 0; the limit is the chain oracle's only width rule
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    if args.tables < 1:
        raise ValueError(f"--tables must be at least 1, got {args.tables}")
    if not (args.netlist or args.fast_vs_oracle):
        raise ValueError("verify needs --netlist or --fast-vs-oracle")
    limit = args.exhaustive_n_limit
    if args.fast_vs_oracle and args.n is None:
        raise ValueError("--n is required with --fast-vs-oracle")
    if args.fast_vs_oracle and args.n > limit:
        raise ValueError(f"--n {args.n} is above --exhaustive-n-limit {limit}")
    _read_time(args.T, "-T")  # refused also without a netlist
    lines: list[str] = []

    def record(name: str, ok: bool, detail: str | None = None) -> None:
        lines.append(f"PASS  {name}" if ok else f"FAIL  {name}" + (f"  {detail}" if detail else ""))

    def same(fast: StatsReport, oracle: StatsReport) -> bool:
        return (fast.sae, fast.mse, fast.max_abs_error) == (oracle.sae, oracle.mse, oracle.max_abs_error)

    if args.netlist:
        report = _read(args, limit, args.samples, args.seed)
        record("conservative (no spurious carries)", report.conservative.passed,
               f"counterexamples={report.conservative.counterexamples}")
        record("lower-position independence", report.independent, "unchecked: no chain-error table"
               if report.table is None else str(report.independence_counterexamples[:3]))
        record("chain probes in the model", report.table is not None, report.probe_error)
        if report.oracle is not None and report.passed:
            fast = analyze_table(report.table)
            # the sums are part of the name, so a PASS shows them too
            record(f"fast statistics equal exhaustive simulation  fast sae={fast.sae} oracle sae={report.oracle.sae}",
                   same(fast, report.oracle))

    if args.fast_vs_oracle:
        rng = random.Random(args.seed)
        ok = True
        for _ in range(args.tables):
            ec = random_realizable_table(args.n, rng)
            ok &= same(analyze_table(ec), sae_oracle_chains(ec))
        record(f"fast-vs-oracle on {args.tables} random tables (n={args.n})", ok)

    with _output(args.output) as fh:
        fh.writelines(f"{line}\n" for line in lines)
    return 1 if any(line.startswith("FAIL") for line in lines) else 0
