"""Command-line front end.

Subcommands: ``gen rca`` and ``gen ksa`` (emit netlist JSON; each owns
its delay options, default ``uniform:1``), ``stats`` (chain-error table
and exact statistics at a read time),
``verify`` (conservativeness, model assumptions, fast-vs-oracle
equality), ``trace`` (time table of one addition), ``chains`` (carry
chains of a pair), ``ec`` (chain-error table only) and ``sweep``
(statistics over a range of read times, CSV-friendly).  An option the
commands share is declared once, in a parent parser; ``--netlist -``
reads the netlist from stdin.

Every simulation runs on the lane-parallel engine
(:class:`~pseudoadder.sweep.PairSweep`): all chain probes as one batch,
with any sample in it, a trace as one lane.  A trace has a row at each
``--times`` entry, by default at 0 and at every time a sum bit changes:
every column is a function of the sums.  ``0..quiescence`` stops at the
netlist's static arrival time, after which no output changes.

JSON output is one compact object per line with the bytes of one ``json.dumps``
(pretty-print it with ``python -m json.tool``), never whole in memory: ``gen``
writes its netlist gate by gate, and a report goes through the C encoder
:data:`JSON_SLICE` list items at a time, chain entries made from the table's maps.
Per-chain tallies are exact pair counts (``nu_plus``/``nu_minus``) for
each erring chain; divide by 4^n for a probability.

Exit code 0 means no errors and no failed verdict; a failed verdict or an error (printed as
``error: ...``) exits 1, and an argument a subcommand refuses (``gen rca --delay``) exits 2
under that subcommand's usage line.  ``verify``, ``stats`` and ``ec`` read through one reader,
:func:`~pseudoadder.analysis.validity` (with ``verify``'s options), whose report also holds the
chain-error table.  A chain probe outside the model prints its ``error:`` line and fails the
verdict; ``stats`` and ``ec`` then write ``"ec": null`` (and ``"stats": null``), no stats CSV row,
and the ``validity`` block, which always ends their JSON.  ``sweep`` gives no verdict yet.

Importing this module loads only :mod:`argparse`, not :mod:`json` or another
package module (annotations are never evaluated); each command imports what
it runs: ``gen`` loads ``netlist`` and ``generators``, ``chains`` ``model`` and ``chains``,
and ``verify --fast-vs-oracle`` without a netlist neither ``analysis`` nor ``chains``.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Iterator
from contextlib import contextmanager, nullcontext
from functools import cache
from itertools import chain, islice

from . import ORACLE_LIMIT, SAMPLES, PseudoAdderError


@contextmanager
def _named(option: str) -> Iterator[None]:
    """Raise a ValueError as one that names ``option``."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{option}: {exc}") from None


def _parse_delay_list(spec: str, count: int, option: str) -> list:
    """uniform:<d>, or ``count`` delays as a comma list or file:<path> with
    a JSON list; anything else is refused naming ``option``."""
    import json

    from .netlist import as_delay, json_list, malformed_json

    with _named(option):
        if spec.startswith("uniform:"):
            return [as_delay(spec.split(":", 1)[1])] * count
        if spec.startswith("file:"):
            with open(spec.split(":", 1)[1]) as fh:
                values = json.load(fh)
            with malformed_json("delay list"):
                values = [as_delay(v) for v in json_list(values, "delays")]
        else:
            values = [as_delay(part) for part in spec.split(",")]
        if len(values) != count:
            raise ValueError(f"expected {count} delays, got {len(values)}")
    return values


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


def _output(path: str | None):
    """The ``-o`` file, opened for writing, or stdout, left open."""
    return open(path, "w") if path else nullcontext(sys.stdout)


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


SWEEP_ROWS = 10_000  # most read times one --t-range may list


def _parse_t_range(spec: str, net: Netlist) -> list[Time]:
    """``<start>..<stop>[:<step>]``; a ``quiescence`` stop is the static
    arrival time of the outputs.  A range of more than :data:`SWEEP_ROWS`
    read times is refused from its exact count, before any is listed."""
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


def _cmd_gen(args: argparse.Namespace) -> int:
    import json

    from .generators import KsaDelays, generate_ksa, generate_rca
    from .netlist import as_delay

    if args.kind == "rca":
        carry = _parse_delay_list(args.carry_delays, args.n, "--carry-delays")
        sums = _parse_delay_list(args.sum_delays, args.n + 1, "--sum-delays")
        net = generate_rca(args.n, carry, sums)
    else:
        with _named("--delay"):
            if args.delay.startswith("file:"):
                with open(args.delay.split(":", 1)[1]) as fh:
                    delays: KsaDelays | int = KsaDelays.from_json_dict(json.load(fh))
            else:
                delays = as_delay(args.delay.removeprefix("uniform:"))
        net = generate_ksa(args.n, delays)
    with _output(args.output) as fh:
        fh.writelines(chain(net.json_pieces(), ["\n"]))
    return 0


def _read(args: argparse.Namespace, *options: int) -> AssumptionReport:
    """The ``-T`` read of ``--netlist`` (released on return): ``validity(net, t, *options)``, whose
    table is None, after its error is printed, when a chain probe leaves the model."""
    from .analysis import validity

    net, t = _load_netlist(args.netlist), _read_time(args.T, "-T")
    verdict = validity(net, t, *options)
    if verdict.probe_error:
        print(f"error: {verdict.probe_error}", file=sys.stderr)
    return verdict


def _cmd_stats(args: argparse.Namespace) -> int:
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


def _cmd_ec(args: argparse.Namespace) -> int:
    verdict = _read(args)
    ec = verdict.table
    table = {"n": verdict.n, "ec": None} if ec is None else ec.to_json_dict(lazy=True)
    _emit_json({**table, "validity": verdict.to_json_dict()}, args.output)
    return 0 if verdict.passed else 1


def _cmd_chains(args: argparse.Namespace) -> int:
    from .chains import detect_chains
    from .model import InputPair

    found = [[c.i, c.j] for c in detect_chains(InputPair(args.n, args.a, args.b))]
    _emit(args, {"n": args.n, "a": args.a, "b": args.b, "chains": found}, [{"i": i, "j": j} for i, j in found])
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
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


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis import ec_table_sweep
    from .stats import analyze_table

    net = _load_netlist(args.netlist)
    times = _parse_t_range(args.t_range, net)
    # one table at a time becomes its row; a later T outside the model still writes nothing
    rows = [_stats_row(t, analyze_table(ec)) for t, ec in ec_table_sweep(net, times)]
    _emit(args, {"n": net.n, "rows": rows}, rows)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
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


class _CommandParser(argparse.ArgumentParser):
    def parse_known_args(self, args=None, namespace=None):
        # a subcommand refuses what it does not take itself, under its own usage line
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudoadder",
        description="Exact error statistics for inaccurate binary adders.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    def option(*flags: str, **kwargs) -> argparse.ArgumentParser:
        """A parent parser declaring one option for every command that takes it."""
        p = argparse.ArgumentParser(add_help=False)
        p.add_argument(*flags, **kwargs)
        return p

    out = option("-o", "--output", help="write to a file instead of stdout")
    fmt = option("--format", choices=("json", "csv"), default="json")
    width = option("--n", type=int, required=True)
    read = option("-T", default="0", help="read time")
    pair = option("-a", type=int, required=True)
    pair.add_argument("-b", type=int, required=True)
    # verify may check random tables alone, so its netlist is optional
    netlist, netlist_or_none = (
        option("--netlist", required=required, help="netlist JSON path, or - for stdin") for required in (True, False)
    )

    p_gen = sub.add_parser("gen", help="generate a netlist")
    kinds = p_gen.add_subparsers(dest="kind", required=True)
    delays = "uniform:<d>, comma list, or file:<path> (default %(default)s)"
    p_rca = kinds.add_parser("rca", parents=[width, out], help="ripple-carry adder")
    p_rca.add_argument("--carry-delays", default="uniform:1", help=delays)
    p_rca.add_argument("--sum-delays", default="uniform:1", help=delays)
    p_ksa = kinds.add_parser("ksa", parents=[width, out], help="Kogge-Stone adder")
    p_ksa.add_argument("--delay", default="uniform:1",
                       help="uniform:<d> or file:<path> (per-module JSON; default %(default)s)")
    p_gen.set_defaults(func=_cmd_gen)

    p_stats = sub.add_parser("stats", parents=[netlist, read, out, fmt], help="chain errors and exact statistics")
    p_stats.set_defaults(func=_cmd_stats)

    p_ec = sub.add_parser("ec", parents=[netlist, read, out], help="chain-error table only")
    p_ec.set_defaults(func=_cmd_ec)

    p_chains = sub.add_parser("chains", parents=[width, pair, out, fmt], help="carry chains of one pair")
    p_chains.set_defaults(func=_cmd_chains)

    p_trace = sub.add_parser("trace", parents=[netlist, pair, out, fmt], help="time table of one addition")
    p_trace.add_argument("--times", default=None, help="comma list; default: 0 and every sum change")
    p_trace.set_defaults(func=_cmd_trace)

    p_sweep = sub.add_parser("sweep", parents=[netlist, out, fmt], help="statistics over a range of read times")
    p_sweep.add_argument("--t-range", required=True,
                         help=f"start..stop[:step]; stop may be 'quiescence'; at most {SWEEP_ROWS} read times")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", parents=[netlist_or_none, read, out], help="model checks and oracle comparisons")
    p_verify.add_argument("--exhaustive-n-limit", type=int, default=ORACLE_LIMIT,
                          help="check all 4^n pairs and run the oracles iff n is at most "
                          "this (default: %(default)s); wider netlists are sampled")
    p_verify.add_argument("--samples", type=int, default=SAMPLES)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--fast-vs-oracle", action="store_true")
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--tables", type=int, default=20)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


_parser = cache(build_parser)  # built once per process, not per call


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (PseudoAdderError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
