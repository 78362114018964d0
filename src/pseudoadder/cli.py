"""Command-line front end.

Subcommands: ``gen`` (emit RCA/KSA netlist JSON), ``stats`` (chain-error
table and exact statistics at a read time),
``verify`` (conservativeness, model assumptions, fast-vs-oracle
equality), ``trace`` (time table of one addition), ``chains`` (carry
chains of a pair), ``ec`` (chain-error table only) and ``sweep``
(statistics over a range of read times, CSV-friendly).

Every simulation runs on the lane-parallel engine
(:class:`~pseudoadder.sweep.PairSweep`): all chain probes as one batch, a
sample as one batch, a trace as one lane.  ``0..quiescence`` stops at the
netlist's static arrival time, after which no output changes.

JSON output is one compact object per line; pretty-print it with
``python -m json.tool``.  Per-chain tallies are exact pair counts
(``nu_plus``/``nu_minus``) for each erring chain; divide by ``4**n``
for a probability.

Exit code 0 means no errors and no failed verification; a failed
verification or an error (printed as ``error: ...``) exits 1.  All
sampling takes an explicit ``--seed`` (default 0) so reports are
reproducible.  ``verify`` checks conservativeness over all 4^n pairs,
and runs the exhaustive oracles, iff n <= ``--exhaustive-n-limit``
(default 10); above it the check is sampled and no oracle runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys

from .analysis import check_conservative, ec_table_sweep, extract_ec_table, verify_assumptions
from .chains import detect_chains
from .generators import KsaDelays, generate_ksa, generate_rca
from .model import ChainErrorTable, InputPair, PseudoAdderError, StatsReport
from .netlist import Netlist, Time, as_delay, malformed_json
from .stats import ORACLE_LIMIT, analyze_table, sae_oracle_chains, sae_oracle_simulate
from .sweep import PairSweep
from .tables import random_realizable_table


def _parse_delay_list(spec: str, count: int, what: str) -> list:
    """uniform:<d>, a comma list, or file:<path> with a JSON list."""
    if spec.startswith("uniform:"):
        return [as_delay(spec.split(":", 1)[1])] * count
    if spec.startswith("file:"):
        with open(spec.split(":", 1)[1]) as fh:
            values = json.load(fh)
        with malformed_json("delay list"):
            return [as_delay(v) for v in values]
    values = [as_delay(part) for part in spec.split(",")]
    if len(values) != count:
        raise ValueError(f"{what}: expected {count} delays, got {len(values)}")
    return values


def _load_netlist(path: str) -> Netlist:
    if path == "-":
        return Netlist.from_json(sys.stdin.read())
    with open(path) as fh:
        return Netlist.from_json(fh.read())


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_to_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _stats_row(t: Time, ec: ChainErrorTable) -> dict:
    report = analyze_table(ec)
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
    arrival time of the outputs."""
    body, _, step_text = spec.partition(":")
    start_text, sep, stop_text = body.partition("..")
    if not sep:
        raise ValueError(f"bad T range {spec!r}, expected start..stop[:step]")
    start = as_delay(start_text)
    stop = net.arrival_time() if stop_text == "quiescence" else as_delay(stop_text)
    step = as_delay(step_text) if step_text else 1
    if step <= 0:
        raise ValueError("step must be positive")
    times: list[Time] = []
    t = start
    while t <= stop:
        times.append(t)
        t = t + step
    return times


def _cmd_gen(args: argparse.Namespace) -> int:
    """Unset delay options are uniform:1; the other kind's are refused."""
    own = {"rca": ("carry_delays", "sum_delays"), "ksa": ("delay",)}[args.kind]
    for name in ("carry_delays", "sum_delays", "delay"):
        if getattr(args, name) is None:
            setattr(args, name, "uniform:1")
        elif name not in own:
            raise ValueError(f"gen {args.kind} does not take --{name.replace('_', '-')}")
    if args.kind == "rca":
        carry = _parse_delay_list(args.carry_delays, args.n, "--carry-delays")
        sums = _parse_delay_list(args.sum_delays, args.n + 1, "--sum-delays")
        net = generate_rca(args.n, carry, sums)
    else:
        spec = args.delay
        if spec.startswith("file:"):
            with open(spec.split(":", 1)[1]) as fh:
                delays: KsaDelays | int = KsaDelays.from_json_dict(json.load(fh))
        else:
            delays = as_delay(spec.removeprefix("uniform:"))
        net = generate_ksa(args.n, delays)
    _emit(net.to_json() + "\n", args.output)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    net = _load_netlist(args.netlist)
    t = as_delay(args.T)
    ec = extract_ec_table(net, t)
    if args.format == "csv":
        row = {"n": net.n, **_stats_row(t, ec)}
        _emit(_rows_to_csv([row]), args.output)
    else:
        payload = {
            "n": net.n,
            "T": str(t),
            "sign_convention": "true_sum_minus_computed_sum",
            "ec": ec.to_json_dict(),
            "stats": analyze_table(ec).to_json_dict(),
        }
        _emit(json.dumps(payload) + "\n", args.output)
    return 0


def _cmd_ec(args: argparse.Namespace) -> int:
    net = _load_netlist(args.netlist)
    ec = extract_ec_table(net, as_delay(args.T))
    _emit(json.dumps(ec.to_json_dict()) + "\n", args.output)
    return 0


def _cmd_chains(args: argparse.Namespace) -> int:
    p = InputPair(args.n, args.a, args.b)
    found = [[c.i, c.j] for c in detect_chains(p)]
    if args.format == "csv":
        rows = [{"i": i, "j": j} for i, j in found]
        _emit(_rows_to_csv(rows), args.output)
    else:
        _emit(json.dumps({"n": args.n, "a": args.a, "b": args.b, "chains": found}) + "\n", args.output)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    net = _load_netlist(args.netlist)
    p = InputPair(net.n, args.a, args.b)
    times = [as_delay(x) for x in args.times.split(",")] if args.times else None
    lane = PairSweep(net, keep=set(net.by_id), pairs=[p], times=times)
    if times is None:
        times = sorted({0}.union(*(lane.waveform(g.id).times for g in net.gates)))
    s_true = p.a + p.b
    rows = []
    for t in times:
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
    if args.format == "csv":
        _emit(_rows_to_csv(rows), args.output)
    else:
        _emit(json.dumps({"n": net.n, "a": p.a, "b": p.b, "s": s_true, "rows": rows}) + "\n", args.output)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    net = _load_netlist(args.netlist)
    times = _parse_t_range(args.t_range, net)
    rows = [_stats_row(t, ec) for t, ec in ec_table_sweep(net, times).items()]
    if args.format == "json":
        _emit(json.dumps({"n": net.n, "rows": rows}) + "\n", args.output)
    else:
        _emit(_rows_to_csv(rows), args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # zero samples or tables would check nothing and still print PASS
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    if args.tables < 1:
        raise ValueError(f"--tables must be at least 1, got {args.tables}")
    failures = 0
    lines: list[str] = []
    limit = args.exhaustive_n_limit

    def record(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  {detail}" if detail else ""))
        if not ok:
            failures += 1

    def same(fast: StatsReport, oracle: StatsReport) -> bool:
        return (fast.sae, fast.mse, fast.max_abs_error) == (oracle.sae, oracle.mse, oracle.max_abs_error)

    if args.netlist:
        net = _load_netlist(args.netlist)
        t = as_delay(args.T)
        sweep = pairs = None
        if net.n <= limit:
            # one all-pairs run serves the conservative check and the oracle
            sweep = PairSweep(net, times=[t])
        else:
            rng = random.Random(args.seed)
            pairs = [
                InputPair(net.n, rng.randrange(1 << net.n), rng.randrange(1 << net.n))
                for _ in range(args.samples)
            ]
        conservative = check_conservative(net, t, pairs=pairs, sweep=sweep)
        record(
            "conservative (no spurious carries)",
            conservative.passed,
            f"counterexamples={conservative.counterexamples}" if not conservative.passed else "",
        )
        assumptions = verify_assumptions(net, t, samples=args.samples, seed=args.seed)
        record("commutativity", assumptions.commutative,
               str(assumptions.commutativity_counterexamples[:3]) if not assumptions.commutative else "")
        record("lower-position independence", assumptions.independent,
               str(assumptions.independence_counterexamples[:3]) if not assumptions.independent else "")
        if sweep is not None and conservative.passed and assumptions.passed:
            fast = analyze_table(extract_ec_table(net, t))
            oracle = sae_oracle_simulate(net, t, force=True, sweep=sweep)
            record(
                "fast statistics equal exhaustive simulation",
                same(fast, oracle),
                f"fast sae={fast.sae} oracle sae={oracle.sae}",
            )

    if args.fast_vs_oracle:
        n = args.n
        if n is None:
            record("fast-vs-oracle", False, "--n is required with --fast-vs-oracle")
        elif n > limit:
            record("fast-vs-oracle", False, f"n={n} above --exhaustive-n-limit {limit}")
        else:
            rng = random.Random(args.seed)
            ok = True
            for _ in range(args.tables):
                ec = random_realizable_table(n, rng)
                ok &= same(analyze_table(ec), sae_oracle_chains(ec, force=True))
            record(f"fast-vs-oracle on {args.tables} random tables (n={n})", ok)

    _emit("\n".join(lines) + "\n", args.output)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudoadder",
        description="Exact error statistics for inaccurate binary adders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, fmt: bool = True) -> None:
        p.add_argument("-o", "--output", help="write to a file instead of stdout")
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default="json")

    p_gen = sub.add_parser("gen", help="generate a netlist")
    p_gen.add_argument("kind", choices=("rca", "ksa"))
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--carry-delays",
                       help="rca only: uniform:<d>, comma list, or file:<path> (default uniform:1)")
    p_gen.add_argument("--sum-delays",
                       help="rca only: uniform:<d>, comma list, or file:<path> (default uniform:1)")
    p_gen.add_argument("--delay",
                       help="ksa only: uniform:<d> or file:<path> (per-module JSON; default uniform:1)")
    add_common(p_gen, fmt=False)
    p_gen.set_defaults(func=_cmd_gen)

    p_stats = sub.add_parser("stats", help="chain errors and exact statistics")
    p_stats.add_argument("--netlist", required=True, help="netlist JSON path or -")
    p_stats.add_argument("-T", default="0", help="read time")
    add_common(p_stats)
    p_stats.set_defaults(func=_cmd_stats)

    p_ec = sub.add_parser("ec", help="chain-error table only")
    p_ec.add_argument("--netlist", required=True)
    p_ec.add_argument("-T", default="0")
    add_common(p_ec, fmt=False)
    p_ec.set_defaults(func=_cmd_ec)

    p_chains = sub.add_parser("chains", help="carry chains of one pair")
    p_chains.add_argument("--n", type=int, required=True)
    p_chains.add_argument("-a", type=int, required=True)
    p_chains.add_argument("-b", type=int, required=True)
    add_common(p_chains)
    p_chains.set_defaults(func=_cmd_chains)

    p_trace = sub.add_parser("trace", help="time table of one addition")
    p_trace.add_argument("--netlist", required=True)
    p_trace.add_argument("-a", type=int, required=True)
    p_trace.add_argument("-b", type=int, required=True)
    p_trace.add_argument("--times", default=None, help="comma list; default: all transition times")
    add_common(p_trace)
    p_trace.set_defaults(func=_cmd_trace)

    p_sweep = sub.add_parser("sweep", help="statistics over a range of read times")
    p_sweep.add_argument("--netlist", required=True)
    p_sweep.add_argument("--t-range", required=True, help="start..stop[:step]; stop may be 'quiescence'")
    add_common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="model checks and oracle comparisons")
    p_verify.add_argument("--netlist", default=None)
    p_verify.add_argument("-T", default="0")
    p_verify.add_argument("--exhaustive-n-limit", type=int, default=ORACLE_LIMIT,
                          help="check all 4^n pairs and run the oracles iff n is at most "
                          "this (default: %(default)s); wider netlists are sampled")
    p_verify.add_argument("--samples", type=int, default=128)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--fast-vs-oracle", action="store_true")
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--tables", type=int, default=20)
    add_common(p_verify, fmt=False)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PseudoAdderError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
