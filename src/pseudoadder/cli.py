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
:data:`~pseudoadder.report.JSON_SLICE` list items at a time, chain entries made from the table's maps.
Per-chain tallies are exact pair counts (``nu_plus``/``nu_minus``) for
each erring chain; divide by 4^n for a probability.

Exit code 0 means no errors and no failed verdict; a failed verdict or an error (printed as
``error: ...``) exits 1, and an argument a subcommand refuses (``gen rca --delay``) exits 2
under that subcommand's usage line.  ``verify``, ``stats`` and ``ec`` read through one reader,
:func:`~pseudoadder.analysis.validity` (with ``verify``'s options), whose report also holds the
chain-error table.  A chain probe outside the model prints its ``error:`` line and fails the
verdict; ``stats`` and ``ec`` then write ``"ec": null`` (and ``"stats": null``), no stats CSV row,
and the ``validity`` block, which always ends their JSON.  ``sweep`` gives no verdict yet.

Importing this module compiles only the parser, :func:`main` and ``gen``, and loads
only :mod:`argparse`, not :mod:`json` or another package module (annotations are never
evaluated).  Any other command is a function of :mod:`pseudoadder.report`, imported when
it runs.  Each command imports what it runs: ``gen`` loads ``netlist`` and ``generators``
and never ``report``, ``chains`` ``report``, ``model`` and ``chains``, and
``verify --fast-vs-oracle`` without a netlist neither ``analysis`` nor ``chains``.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterator
from contextlib import contextmanager, nullcontext
from functools import cache
from itertools import chain

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
    from .netlist import as_delay, json_list, load_json, malformed_json

    with _named(option):
        if spec.startswith("uniform:"):
            return [as_delay(spec.split(":", 1)[1])] * count
        if spec.startswith("file:"):
            with open(spec.split(":", 1)[1]) as fh:
                values = load_json(fh.read(), "delay list")
            with malformed_json("delay list"):
                values = [as_delay(v) for v in json_list(values, "delays")]
        else:
            values = [as_delay(part) for part in spec.split(",")]
        if len(values) != count:
            raise ValueError(f"expected {count} delays, got {len(values)}")
    return values


def _output(path: str | None):
    """The ``-o`` file, opened for writing, or stdout, left open."""
    return open(path, "w") if path else nullcontext(sys.stdout)


SWEEP_ROWS = 10_000  # most read times one --t-range may list


def _cmd_gen(args: argparse.Namespace) -> int:
    from .generators import KsaDelays, generate_ksa, generate_rca
    from .netlist import as_delay, load_json

    if args.kind == "rca":
        carry = _parse_delay_list(args.carry_delays, args.n, "--carry-delays")
        sums = _parse_delay_list(args.sum_delays, args.n + 1, "--sum-delays")
        net = generate_rca(args.n, carry, sums)
    else:
        with _named("--delay"):
            if args.delay.startswith("file:"):
                with open(args.delay.split(":", 1)[1]) as fh:
                    delays: KsaDelays | int = KsaDelays.from_json_dict(load_json(fh.read(), "KSA delay"))
            else:
                delays = as_delay(args.delay.removeprefix("uniform:"))
        net = generate_ksa(args.n, delays)
    with _output(args.output) as fh:
        fh.writelines(chain(net.json_pieces(), ["\n"]))
    return 0


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

    sub.add_parser("stats", parents=[netlist, read, out, fmt], help="chain errors and exact statistics")
    sub.add_parser("ec", parents=[netlist, read, out], help="chain-error table only")
    sub.add_parser("chains", parents=[width, pair, out, fmt], help="carry chains of one pair")

    p_trace = sub.add_parser("trace", parents=[netlist, pair, out, fmt], help="time table of one addition")
    p_trace.add_argument("--times", default=None, help="comma list; default: 0 and every sum change")

    p_sweep = sub.add_parser("sweep", parents=[netlist, out, fmt], help="statistics over a range of read times")
    p_sweep.add_argument("--t-range", required=True,
                         help=f"start..stop[:step]; stop may be 'quiescence'; at most {SWEEP_ROWS} read times")

    p_verify = sub.add_parser("verify", parents=[netlist_or_none, read, out], help="model checks and oracle comparisons")
    p_verify.add_argument("--exhaustive-n-limit", type=int, default=ORACLE_LIMIT,
                          help="check all 4^n pairs and run the oracles iff n is at most "
                          "this (default: %(default)s); wider netlists are sampled")
    p_verify.add_argument("--samples", type=int, default=SAMPLES)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--fast-vs-oracle", action="store_true")
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--tables", type=int, default=20)

    return parser


_parser = cache(build_parser)  # built once per process, not per call


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        from . import report

        return getattr(report, args.command)(args)
    except (PseudoAdderError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
