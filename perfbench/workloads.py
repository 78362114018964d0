"""The three benchmark workloads: inputs, CLI commands and checks.

Each workload turns ``--seed`` into netlists (the program sees only the
generated files), lists the ``gen`` commands of its set-up and the CLI
commands of one round, and checks one round's outputs with
:mod:`checks`.  A round is the same list of commands in every run, so
the share of failed results does not depend on the seed or run length.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from pseudoadder.generators import KsaDelays, generate_ksa, generate_rca, staggered_ksa8_delays
from pseudoadder.maxerror import max_abs_error
from pseudoadder.model import ChainErrorTable
from pseudoadder.netlist import Netlist
from pseudoadder.stats import er_avg_fast, mse_fast
from pseudoadder.sweep import PairSweep
from pseudoadder.tables import random_realizable_table

import checks

SEVENTHS = (Fraction(5, 7), Fraction(6, 7), Fraction(8, 7), Fraction(9, 7))


@dataclass
class Op:
    """One CLI command; ``rows`` is how many (netlist, T) rows it returns
    and ``results`` how many checked results count as attempted."""

    argv: list[str]
    rows: int
    results: int


@dataclass
class Outcome:
    code: int | None
    out: str
    err: str


def _spec(values) -> str:
    return ",".join(str(v) for v in values)


def ksa_window_start(d: KsaDelays) -> int:
    """First read time where a Kogge-Stone read is conservative: every sum
    XOR has seen its own propagate bit (prefix signals only rise)."""
    return max(p + s for p, s in zip(d.pg, d.sums))


def rca_window_start(sum_delays) -> Fraction | int:
    """First conservative read of a ripple-carry adder: every sum XOR
    below the overflow bit has committed once (carries only rise)."""
    return max(sum_delays[:-1])


def _table(entries: list[dict]) -> dict:
    return {(e["i"], e["j"]): e["value"] for e in entries}


class PointKsa64:
    """``stats -T t`` on a uniform and a seeded 64-bit Kogge-Stone."""

    name = "point-ksa64"
    n = 64
    samples = 48  # simulated random pairs per netlist
    probe_checks = 24  # table entries re-measured per row

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"{self.name}/{seed}")
        n, levels = self.n, self.n.bit_length() - 1

        def draw(count: int) -> tuple[int, ...]:
            return tuple(rng.choice((1, 2)) for _ in range(count))

        seeded = KsaDelays(pg=draw(n), prefix=tuple(draw(n) for _ in range(levels)), sums=draw(n + 1))
        self.delay_file = workdir / "ksa-delays.json"
        self.delay_file.write_text(json.dumps(seeded.to_json_dict()))  # integer delays: exact
        self.paths = {k: workdir / f"ksa-{k}.json" for k in ("uniform", "seeded")}
        self.nets = {"uniform": generate_ksa(n, 1), "seeded": generate_ksa(n, seeded)}
        self.arrival = {k: checks.static_arrival(v) for k, v in self.nets.items()}
        start = {"uniform": ksa_window_start(KsaDelays.uniform(n, 1)), "seeded": ksa_window_start(seeded)}
        # the uniform adder at the window's start and at quiescence; the
        # seeded one halfway through its window, where some chains settled
        self.reads = [
            ("uniform", start["uniform"]),
            ("uniform", self.arrival["uniform"]),
            ("seeded", (start["seeded"] + self.arrival["seeded"]) // 2),
        ]
        self.rng = random.Random(f"{self.name}/{seed}/samples")

    def gen_commands(self) -> list[list[str]]:
        return [
            ["gen", "ksa", "--n", str(self.n), "-o", str(self.paths["uniform"])],
            ["gen", "ksa", "--n", str(self.n), "--delay", f"file:{self.delay_file}", "-o", str(self.paths["seeded"])],
        ]

    def ops(self) -> list[Op]:
        return [
            Op(["stats", "--netlist", str(self.paths[key]), "-T", str(t)], 1, 1)
            for key, t in self.reads
        ]

    def check(self, outcomes: list[Outcome]) -> tuple[int, list[str]]:
        problems: list[str] = []
        pairs = {key: checks.sample_pairs(self.n, self.rng, self.samples) for key in self.nets}
        times = {key: sorted({t for k, t in self.reads if k == key}) for key in self.nets}
        errors = {key: checks.simulated_errors(self.nets[key], pairs[key], times[key]) for key in self.nets}
        for (key, t), res in zip(self.reads, outcomes):
            label = f"stats {key} T={t}"
            if res.code != 0:
                problems.append(f"{label}: exit code {res.code}: {res.err.strip()[-300:]}")
                continue
            report = json.loads(res.out)
            stats = report["stats"]
            table = _table(report["ec"]["ec"])
            exact = checks.ExactStats(self.n, table)
            problems += [f"{label}: {p}" for p in exact.problems()]
            er_avg = Fraction(stats["er_avg"]["numerator"], stats["er_avg"]["denominator"])
            mse = Fraction(stats["mse"]["numerator"], stats["mse"]["denominator"])
            claimed = (report["T"], stats["sae"], er_avg, mse, stats["max_abs_error"])
            if claimed != (str(t), exact.sae, exact.er_avg, exact.mse, exact.max_abs):
                problems.append(f"{label}: reported (T, sae, er_avg, mse, max) {claimed} "
                                f"!= exact {(str(t), exact.sae, exact.er_avg, exact.mse, exact.max_abs)}")
            net = self.nets[key]
            all_chains = [(i, j) for i in range(1, self.n + 1) for j in range(i, self.n + 1)]
            spot = self.rng.sample(all_chains, self.probe_checks)
            measured = checks.probe_tables(net, [t], spot)[t]
            for c in spot:
                if measured.get(c, 0) != table.get(c, 0):
                    problems.append(f"{label}: chain {c} entry {table.get(c, 0)}, probe simulates {measured.get(c, 0)}")
            problems += checks.check_decomposition(label, self.n, table, pairs[key], errors[key][t])
            problems += checks.check_claims(label, er_avg, mse, stats["max_abs_error"],
                                            errors[key][t], t >= self.arrival[key])
            _, witness = max_abs_error(ChainErrorTable(self.n, table))
            problems += checks.check_witness(label, net, t, stats["max_abs_error"], witness)
        return 0, problems


class SweepRca32:
    """One ``sweep`` each of a fixed and two seeded 32-bit ripple-carry
    adders whose stage delays are sevenths."""

    name = "sweep-rca32"
    n = 32
    rows = 64  # per seeded sweep
    samples = 64

    def __init__(self, seed: int, workdir: Path):
        n = self.n
        rng = random.Random(f"{self.name}/{seed}")
        self.delays = {
            # seed-independent: its reads sit on the 1/7 lattice of
            # transition times, where rounded delays change what is read
            "fixed": ([SEVENTHS[k % 4] for k in range(n)], [SEVENTHS[(3 * k + 1) % 4] for k in range(n + 1)]),
        }
        for key in ("seeded-a", "seeded-b"):
            self.delays[key] = ([rng.choice(SEVENTHS) for _ in range(n)], [rng.choice(SEVENTHS) for _ in range(n + 1)])
        self.nets = {k: generate_rca(n, *d) for k, d in self.delays.items()}
        self.paths = {k: workdir / f"rca-{k}.json" for k in self.nets}
        self.arrival = {k: checks.static_arrival(v) for k, v in self.nets.items()}
        self.ranges = {}
        for key, (_, sums) in self.delays.items():
            lo, arr = rca_window_start(sums), self.arrival[key]
            if key == "fixed":
                self.ranges[key] = (lo, arr, Fraction(1, 2))
            else:
                # a fixed row count whatever the seed, from a quarter past
                # the window's start to a quarter past arrival.  No such
                # time is a multiple of 1/7, so no read coincides with a
                # transition, and float-rounded delays cannot move one
                # across a read.
                self.ranges[key] = (lo + Fraction(1, 4), arr + Fraction(1, 4), (arr - lo) / (self.rows - 1))
        self.times = {}
        for k, (t0, t1, dt) in self.ranges.items():
            self.times[k] = []
            while t0 <= t1:
                self.times[k].append(t0)
                t0 += dt
        self.rng = random.Random(f"{self.name}/{seed}/samples")

    def gen_commands(self) -> list[list[str]]:
        return [
            ["gen", "rca", "--n", str(self.n), "--carry-delays", _spec(cd), "--sum-delays", _spec(sd),
             "-o", str(self.paths[k])]
            for k, (cd, sd) in self.delays.items()
        ]

    def ops(self) -> list[Op]:
        return [
            Op(["sweep", "--netlist", str(self.paths[k]), "--t-range", f"{t0}..{t1}:{dt}", "--format", "json"],
               len(self.times[k]), len(self.times[k]))
            for k, (t0, t1, dt) in self.ranges.items()
        ]

    def check(self, outcomes: list[Outcome]) -> tuple[int, list[str]]:
        problems: list[str] = []
        failed = 0
        for key, res in zip(self.nets, outcomes):
            label = f"sweep {key}"
            net, times = self.nets[key], self.times[key]
            if res.code != 0:
                problems.append(f"{label}: exit code {res.code}: {res.err.strip()[-300:]}")
                continue
            rows = json.loads(res.out)["rows"]
            if [r["T"] for r in rows] != [str(t) for t in times]:
                problems.append(f"{label}: read times differ from {times[0]}..{times[-1]}")
                continue
            tables = checks.probe_tables(net, times)
            pairs = checks.sample_pairs(self.n, self.rng, self.samples)
            errors = checks.simulated_errors(net, pairs, times)
            wrong = []
            for t, row in zip(times, rows):
                rlabel = f"{label} T={t}"
                expected, dp_problems = checks.exact_row(t, self.n, tables[t])
                problems += [f"{rlabel}: {p}" for p in dp_problems]
                if row != expected:
                    wrong.append((t, row))
                    continue
                er_avg = Fraction(row["er_avg_num"], row["er_avg_den"])
                mse = Fraction(row["mse_num"], row["mse_den"])
                problems += checks.check_decomposition(rlabel, self.n, tables[t], pairs, errors[t])
                problems += checks.check_claims(rlabel, er_avg, mse, row["max_abs_error"],
                                                errors[t], t >= self.arrival[key])
                _, witness = max_abs_error(ChainErrorTable(self.n, tables[t]))
                problems += checks.check_witness(rlabel, net, t, row["max_abs_error"], witness)
            failed += self._explain(key, wrong, problems)
        return failed, problems

    def _explain(self, key: str, wrong: list, problems: list[str]) -> int:
        """Count rows that the JSON delay rounding explains as failed.

        ``Netlist.to_json_dict`` writes a non-integer delay as a float.
        A wrong row is that fault exactly when it equals the exact
        analysis of the netlist read back from the file, and the file's
        delays differ from the in-memory ones.  Any other wrong row is a
        problem.
        """
        if not wrong:
            return 0
        loaded = Netlist.from_json(self.paths[key].read_text())
        rounded = any(g.delay != self.nets[key].by_id[g.id].delay for g in loaded.gates)
        tables = checks.probe_tables(loaded, [t for t, _ in wrong])
        for t, row in wrong:
            expected, _ = checks.exact_row(t, self.n, tables[t])
            if not (rounded and key == "fixed" and row == expected):  # seeded reads avoid the fault
                problems.append(f"sweep {key} T={t}: row {row} is neither the exact analysis "
                                "nor that of the rounded netlist")
        return len(wrong)


class VerifyN10:
    """Exhaustive ``verify`` of a seeded 10-bit ripple-carry adder and the
    shipped staggered 8-bit Kogge-Stone, plus one fast-vs-oracle run."""

    name = "verify-n10"
    n = 10
    samples = 64
    fvo_tables = 1

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"{self.name}/{seed}")
        stage = [rng.choice((1, 2, 3)) for _ in range(self.n + 1)]  # a stage's carry and sum share one
        self.rca_delays = (stage[:-1], stage)
        self.ksa_delay_file = workdir / "ksa8-staggered-delays.json"
        d = staggered_ksa8_delays()
        self.ksa_delay_file.write_text(json.dumps(d.to_json_dict()))  # integer delays: exact
        self.nets = {"rca": generate_rca(self.n, *self.rca_delays), "ksa8": generate_ksa(8, d)}
        self.paths = {k: workdir / f"{k}.json" for k in self.nets}
        self.arrival = {k: checks.static_arrival(v) for k, v in self.nets.items()}
        lo = rca_window_start(stage)
        arr = self.arrival["rca"]
        # the seeded adder at its window's start, middle and quiescence;
        # the staggered one at T=7, where chains err in both directions
        self.reads = [("rca", lo), ("rca", Fraction(lo + arr, 2)), ("rca", arr), ("ksa8", 7)]
        self.rng = random.Random(f"{self.name}/{seed}/samples")

    def gen_commands(self) -> list[list[str]]:
        cd, sd = self.rca_delays
        return [
            ["gen", "rca", "--n", str(self.n), "--carry-delays", _spec(cd), "--sum-delays", _spec(sd),
             "-o", str(self.paths["rca"])],
            ["gen", "ksa", "--n", "8", "--delay", f"file:{self.ksa_delay_file}", "-o", str(self.paths["ksa8"])],
        ]

    def ops(self) -> list[Op]:
        ops = [
            Op(["verify", "--netlist", str(self.paths[k]), "-T", str(t), "--exhaustive-n-limit", "10"], 1, 1)
            for k, t in self.reads
        ]
        ops.append(Op(["verify", "--fast-vs-oracle", "--n", str(self.n), "--tables", str(self.fvo_tables)], 0, 1))
        return ops

    def check(self, outcomes: list[Outcome]) -> tuple[int, list[str]]:
        problems: list[str] = []
        sweeps = {k: PairSweep(net, keep=set(net.outputs.values())) for k, net in self.nets.items()}
        for (key, t), res in zip(self.reads, outcomes):
            label = f"verify {key} T={t}"
            net = self.nets[key]
            lines = res.out.splitlines()
            if res.code != 0 or len(lines) != 4 or not all(line.startswith("PASS") for line in lines):
                problems.append(f"{label}: exit code {res.code}, output {lines}")
                continue
            sums = checks.exhaustive_sums(sweeps[key], t)
            oracle = checks.exhaustive_report(net.n, sums)
            if oracle["violations"]:
                problems.append(f"{label}: PASS claims conservative, {oracle['violations']} pairs are not")
            if not lines[3].endswith(f"  fast sae={oracle['sae']} oracle sae={oracle['sae']}"):
                problems.append(f"{label}: '{lines[3]}' but exhaustive sae={oracle['sae']}")
            exact = checks.ExactStats(net.n, checks.probe_tables(net, [t])[t])
            problems += [f"{label}: {p}" for p in exact.problems()]
            if (exact.sae, exact.mse, exact.max_abs) != (oracle["sae"], oracle["mse"], oracle["max_abs"]):
                problems.append(f"{label}: chain-model statistics differ from exhaustive simulation")
            if t >= self.arrival[key] and oracle["max_abs"]:
                problems.append(f"{label}: nonzero error at or past the static arrival time")
            pairs = checks.sample_pairs(net.n, self.rng, self.samples)
            simulated = checks.simulated_errors(net, pairs, [t])[t]
            for p, e in zip(pairs, simulated):
                if p.a + p.b - int(sums[p.a + (p.b << net.n)]) != e:
                    problems.append(f"{label}: PairSweep and simulate disagree on ({p.a}, {p.b})")
                    break
        fvo = outcomes[-1]
        if fvo.code != 0 or not fvo.out.startswith("PASS") or len(fvo.out.splitlines()) != 1:
            problems.append(f"verify --fast-vs-oracle: exit code {fvo.code}, output {fvo.out!r}")
        rng = random.Random(0)  # the CLI's default --seed
        for _ in range(self.fvo_tables):
            ec = random_realizable_table(self.n, rng)
            exact = checks.ExactStats(self.n, dict(ec.nonzero()))
            fast = (er_avg_fast(ec).sae, mse_fast(ec), max_abs_error(ec)[0])
            if exact.problems() or (exact.sae, exact.mse, exact.max_abs) != fast:
                problems.append("verify --fast-vs-oracle: fast path differs from the exact DP")
        return 0, problems


WORKLOADS = {w.name: w for w in (PointKsa64, SweepRca32, VerifyN10)}
