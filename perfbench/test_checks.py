"""Self-test of the benchmark's checkers.

Honest CLI outputs must pass; a chain-error table with one entry
changed, a statistic off by one and a wrong CLI row must each make a
checker report a failure.  The workloads run here at small widths.

Run from the repository root::

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from pseudoadder.cli import main  # noqa: E402
from pseudoadder.generators import staggered_ksa8  # noqa: E402
from pseudoadder.tables import random_realizable_table  # noqa: E402
from run import call_cli  # noqa: E402


class SmallKsa(workloads.PointKsa64):
    n = 8
    probe_checks = 8


class SmallSweep(workloads.SweepRca32):
    n = 8
    rows = 16


class SmallVerify(workloads.VerifyN10):
    n = 6


def run_ops(cls, workdir: Path, seed: int = 3):
    """Generate the workload's netlists and run one round of commands."""
    workload = cls(seed, workdir)
    for argv in workload.gen_commands():
        assert call_cli(main, argv)[0] == 0
    return [workloads.Outcome(*call_cli(main, op.argv)) for op in workload.ops()]


def check(cls, workdir: Path, outcomes, seed: int = 3):
    """A fresh workload object, so every check sees the same samples."""
    return cls(seed, workdir).check(outcomes)


def edit_json(outcome, change):
    data = json.loads(outcome.out)
    change(data)
    return workloads.Outcome(outcome.code, json.dumps(data), outcome.err)


def brute_force(n: int, table: dict):
    errors, law = [], True
    for a in range(1 << n):
        for b in range(1 << n):
            terms = [table.get(c, 0) for c in checks.chains_of(n, a, b)]
            e = sum(terms)
            leftmost = next((t for t in reversed(terms) if t), 0)  # highest start
            law &= e * leftmost >= 0 and (leftmost != 0 or e == 0)
            errors.append(e)
    return errors, law


@pytest.mark.parametrize("n", range(1, 6))
def test_exact_dp_matches_enumeration(n):
    rng = random.Random(n)
    realizable = {c: e for c, e in random_realizable_table(n, rng).nonzero()}
    arbitrary = {
        (i, j): rng.randrange(-(1 << n), 1 << n)
        for i in range(1, n + 1) for j in range(i, n + 1) if rng.random() < 0.7
    }
    for table in (realizable, arbitrary):
        errors, law = brute_force(n, table)
        exact = checks.ExactStats(n, table)
        assert exact.pairs_counted == 4**n
        assert exact.sign_law == law
        assert exact.mse == Fraction(sum(e * e for e in errors), 4**n)
        assert exact.max_abs == max(abs(e) for e in errors)
        if law:
            assert exact.sae == sum(abs(e) for e in errors)
    assert checks.ExactStats(n, realizable).sign_law


@pytest.mark.parametrize("cls", [SmallKsa, SmallSweep, SmallVerify])
def test_honest_outputs_pass(cls, tmp_path):
    _, problems = check(cls, tmp_path, run_ops(cls, tmp_path))
    assert problems == []


def test_changed_table_entry_fails_decomposition():
    net = staggered_ksa8()
    table = checks.probe_tables(net, [7])[7]
    pairs = checks.sample_pairs(8, random.Random(1), 200)
    errors = checks.simulated_errors(net, pairs, [7])[7]
    assert checks.check_decomposition("ksa8", 8, table, pairs, errors) == []
    chain = next(c for p in pairs for c in checks.chains_of(8, p.a, p.b) if c in table)
    changed = {**table, chain: table[chain] + 1}
    assert checks.check_decomposition("ksa8", 8, changed, pairs, errors)


def test_changed_table_entry_in_stats_output_fails(tmp_path):
    outcomes = run_ops(SmallKsa, tmp_path)

    def bump_entry(data):
        data["ec"]["ec"][0]["value"] += 1

    _, problems = check(SmallKsa, tmp_path, [edit_json(outcomes[0], bump_entry)] + outcomes[1:])
    assert problems


@pytest.mark.parametrize("field", ["sae", "max_abs_error"])
def test_stats_off_by_one_fails(tmp_path, field):
    outcomes = run_ops(SmallKsa, tmp_path)

    def off_by_one(data):
        data["stats"][field] += 1

    _, problems = check(SmallKsa, tmp_path, outcomes[:2] + [edit_json(outcomes[2], off_by_one)])
    assert problems


@pytest.mark.parametrize("field", ["sae", "mse_num", "max_abs_error"])
def test_sweep_row_off_by_one_fails(tmp_path, field):
    outcomes = run_ops(SmallSweep, tmp_path)

    def off_by_one(data):
        data["rows"][len(data["rows"]) // 2][field] += 1

    for k in range(2):
        edited = list(outcomes)
        edited[k] = edit_json(outcomes[k], off_by_one)
        _, problems = check(SmallSweep, tmp_path, edited)
        assert problems, f"sweep {k}"


def test_wrong_sweep_row_fails(tmp_path):
    outcomes = run_ops(SmallSweep, tmp_path)

    def swap(data):
        rows = data["rows"]
        rows[1] = dict(rows[2], T=rows[1]["T"])

    for k in range(2):
        edited = list(outcomes)
        edited[k] = edit_json(outcomes[k], swap)
        _, problems = check(SmallSweep, tmp_path, edited)
        assert problems, f"sweep {k}"


def test_verify_sae_off_by_one_fails(tmp_path):
    outcomes = run_ops(SmallVerify, tmp_path)
    lines = outcomes[0].out.splitlines()
    sae = int(lines[3].rsplit("=", 1)[1])
    lines[3] = lines[3].replace(f"={sae}", f"={sae + 1}")
    edited = [workloads.Outcome(0, "\n".join(lines) + "\n", "")] + outcomes[1:]
    _, problems = check(SmallVerify, tmp_path, edited)
    assert problems


def test_claims_bounds_and_quiescence():
    half = Fraction(1, 2)
    assert checks.check_claims("x", half, Fraction(1), 2, [0, 1], False) == []
    assert checks.check_claims("x", half, Fraction(5), 2, [0, 1], False)  # mse > max^2
    assert checks.check_claims("x", half, Fraction(1, 8), 2, [0, 1], False)  # mse < er_avg^2
    assert checks.check_claims("x", half, Fraction(1), 2, [0, 3], False)  # sample beyond max
    assert checks.check_claims("x", half, Fraction(1), 2, [0, 1], True)  # nonzero at quiescence


def test_witness_off_by_one_fails():
    net = staggered_ksa8()
    table = checks.probe_tables(net, [7])[7]
    exact = checks.ExactStats(8, table)
    from pseudoadder.maxerror import max_abs_error
    from pseudoadder.model import ChainErrorTable

    _, witness = max_abs_error(ChainErrorTable(8, table))
    assert checks.check_witness("ksa8", net, 7, exact.max_abs, witness) == []
    assert checks.check_witness("ksa8", net, 7, exact.max_abs + 1, witness)
