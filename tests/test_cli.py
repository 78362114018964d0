import csv
import io
import json

import pytest

from pseudoadder import Netlist, generate_rca, staggered_ksa8
from pseudoadder.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_rca_roundtrips(capsys, tmp_path):
    out_file = tmp_path / "rca.json"
    code, _, _ = run_cli(
        capsys,
        "gen", "rca", "--n", "4",
        "--carry-delays", "1,1,1,1",
        "--sum-delays", "1,1,1,1,1",
        "-o", str(out_file),
    )
    assert code == 0
    net = Netlist.from_json(out_file.read_text())
    assert net.n == 4


def test_gen_ksa_uniform(capsys):
    code, out, _ = run_cli(capsys, "gen", "ksa", "--n", "8", "--delay", "uniform:1")
    assert code == 0
    net = Netlist.from_json(out)
    assert net.n == 8


def test_gen_ksa_rejects_non_power_of_two(capsys):
    code, _, err = run_cli(capsys, "gen", "ksa", "--n", "12", "--delay", "uniform:1")
    assert code == 1
    assert "power of two" in err


def test_gen_rca_rejects_bad_delay_count(capsys):
    code, _, err = run_cli(
        capsys,
        "gen", "rca", "--n", "4",
        "--carry-delays", "1,1,1",
        "--sum-delays", "uniform:1",
    )
    assert code == 1
    assert "expected 4" in err


def test_gen_refuses_the_other_kinds_delay_options(capsys):
    for argv, option in (
        (("rca", "--n", "2", "--delay", "uniform:5"), "--delay"),
        (("ksa", "--n", "2", "--carry-delays", "9,9"), "--carry-delays"),
        (("ksa", "--n", "2", "--sum-delays", "9,9,9"), "--sum-delays"),
    ):
        code, out, err = run_cli(capsys, "gen", *argv)
        assert (code, out) == (1, "")
        assert err == f"error: gen {argv[0]} does not take {option}\n"


def write_staggered(tmp_path):
    path = tmp_path / "ksa.json"
    path.write_text(staggered_ksa8().to_json())
    return str(path)


def test_stats_json_and_csv_agree(capsys, tmp_path):
    netlist = write_staggered(tmp_path)
    code, out_json, _ = run_cli(capsys, "stats", "--netlist", netlist, "-T", "7")
    assert code == 0
    payload = json.loads(out_json)
    code, out_csv, _ = run_cli(
        capsys, "stats", "--netlist", netlist, "-T", "7", "--format", "csv"
    )
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out_csv)))
    assert int(row["sae"]) == payload["stats"]["sae"]
    assert int(row["max_abs_error"]) == payload["stats"]["max_abs_error"]
    assert float(row["er_avg"]) == payload["stats"]["er_avg"]["float"]
    assert int(row["mse_num"]) == payload["stats"]["mse"]["numerator"]
    # the staggered table at T=7 carries the two worked-example entries
    entries = {(e["i"], e["j"]): e["value"] for e in payload["ec"]["ec"]}
    assert entries[(2, 4)] == 16
    assert entries[(5, 7)] == -96


def test_stats_ksa64_is_one_exact_line_in_bounded_memory(capsys, tmp_path):
    import tracemalloc

    path = tmp_path / "ksa64.json"
    run_cli(capsys, "gen", "ksa", "--n", "64", "-o", str(path))
    tracemalloc.start()
    try:
        code = main(["stats", "--netlist", str(path), "-T", "2"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0
    # an indented (pure-Python) encode of the report with float tally
    # maps peaked at 10.9 MB; the compact, exact-only one at 5.5 MB
    assert peak < 7_000_000, f"stats peaked at {peak / 1e6:.1f} MB"
    assert out.endswith("\n") and out.count("\n") == 1
    payload = json.loads(out)
    stats = payload["stats"]
    assert "p_plus" not in stats and "p_minus" not in stats
    # tallies cover exactly the erring chains of the table
    erring = [(e["i"], e["j"]) for e in payload["ec"]["ec"]]
    assert erring
    for key in ("nu_plus", "nu_minus"):
        assert [(e["i"], e["j"]) for e in stats[key]] == erring


def test_verify_rca10_in_bounded_memory(capsys, tmp_path):
    import tracemalloc

    from pseudoadder import generate_rca

    path = tmp_path / "rca10.json"
    path.write_text(generate_rca(10, [1] * 10, [1] * 11).to_json())
    tracemalloc.start()
    try:
        # T=11 is quiescence: the exhaustive check covers every output step
        code = main(["verify", "--netlist", str(path), "-T", "11"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0, out
    assert "PASS  fast statistics equal exhaustive simulation" in out
    # keeping every output's whole waveform over the 4^10 lanes peaked at
    # 15.3 MB; keeping only the masks at T, at 8.8 MB
    assert peak < 10_000_000, f"verify peaked at {peak / 1e6:.1f} MB"


def test_json_outputs_are_one_line(capsys, tmp_path):
    netlist = write_staggered(tmp_path)
    for argv in (
        ("gen", "ksa", "--n", "8"),
        ("ec", "--netlist", netlist, "-T", "7"),
        ("trace", "--netlist", netlist, "-a", "86", "-b", "59"),
        ("sweep", "--netlist", netlist, "--t-range", "0..quiescence", "--format", "json"),
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.endswith("\n") and out.count("\n") == 1, argv
        assert isinstance(json.loads(out), dict)


def test_ec_command(capsys, tmp_path):
    netlist = write_staggered(tmp_path)
    code, out, _ = run_cli(capsys, "ec", "--netlist", netlist, "-T", "7")
    assert code == 0
    data = json.loads(out)
    assert {"i": 5, "j": 7, "value": -96} in data["ec"]


def test_chains_command(capsys):
    code, out, _ = run_cli(capsys, "chains", "--n", "8", "-a", "86", "-b", "59")
    assert code == 0
    assert json.loads(out)["chains"] == [[2, 4], [5, 7]]


def test_trace_command_rows(capsys, tmp_path):
    netlist = write_staggered(tmp_path)
    code, out, _ = run_cli(
        capsys,
        "trace", "--netlist", netlist, "-a", "86", "-b", "59",
        "--times", "0,1,7,10", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["time"], r["s_prime"], r["error"]) for r in rows] == [
        ("0", "0", "145"),
        ("1", "109", "36"),
        ("7", "225", "-80"),
        ("10", "145", "0"),
    ]
    assert rows[2]["c_prime"] == "010001100"


def test_sweep_reaches_zero_at_quiescence(capsys, tmp_path):
    netlist = write_staggered(tmp_path)
    code, out, _ = run_cli(
        capsys,
        "sweep", "--netlist", netlist, "--t-range", "0..quiescence", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 12
    assert rows[-1]["sae"] == "0" and rows[-1]["max_abs_error"] == "0"
    assert int(rows[0]["sae"]) > 0


def test_quiescence_stop_is_sound_on_random_netlists():
    import random

    from pseudoadder import KsaDelays, generate_ksa, generate_rca
    from pseudoadder.cli import _parse_t_range
    from pseudoadder.sweep import PairSweep
    from test_sweep_engine import random_netlist

    rng = random.Random(8)
    for _ in range(20):
        net = random_netlist(rng.choice([1, 2, 3]), rng)
        stop = _parse_t_range("0..quiescence", net)[-1]
        # no sum bit of any pair changes after the stop
        assert stop >= PairSweep(net).output_change_times()[-1]

    def draw():
        return tuple(rng.randint(1, 3) for _ in range(8))

    adders = [staggered_ksa8(), generate_ksa(8, 1), generate_rca(8, [1] * 8, [1] * 9)]
    for _ in range(6):
        stages = [rng.randint(0, 3) for _ in range(7)]
        adders.append(generate_rca(6, stages[:6], stages))
        adders.append(generate_ksa(8, KsaDelays(draw(), (draw(), draw(), draw()), draw() + (1,))))
    for net in adders:
        # on adders the static stop is exactly the all-pairs quiescence
        assert _parse_t_range("0..quiescence", net)[-1] == PairSweep(net).quiescence_time()


def test_model_errors_exit_cleanly(capsys, tmp_path):
    from test_analysis import inverted_carry_rca2

    path = tmp_path / "bad.json"
    path.write_text(inverted_carry_rca2().to_json())
    for command in ("stats", "ec"):
        code, out, err = run_cli(capsys, command, "--netlist", str(path), "-T", "1000")
        assert code == 1
        assert out == ""
        assert err.startswith("error: probe for chain") and "Traceback" not in err

    # malformed netlist and delay files name the fault, without a traceback
    no_kind = {"n": 1, "gates": [{"id": "a0"}], "outputs": {}}
    rca1 = generate_rca(1, [2], [1, 1]).to_json()
    for text, fault in (
        ("{}", "missing key 'gates'"),
        (json.dumps(no_kind), "missing key 'kind'"),
        ("[1]", "list indices must be integers"),
        (rca1.replace('"kind": "MAJ3"', '"kind": "FOO"'), "gate 'c1': 'FOO' is not a valid GateKind"),
        (rca1.replace('"delay": 2', '"delay": "abc"'), "gate 'c1': Invalid literal for Fraction: 'abc'"),
        (rca1.replace('"inputs": ["a0", "b0", "zero"]', '"inputs": ["a0"]'),
         "gate 'c1': kind MAJ3 takes 3 inputs, got 1"),
    ):
        path.write_text(text)
        code, out, err = run_cli(capsys, "stats", "--netlist", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: malformed netlist JSON: {fault}")
    path.write_text('{"pg": [1, 1], "prefix": 3, "sum": [1, 1, 1]}')
    code, out, err = run_cli(capsys, "gen", "ksa", "--n", "2", "--delay", f"file:{path}")
    assert (code, out) == (1, "")
    assert err.startswith("error: malformed KSA delay JSON: 'int' object is not iterable")
    path.write_text('{"pg": [1, "abc"], "prefix": [[1, 1]], "sum": [1, 1, 1]}')
    code, out, err = run_cli(capsys, "gen", "ksa", "--n", "2", "--delay", f"file:{path}")
    assert (code, out) == (1, "")
    assert err.startswith("error: malformed KSA delay JSON: Invalid literal for Fraction: 'abc'")
    for text, fault in (("5", "'int' object is not iterable"), ("[1, -2]", "delay must be non-negative")):
        path.write_text(text)
        code, out, err = run_cli(capsys, "gen", "rca", "--n", "2", "--carry-delays", f"file:{path}")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: malformed delay list JSON: {fault}")


def test_stats_refuses_a_table_that_breaks_the_sign_law(capsys, monkeypatch, tmp_path):
    from pseudoadder import CarryChain, ChainErrorTable

    # pairs generating both chains err by +1 under a negative leftmost
    # chain: no conservative adder realizes this table
    bad = ChainErrorTable(2, {CarryChain(1, 1): 2, CarryChain(2, 2): -1})
    monkeypatch.setattr("pseudoadder.cli.extract_ec_table", lambda net, t: bad)
    netlist = write_staggered(tmp_path)
    for fmt in ("json", "csv"):
        code, out, err = run_cli(capsys, "stats", "--netlist", netlist, "-T", "7", "--format", fmt)
        assert (code, out) == (1, "")
        assert err.startswith("error: chain-error table breaks the sign law")
        assert "Traceback" not in err


def test_verify_pass_and_exit_codes(capsys, tmp_path):
    netlist = write_staggered(tmp_path)
    code, out, _ = run_cli(capsys, "verify", "--netlist", netlist, "-T", "7")
    assert code == 0
    assert "FAIL" not in out
    assert "fast statistics equal exhaustive simulation" in out

    code, out, _ = run_cli(capsys, "verify", "--netlist", netlist, "-T", "0")
    assert code == 1
    assert "FAIL" in out


def test_verify_fast_vs_oracle(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--fast-vs-oracle", "--n", "5", "--tables", "6", "--seed", "3"
    )
    assert code == 0
    assert "PASS" in out


def test_verify_fast_vs_oracle_respects_limit(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--fast-vs-oracle", "--n", "6", "--tables", "2", "--exhaustive-n-limit", "4"
    )
    assert code == 1
    assert out == "FAIL  fast-vs-oracle  n=6 above --exhaustive-n-limit 4\n"


def unit_rca(tmp_path, n):
    from pseudoadder import generate_rca

    path = tmp_path / f"rca{n}.json"
    path.write_text(generate_rca(n, [1] * n, [1] * (n + 1)).to_json())
    return str(path)


def test_verify_above_the_limit_is_sampled_and_runs_no_oracle(capsys, sweeps_built, tmp_path):
    # n=6 above a limit of 4: the conservative check is sampled, and no
    # all-pairs sweep is built for an oracle either
    netlist = unit_rca(tmp_path, 6)
    code, out, _ = run_cli(capsys, "verify", "--netlist", netlist, "-T", "7", "--exhaustive-n-limit", "4")
    assert code == 0, out
    assert not any(all_pairs for all_pairs, _ in sweeps_built), sweeps_built
    assert out.splitlines() == [
        "PASS  conservative (no spurious carries)",
        "PASS  commutativity",
        "PASS  lower-position independence",
    ]


def test_verify_within_a_raised_limit_runs_the_oracle_on_the_checked_sweep(capsys, sweeps_built, tmp_path):
    # n=11 within a limit of 11: one all-pairs sweep serves the
    # conservative check and the oracle
    netlist = unit_rca(tmp_path, 11)
    code, out, _ = run_cli(capsys, "verify", "--netlist", netlist, "-T", "12", "--exhaustive-n-limit", "11")
    assert code == 0, out
    assert "PASS  fast statistics equal exhaustive simulation  fast sae=0 oracle sae=0" in out
    assert [times for all_pairs, times in sweeps_built if all_pairs] == [[12]]
    assert sweeps_built[0][0], sweeps_built


def test_verify_force_is_gone(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "--fast-vs-oracle", "--n", "4", "--tables", "1", "--force"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --force" in capsys.readouterr().err


def test_verify_faulty_netlist_fails(capsys, tmp_path):
    from test_analysis import inverted_carry_rca2

    path = tmp_path / "bad.json"
    path.write_text(inverted_carry_rca2().to_json())
    code, out, _ = run_cli(capsys, "verify", "--netlist", str(path), "-T", "1000")
    assert code == 1
    assert "FAIL  conservative" in out


def test_gen_with_file_delay_specs(capsys, tmp_path):
    carries = tmp_path / "c.json"
    carries.write_text("[1, 2, 1, 1]")
    sums = tmp_path / "s.json"
    sums.write_text("[0, 1, 0, 1, 0]")
    code, out, _ = run_cli(
        capsys,
        "gen", "rca", "--n", "4",
        "--carry-delays", f"file:{carries}",
        "--sum-delays", f"file:{sums}",
    )
    assert code == 0
    net = Netlist.from_json(out)
    assert {g.id: g.delay for g in net.gates}["c2"] == 2

    ksa_delays = tmp_path / "k.json"
    from pseudoadder import staggered_ksa8_delays

    ksa_delays.write_text(json.dumps(staggered_ksa8_delays().to_json_dict()))
    code, out, _ = run_cli(
        capsys, "gen", "ksa", "--n", "8", "--delay", f"file:{ksa_delays}"
    )
    assert code == 0
    assert Netlist.from_json(out).to_json_dict() == staggered_ksa8().to_json_dict()


def test_verify_sampled_mode_for_wide_netlists(capsys, tmp_path):
    netlist = write_staggered(tmp_path)
    code, out, _ = run_cli(
        capsys,
        "verify", "--netlist", netlist, "-T", "7",
        "--exhaustive-n-limit", "4", "--samples", "32", "--seed", "1",
    )
    assert code == 0
    assert "PASS  conservative" in out


def test_verify_rejects_zero_samples(capsys, tmp_path):
    # a sampled check over no pairs would print PASS on a failing adder
    path = tmp_path / "rca6.json"
    run_cli(capsys, "gen", "rca", "--n", "6", "-o", str(path))
    sampled = ("verify", "--netlist", str(path), "-T", "0", "--exhaustive-n-limit", "4")
    code, out, _ = run_cli(capsys, *sampled, "--samples", "128")
    assert code == 1
    assert "FAIL  conservative" in out
    for samples in ("0", "-3"):
        code, out, err = run_cli(capsys, *sampled, "--samples", samples)
        assert code == 1
        assert out == ""
        assert err == f"error: --samples must be at least 1, got {samples}\n"


def test_verify_rejects_zero_tables(capsys):
    code, out, err = run_cli(capsys, "verify", "--fast-vs-oracle", "--n", "6", "--tables", "0")
    assert code == 1
    assert out == ""
    assert err == "error: --tables must be at least 1, got 0\n"
