import contextlib
import csv
import io
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pseudoadder import SAMPLES, InputPair, Netlist, generate_ksa, generate_rca, simulate, staggered_ksa8, validity
from pseudoadder.analysis import _sample_words
from pseudoadder.cli import JSON_SLICE, _emit_json, main

from conftest import traced_sum


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


def test_gen_rca_rejects_bad_delay_count(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "gen", "rca", "--n", "4",
        "--carry-delays", "1,1,1",
        "--sum-delays", "uniform:1",
    )
    assert code == 1
    assert "expected 4" in err
    # a file list is counted like a comma list, naming its option
    path = tmp_path / "sums.json"
    path.write_text("[1, 1, 1, 1]")
    code, out, err = run_cli(capsys, "gen", "rca", "--n", "4", "--sum-delays", f"file:{path}")
    assert (code, out, err) == (1, "", "error: --sum-delays: expected 5 delays, got 4\n")


def test_gen_refuses_the_other_kinds_delay_options(capsys):
    for argv, option in (
        (("rca", "--n", "2", "--delay", "uniform:5"), "--delay"),
        (("ksa", "--n", "2", "--carry-delays", "9,9"), "--carry-delays"),
        (("ksa", "--n", "2", "--sum-delays", "9,9,9"), "--sum-delays"),
    ):
        # each kind is a subcommand owning its options; it refuses the
        # rest itself, under its own usage line
        with pytest.raises(SystemExit) as exit_:
            main(["gen", *argv])
        out, err = capsys.readouterr()
        assert (exit_.value.code, out) == (2, "")
        assert err.startswith(f"usage: pseudoadder gen {argv[0]} [-h] --n N [-o OUTPUT]"), err
        assert err.endswith(f"\npseudoadder gen {argv[0]}: error: unrecognized arguments: {option} {argv[-1]}\n")


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
    main(["stats", "--netlist", str(path), "-T", "2"])  # warm: imports are not the command's
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(["stats", "--netlist", str(path), "-T", "2"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0
    # an indented (pure-Python) encode of the report with float tally
    # maps peaked at 10.9 MB; the compact, exact-only one at 5.5 MB; one
    # json.dumps of the compact line, with its encoder's chunk list, at
    # 5.0 MB; the line written slice by slice, without the netlist held,
    # at 2.02-2.07 MB; with the chain-entry lists made one slice at a time
    # from the table's and the report's maps, at 1.35 MB; with each name
    # held once, no fanout tuples and the probe words transposed in
    # chunks, at 1.12 MB; warm, at 1.03-1.06 MB; with the table and the
    # tallies as lists in chain order, at 0.71-0.74 MB
    assert peak < 850_000, f"stats peaked at {peak / 1e6:.3f} MB"
    assert out.endswith("\n") and out.count("\n") == 1
    payload = json.loads(out)
    stats = payload["stats"]
    assert "p_plus" not in stats and "p_minus" not in stats
    # tallies cover exactly the erring chains of the table
    erring = [(e["i"], e["j"]) for e in payload["ec"]["ec"]]
    assert erring
    for key in ("nu_plus", "nu_minus"):
        assert [(e["i"], e["j"]) for e in stats[key]] == erring


def test_gen_ksa64_to_a_file_in_bounded_memory(tmp_path):
    import tracemalloc

    path = tmp_path / "ksa64.json"
    tracemalloc.start()
    try:
        code = main(["gen", "ksa", "--n", "64", "-o", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    # one json.dumps of the 1,222 gates peaked at 1.57 MB; slices of
    # JSON_SLICE gates and slotted gates, at 0.84-0.98 MB; the gate dicts
    # streamed into those slices, each name held once and no fanout
    # tuples, at 0.50-0.59 MB
    assert peak < 750_000, f"gen peaked at {peak / 1e6:.2f} MB"
    assert Netlist.from_json(path.read_text()).n == 64


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
    # 15.3 MB; keeping only the masks at T, at 8.8 MB; one lane block of
    # 4^8 lanes at a time, at 0.9 MB
    assert peak < 2_000_000, f"verify peaked at {peak / 1e6:.1f} MB"


def test_sweep_rca32_in_bounded_memory(capsys, tmp_path):
    import tracemalloc

    from pseudoadder import generate_rca

    path, out = tmp_path / "rca32.json", tmp_path / "sweep.json"
    path.write_text(generate_rca(32, [1] * 32, [1] * 33).to_json())
    main(["sweep", "--netlist", str(path), "--t-range", "0..quiescence", "-o", str(out)])  # warm
    tracemalloc.start()
    try:
        code = main(["sweep", "--netlist", str(path), "--t-range", "0..quiescence", "-o", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().err
    assert len(json.loads(out.read_text())["rows"]) == 34
    # holding the table of every read time at once peaked at 1.35 MB;
    # one table at a time, at 0.68 MB; warm, at 0.30 MB; each table one
    # list in chain order, built unchecked from the probe sums, at 0.18 MB
    assert peak < 250_000, f"sweep peaked at {peak / 1e6:.3f} MB"


class RecordingStdout(io.StringIO):
    """stdout that records the length of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def test_json_outputs_are_one_line(tmp_path, monkeypatch):
    """Every JSON command writes one line that json round-trips, the same
    to stdout and through -o; a long line is written in slices."""
    ksa64 = tmp_path / "ksa64.json"
    assert main(["gen", "ksa", "--n", "64", "-o", str(ksa64)]) == 0
    rca10 = tmp_path / "rca10.json"
    rca10.write_text(generate_rca(10, [Fraction(k % 7 + 1, 7) for k in range(10)], [Fraction(3, 7)] * 11).to_json())
    ksa8 = write_staggered(tmp_path)
    commands = [
        ("gen", "rca", "--n", "10"),
        ("gen", "ksa", "--n", "64"),
        ("stats", "--netlist", str(ksa64), "-T", "2"),
        ("stats", "--netlist", str(ksa64), "-T", "8"),
        ("ec", "--netlist", str(ksa64), "-T", "2"),
        ("chains", "--n", "8", "-a", "86", "-b", "59"),
        ("trace", "--netlist", ksa8, "-a", "86", "-b", "59"),
        ("trace", "--netlist", str(rca10), "-a", "1000", "-b", "24", "--times", "0,3/7,1,2"),
        # 0..11 in steps of 1/25: 276 rows, more than one slice
        ("sweep", "--netlist", ksa8, "--t-range", "0..quiescence:1/25", "--format", "json"),
    ]
    for argv in commands:
        stdout = RecordingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(list(argv)) == 0, argv
        out = stdout.getvalue()
        assert out.endswith("\n") and out.count("\n") == 1, argv
        assert isinstance(json.loads(out), dict), argv
        assert json.dumps(json.loads(out)) + "\n" == out, argv
        # gen, stats and ec on KSA-64 (78-275 KB) are written in pieces of
        # JSON_SLICE list items, never as one string
        if len(out) > 50_000:
            assert max(stdout.sizes) < len(out) // 4, (argv, max(stdout.sizes))
        path = tmp_path / "out.json"
        assert main([*argv, "-o", str(path)]) == 0, argv
        assert path.read_text() == out, argv
        if argv[0] == "sweep":
            assert len(json.loads(out)["rows"]) == 276 > JSON_SLICE


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


def test_trace_default_times_are_the_sum_changes(capsys, tmp_path):
    # every column is a function of the sums, so a row at any other time
    # would repeat its predecessor; the event oracle gives the times
    for net, a, b in ((staggered_ksa8(), 86, 59), (generate_ksa(64, 1), 2**63 - 1, 1)):
        path = tmp_path / "net.json"
        path.write_text(net.to_json())
        code, out, _ = run_cli(capsys, "trace", "--netlist", str(path), "-a", str(a), "-b", str(b))
        assert code == 0
        rows = json.loads(out)["rows"]
        trace = simulate(net, InputPair(net.n, a, b))
        changes = {0}.union(*({t for t, _ in trace.transitions[gid]} for gid in net.outputs.values()))
        assert [Fraction(r["time"]) for r in rows] == sorted(changes)
        assert [int(r["s_prime"]) for r in rows] == [traced_sum(trace, net, t) for t in sorted(changes)]
        assert all((r["s_prime"], r["c_prime"]) != (q["s_prime"], q["c_prime"]) for q, r in zip(rows, rows[1:]))


def test_netlist_from_stdin_prints_what_the_path_prints(capsys, tmp_path, monkeypatch):
    path = tmp_path / "ksa8.json"
    path.write_text(staggered_ksa8().to_json())
    for argv in (("stats", "-T", "2"), ("verify", "-T", "5")):
        by_path = run_cli(capsys, *argv, "--netlist", str(path))
        monkeypatch.setattr(sys, "stdin", io.StringIO(path.read_text()))
        assert run_cli(capsys, *argv, "--netlist", "-") == by_path, argv
        assert by_path[0] == 0 and by_path[1], argv


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
        assert _parse_t_range("0..quiescence", net)[-1] == PairSweep(net).output_change_times()[-1]


def test_model_errors_exit_cleanly(capsys, tmp_path):
    from test_analysis import inverted_carry_rca2

    path = tmp_path / "bad.json"
    path.write_text(inverted_carry_rca2().to_json())
    for command in ("stats", "ec"):
        code, out, err = run_cli(capsys, command, "--netlist", str(path), "-T", "1000")
        assert code == 1
        assert json.loads(out)["ec"] is None  # the verdict is still written
        assert err.startswith("error: probe for chain") and "Traceback" not in err

    # malformed netlist and delay files name the fault, without a traceback
    no_kind = {"n": 1, "gates": [{"id": "a0"}], "outputs": {}}
    rca1 = generate_rca(1, [2], [1, 1]).to_json()
    for text, fault in (
        ("{}", "missing key 'gates'"),
        (json.dumps(no_kind), "missing key 'kind'"),
        ("[1]", "list indices must be integers"),
        (rca1.replace('"kind": "MAJ3"', '"kind": "FOO"'), "gate 'c1': 'FOO' is not a valid GateKind"),
        (rca1.replace('"kind": "MAJ3"', '"kind": ["MAJ3"]'), "gate 'c1': ['MAJ3'] is not a valid GateKind"),
        (rca1.replace('"delay": 2', '"delay": "abc"'), "gate 'c1': cannot interpret delay 'abc'"),
        (rca1.replace('"delay": 2', '"delay": "1/0"'), "gate 'c1': cannot interpret delay '1/0'"),
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
    assert err == "error: --delay: malformed KSA delay JSON: prefix must be a list, got 3\n"
    path.write_text('{"pg": [1, "abc"], "prefix": [[1, 1]], "sum": [1, 1, 1]}')
    code, out, err = run_cli(capsys, "gen", "ksa", "--n", "2", "--delay", f"file:{path}")
    assert (code, out) == (1, "")
    assert err == "error: --delay: malformed KSA delay JSON: cannot interpret delay 'abc'\n"
    for text, fault in (("5", "delays must be a list, got 5"), ("[1, -2]", "delay must be non-negative")):
        path.write_text(text)
        code, out, err = run_cli(capsys, "gen", "rca", "--n", "2", "--carry-delays", f"file:{path}")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: --carry-delays: malformed delay list JSON: {fault}")
    # a zero denominator is refused like any other bad number
    path.write_text(rca1)
    for argv in (
        ("gen", "ksa", "--n", "2", "--delay", "uniform:1/0"),
        ("gen", "rca", "--n", "1", "--carry-delays", "1/0"),
    ):
        assert run_cli(capsys, *argv) == (1, "", f"error: {argv[-2]}: cannot interpret delay '1/0'\n"), argv


def test_a_source_gate_with_a_delay_is_refused(capsys, tmp_path):
    # both simulators apply a source at t=0, so this file's arrival time
    # would be 6 while its last output change is at 1, and
    # 0..quiescence would read 5 rows past quiescence
    path = tmp_path / "late_a0.json"
    path.write_text(generate_rca(1, [1], [1, 1]).to_json().replace(
        '{"id": "a0", "kind": "INPUT", "inputs": [], "delay": 0}', '{"id": "a0", "kind": "INPUT", "inputs": [], "delay": 5}'))
    assert run_cli(capsys, "sweep", "--netlist", str(path), "--t-range", "0..quiescence") == (
        1, "", "error: malformed netlist JSON: gate 'a0': source gate INPUT takes no delay, got 5\n")


def test_a_delay_file_holding_a_string_is_refused(capsys, tmp_path):
    # a JSON string is iterable, but it is not a list of delays
    path = tmp_path / "sums.json"
    path.write_text('"12"')
    assert run_cli(capsys, "gen", "rca", "--n", "1", "--sum-delays", f"file:{path}") == (
        1, "", "error: --sum-delays: malformed delay list JSON: delays must be a list, got '12'\n")


def test_a_ksa_delay_file_with_a_string_row_is_refused(capsys, tmp_path):
    path = tmp_path / "ksa.json"
    for text, row in (('{"pg": "11", "prefix": [[1, 1]], "sum": [1, 1, 1]}', "pg must be a list, got '11'"),
                      ('{"pg": [1, 1], "prefix": ["11"], "sum": [1, 1, 1]}', "prefix row must be a list, got '11'"),
                      ('{"pg": [1, 1], "prefix": [[1, 1]], "sum": "111"}', "sum must be a list, got '111'")):
        path.write_text(text)
        assert run_cli(capsys, "gen", "ksa", "--n", "2", "--delay", f"file:{path}") == (
            1, "", f"error: --delay: malformed KSA delay JSON: {row}\n")


def test_bad_delay_text_names_its_option(capsys):
    # as a bad read time names -T (test_read_time_errors_name_their_option)
    for argv in (("ksa", "--n", "8", "--delay", "uniform:x"), ("rca", "--n", "1", "--carry-delays", "x"),
                 ("rca", "--n", "1", "--sum-delays", "1,x"), ("rca", "--n", "1", "--sum-delays", "uniform:x")):
        assert run_cli(capsys, "gen", *argv) == (1, "", f"error: {argv[-2]}: cannot interpret delay 'x'\n"), argv


def test_unparseable_delay_text_is_refused_as_a_delay():
    from pseudoadder import Gate, GateKind
    from pseudoadder.netlist import as_delay

    for text in ("x", "1/0", "nan", "inf", ""):
        with pytest.raises(ValueError, match=f"^cannot interpret delay {text!r}$"):
            as_delay(text)
    with pytest.raises(ValueError, match="^gate 'g': cannot interpret delay 'abc'$"):
        Gate("g", GateKind.BUF, ("a0",), "abc")


def test_read_time_errors_name_their_option(capsys, tmp_path):
    path = tmp_path / "rca1.json"
    path.write_text(generate_rca(1, [2], [1, 1]).to_json())
    net = ("--netlist", str(path))
    for bad, fault in (
        ("-1", "read time must be non-negative, got -1"),
        ("-1/2", "read time must be non-negative, got -1/2"),
        ("x", "cannot interpret read time 'x'"),
        ("1/0", "cannot interpret read time '1/0'"),
    ):
        for argv, option in (
            (("stats", *net, f"-T={bad}"), "-T"),
            (("stats", *net, f"-T={bad}", "--format", "csv"), "-T"),
            (("ec", *net, f"-T={bad}"), "-T"),
            (("verify", *net, f"-T={bad}"), "-T"),
            (("verify", "--fast-vs-oracle", "--n", "4", "--tables", "2", f"-T={bad}"), "-T"),
            (("trace", *net, "-a", "1", "-b", "0", "--times", f"0,{bad}"), "--times"),
            (("sweep", *net, f"--t-range={bad}..1"), "--t-range"),
            (("sweep", *net, f"--t-range=0..{bad}", "--format", "json"), "--t-range"),
        ):
            assert run_cli(capsys, *argv) == (1, "", f"error: {option}: {fault}\n"), argv
    # an empty list is refused too, not taken for the whole history
    empty = run_cli(capsys, "trace", *net, "-a", "1", "-b", "0", "--times", "")
    assert empty == (1, "", "error: --times: cannot interpret read time ''\n")
    for step, fault in (("0", "step must be positive"), ("x", "cannot interpret read time 'x'")):
        assert run_cli(capsys, "sweep", *net, "--t-range", f"0..1:{step}") == (1, "", f"error: --t-range: {fault}\n")


def test_sweep_refuses_too_many_read_times_before_listing_them(tmp_path):
    import os
    import resource
    import subprocess
    from pathlib import Path

    from pseudoadder.cli import SWEEP_ROWS, _parse_t_range

    net = generate_rca(4, [1] * 4, [1] * 5)
    path = tmp_path / "rca4.json"
    path.write_text(net.to_json())
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def bounded():  # a range listed before its count is checked fails here, not on the machine
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    # listing 0..quiescence:1e-400 first once grew to about 6 GB, and 0..1e6 ran past 20 s
    for spec in ("0..quiescence:1e-400", "0..1e6", f"0..{SWEEP_ROWS}"):
        done = subprocess.run(
            [sys.executable, "-m", "pseudoadder.cli", "sweep", "--netlist", str(path), "--t-range", spec],
            env=env, capture_output=True, text=True, timeout=60, preexec_fn=bounded,
        )
        assert (done.returncode, done.stdout, done.stderr) == (
            1, "", f"error: --t-range: more than {SWEEP_ROWS} read times\n"), spec
    # the count is exact: the limit itself, an empty range and a step past the stop
    assert len(_parse_t_range(f"0..{SWEEP_ROWS - 1}", net)) == SWEEP_ROWS
    assert _parse_t_range("1/2..2:1/2", net) == [Fraction(1, 2), 1, Fraction(3, 2), 2]
    assert _parse_t_range("3..2", net) == [] and _parse_t_range("1..2:5", net) == [1]


def test_stats_refuses_a_table_that_breaks_the_sign_law(capsys, monkeypatch, tmp_path):
    from pseudoadder import CarryChain, ChainErrorTable

    # pairs generating both chains err by +1 under a negative leftmost
    # chain: no conservative adder realizes this table
    bad = ChainErrorTable(2, {CarryChain(1, 1): 2, CarryChain(2, 2): -1})
    monkeypatch.setattr("pseudoadder.analysis._read_probes", lambda sweep, t: bad)
    netlist = write_staggered(tmp_path)
    for fmt in ("json", "csv"):
        code, out, err = run_cli(capsys, "stats", "--netlist", netlist, "-T", "7", "--format", fmt)
        assert (code, out) == (1, "")
        assert err.startswith("error: chain-error table breaks the sign law")
        assert "Traceback" not in err


def test_stats_exits_1_where_verify_fails(capsys, tmp_path):
    path = str(tmp_path / "ksa8.json")
    assert run_cli(capsys, "gen", "ksa", "--n", "8", "-o", path)[0] == 0
    # at T=1 every output is still 0, so the true mean |error| is 255
    code, out, _ = run_cli(capsys, "verify", "--netlist", path, "-T", "1")
    assert code == 1 and "FAIL  conservative" in out
    code, out, _ = run_cli(capsys, "stats", "--netlist", path, "-T", "1")
    # the chain model's er_avg is 757/4; the verdict carries the true numbers
    report = json.loads(out)
    assert (code, report["stats"]["er_avg"]["numerator"], report["stats"]["er_avg"]["denominator"]) == (1, 757, 4)
    truth = report["validity"]["stats"]
    assert (truth["path"], truth["sae"], truth["er_avg"]["numerator"], truth["max_abs_error"]) == ("oracle", 255 << 16, 255, 510)
    assert (truth["mse"]["numerator"], truth["mse"]["denominator"]) == (151895, 2)


def test_stats_and_ec_carry_the_exhaustive_verdict(capsys, tmp_path):
    from pseudoadder import PairSweep, check_conservative
    from conftest import operand_arrays, oracle_report, sums_at

    path, seen = tmp_path / "ksa8.json", set()
    a, b = operand_arrays(8)
    for net in (staggered_ksa8(), generate_ksa(8, 1)):
        path.write_text(net.to_json())
        sweep = PairSweep(net, keep=set(net.outputs.values()))
        for t in range(12):
            exact = check_conservative(net, t)
            seen.add(exact.passed)
            # every premise covers all pairs, and no sample is drawn
            expected = {
                "passed": exact.passed, "method": "exhaustive", "pairs": 4**8, "seed": None,
                "violations": exact.violations, "counterexamples": [list(c) for c in exact.counterexamples],
                "independence_counterexamples": [],
            }
            if not exact.passed:  # the true numbers, where the chain model's are not
                truth = oracle_report(8, (a + b) - sums_at(sweep, t)).to_json_dict()
                expected["stats"] = {"path": "oracle", **{k: truth[k] for k in ("sae", "er_avg", "mse", "max_abs_error")}}
            for command in ("stats", "ec"):
                code, out, err = run_cli(capsys, command, "--netlist", str(path), "-T", str(t))
                assert (code, err) == (0 if exact.passed else 1, ""), (command, t)
                assert json.loads(out)["validity"] == expected, (command, t)
            code, out, _ = run_cli(capsys, "stats", "--netlist", str(path), "-T", str(t), "--format", "csv")
            assert code == (0 if exact.passed else 1)
            assert next(csv.DictReader(io.StringIO(out)))["validity"] == ("exhaustive" if exact.passed else "failed")
    assert seen == {False, True}


def test_stats_and_ec_above_the_limit_carry_the_sampled_verdict(capsys, tmp_path):
    path = tmp_path / "ksa64.json"
    net = generate_ksa(64, 1)
    path.write_text(net.to_json())
    sampled = validity(net, 1, limit=0, samples=128, seed=0).conservative
    assert not sampled.passed
    # 128 distinct pairs and 256 witnesses, 2 of each of 128 chains
    expected = {
        "passed": False, "method": "sampled", "pairs": 384, "seed": 0,
        "violations": sampled.violations, "counterexamples": [list(c) for c in sampled.counterexamples],
        "independence_counterexamples": [],
    }
    for command in ("stats", "ec"):
        code, out, _ = run_cli(capsys, command, "--netlist", str(path), "-T", "1")
        assert (code, json.loads(out)["validity"]) == (1, expected), command
        code, out, _ = run_cli(capsys, command, "--netlist", str(path), "-T", "2")
        assert code == 0, command
        assert json.loads(out)["validity"] == {**expected, "passed": True, "violations": 0, "counterexamples": []}


def test_stats_and_ec_name_the_premise_that_fails(capsys, tmp_path):
    from test_analysis import low_bit_gated_rca3

    # conservative at every pair, yet some reads are not the chain model's,
    # and the block names them with their lowest differing bit
    net, path = low_bit_gated_rca3(), tmp_path / "gated.json"
    path.write_text(net.to_json())
    dependent = [list(c) for c in validity(net, 1000).independence_counterexamples]
    assert dependent
    for command in ("stats", "ec"):
        code, out, err = run_cli(capsys, command, "--netlist", str(path), "-T", "1000")
        block = json.loads(out)["validity"]
        assert (code, err, block["passed"], block["violations"], block["counterexamples"]) == (1, "", False, 0, [])
        assert block["independence_counterexamples"] == dependent, command


def test_stats_at_a_passing_read_adds_only_the_validity_block(capsys, tmp_path):
    from pseudoadder import analyze_table, extract_ec_table

    path = tmp_path / "ksa64.json"
    net = generate_ksa(64, 1)
    path.write_text(net.to_json())
    code, out, _ = run_cli(capsys, "stats", "--netlist", str(path), "-T", "2")
    assert code == 0
    ec = extract_ec_table(net, 2)
    before = {
        "n": 64, "T": "2", "sign_convention": "true_sum_minus_computed_sum",
        "ec": ec.to_json_dict(), "stats": analyze_table(ec).to_json_dict(),
    }
    # the report without the block is the one written before the verdict,
    # byte for byte, and the block is its last member
    block = json.dumps(json.loads(out)["validity"])
    assert out == json.dumps(before)[:-1] + f", \"validity\": {block}}}\n"
    code, out, _ = run_cli(capsys, "stats", "--netlist", str(path), "-T", "2", "--format", "csv")
    header, row = out.splitlines()
    assert header.endswith(",max_abs_error,validity") and row.endswith(",sampled")


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


def test_verify_fast_vs_oracle_respects_limit(capsys, tmp_path):
    # refused before any check runs, as every other bad argument of verify
    code, out, err = run_cli(
        capsys, "verify", "--fast-vs-oracle", "--n", "6", "--tables", "2", "--exhaustive-n-limit", "4"
    )
    assert (code, out, err) == (1, "", "error: --n 6 is above --exhaustive-n-limit 4\n")
    assert run_cli(capsys, "verify", "--fast-vs-oracle", "--n", "12") == (
        1, "", "error: --n 12 is above --exhaustive-n-limit 10\n")
    missing = (1, "", "error: --n is required with --fast-vs-oracle\n")
    assert run_cli(capsys, "verify", "--fast-vs-oracle") == missing
    # the netlist is neither read nor checked
    absent = str(tmp_path / "absent.json")
    assert run_cli(capsys, "verify", "--netlist", absent, "--fast-vs-oracle") == missing


def unit_rca(tmp_path, n):
    from pseudoadder import generate_rca

    path = tmp_path / f"rca{n}.json"
    path.write_text(generate_rca(n, [1] * n, [1] * (n + 1)).to_json())
    return str(path)


def test_verify_above_the_limit_is_sampled_and_runs_no_oracle(capsys, blocks_built, tmp_path):
    # n=6 above a limit of 4: the conservative check is sampled, and no
    # lane block is built for an oracle either
    netlist = unit_rca(tmp_path, 6)
    code, out, _ = run_cli(capsys, "verify", "--netlist", netlist, "-T", "7", "--exhaustive-n-limit", "4")
    assert code == 0, out
    assert blocks_built == [], blocks_built
    assert out.splitlines() == [
        "PASS  conservative (no spurious carries)",
        "PASS  lower-position independence",
        "PASS  chain probes in the model",
    ]


def test_sampled_verify_builds_the_sample_batch_and_the_probe_batch_once_each(
    capsys, sweeps_built, blocks_built, tmp_path
):
    # n=10 above a limit of 4: one batch holds the seeded sample, then all
    # chain probes; the table is read off its probe lanes and both checks
    # off its sample lanes, with no second simulation
    netlist = unit_rca(tmp_path, 10)
    _, out, _ = run_cli(capsys, "verify", "--netlist", netlist, "-T", "3", "--exhaustive-n-limit", "4")
    assert len(out.splitlines()) == 3, out
    assert sweeps_built == [(len(_sample_words(10, SAMPLES, 0)) + 55, [3])], sweeps_built
    assert blocks_built == [], blocks_built


def test_a_sample_of_every_pair_runs_the_exhaustive_pass(capsys, sweeps_built, blocks_built, tmp_path):
    # n=3 above a limit of 0: 64 samples cover the 4^3 pairs, so the block
    # pass runs after the probe batch and verify prints its oracle line;
    # 63 stay one sampled batch, though its witnesses fill it to 64 pairs
    netlist = unit_rca(tmp_path, 3)
    argv = ["verify", "--netlist", netlist, "-T", "2", "--exhaustive-n-limit", "0", "--samples"]
    code, out, _ = run_cli(capsys, *argv, "64")
    assert code == 0 and out.splitlines()[3].startswith("PASS  fast statistics equal exhaustive simulation"), out
    assert sweeps_built == [(6, [2]), (64, [2])], sweeps_built
    assert blocks_built == [(0, 3)], blocks_built
    sweeps_built.clear()
    blocks_built.clear()
    code, out, _ = run_cli(capsys, *argv, "63")
    assert code == 0 and len(out.splitlines()) == 3, out
    assert sweeps_built == [(len(_sample_words(3, 63, 0)) + 6, [2])], sweeps_built
    assert blocks_built == [], blocks_built


def test_verify_within_a_raised_limit_runs_the_oracle_on_the_checked_sweep(
    capsys, sweeps_built, blocks_built, tmp_path
):
    # n=11 within a limit of 11: after the probe batch, the 4^3 lane
    # blocks of 4^8 pairs are built once each, and serve both checks and
    # the oracle; no sample is drawn
    netlist = unit_rca(tmp_path, 11)
    code, out, _ = run_cli(capsys, "verify", "--netlist", netlist, "-T", "12", "--exhaustive-n-limit", "11")
    assert code == 0, out
    assert "PASS  fast statistics equal exhaustive simulation  fast sae=0 oracle sae=0" in out
    assert sweeps_built == [(66, [12]), *((4**8, [12]) for _ in range(64))], sweeps_built
    assert blocks_built == [(k, 8) for k in range(64)], blocks_built


def test_verify_force_is_gone(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "--fast-vs-oracle", "--n", "4", "--tables", "1", "--force"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --force" in capsys.readouterr().err


def test_failed_probe_still_writes_the_verdict(capsys, tmp_path):
    """A probe outside the model leaves no table or statistics, but the
    validity block computed before it is written, exit 1."""
    from test_analysis import ignores_a0_rca2, inverted_carry_rca2

    path = tmp_path / "bad.json"
    for build in (inverted_carry_rca2, ignores_a0_rca2):
        net = build()
        path.write_text(net.to_json())
        verdict = json.loads(json.dumps(validity(net, 1000).to_json_dict()))
        assert verdict["passed"] is False and verdict["method"] == "exhaustive"
        read = ("--netlist", str(path), "-T", "1000")
        code, out, err = run_cli(capsys, "stats", *read)
        assert (code, err.count("error: probe for chain")) == (1, 1)
        assert json.loads(out) == {"n": 2, "T": "1000", "sign_convention": "true_sum_minus_computed_sum",
                                   "ec": None, "stats": None, "validity": verdict}
        code, out, _ = run_cli(capsys, "ec", *read)
        assert (code, json.loads(out)) == (1, {"n": 2, "ec": None, "validity": verdict})
        out_file = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "stats", *read, "-o", str(out_file))
        assert (code, out, json.loads(out_file.read_text())["validity"]) == (1, "", verdict)
        assert run_cli(capsys, "stats", *read, "--format", "csv")[:2] == (1, "")  # no row


def test_verify_faulty_netlist_fails(capsys, tmp_path):
    from test_analysis import ignores_a0_rca2, inverted_carry_rca2, low_bit_gated_rca3

    path = tmp_path / "bad.json"
    path.write_text(inverted_carry_rca2().to_json())
    code, out, _ = run_cli(capsys, "verify", "--netlist", str(path), "-T", "1000")
    assert code == 1
    assert "FAIL  conservative" in out
    # each check fails once; only a FAIL line shows its detail.  n <= 10,
    # so every check covers all pairs, in pair_word order
    unchecked = "FAIL  lower-position independence  unchecked: no chain-error table\n"
    probe = "probe for chain CarryChain(i={0}, j={0}) reads a spurious carry at T=1000"
    expected = {
        inverted_carry_rca2: (
            "FAIL  conservative (no spurious carries)  counterexamples=[(0, 0, 1), (2, 0, 1), (0, 1, 1), "
            "(2, 1, 1), (0, 2, 1), (2, 2, 1), (0, 3, 1), (2, 3, 1), (2, 0, 2), (2, 1, 2)]\n"
            f"{unchecked}FAIL  chain probes in the model  {probe.format(2)}\n"
        ),
        ignores_a0_rca2: (
            "FAIL  conservative (no spurious carries)  counterexamples=[(1, 0, 0), (3, 0, 0), (1, 1, 0), "
            "(3, 1, 0), (1, 2, 0), (3, 2, 0), (1, 3, 0), (3, 3, 0)]\n"
            f"{unchecked}FAIL  chain probes in the model  {probe.format(1)}\n"
        ),
        low_bit_gated_rca3: (
            "PASS  conservative (no spurious carries)\n"
            "FAIL  lower-position independence  [(3, 2, 2), (7, 2, 2), (3, 3, 2)]\n"
            "PASS  chain probes in the model\n"
        ),
    }
    # a probe outside the model prints its error, as stats and ec print it
    errors = {inverted_carry_rca2: probe.format(2), ignores_a0_rca2: probe.format(1)}
    for build, text in expected.items():
        path.write_text(build().to_json())
        error = f"error: {errors[build]}\n" if build in errors else ""
        assert run_cli(capsys, "verify", "--netlist", str(path), "-T", "1000") == (1, text, error), build.__name__
        # no counterexample repeats, also past the three that are printed
        report = validity(build(), 1000, limit=0, samples=128, seed=0)
        found = report.independence_counterexamples
        assert len(set(found)) == len(found), build.__name__


def test_a_probe_outside_the_model_fails_the_verdict(capsys, tmp_path):
    """Only chain (2, 8)'s probe leaves the model, and the sample (128
    pairs and 132 witnesses of 66 chains) misses the four pairs that do:
    the failing probe alone fails the sampled verdict, counted once into it."""
    from test_analysis import probe_fault_rca11

    path = tmp_path / "probe_fault.json"
    path.write_text(probe_fault_rca11().to_json())
    read = ("--netlist", str(path), "-T", "1000")
    error = "error: probe for chain CarryChain(i=2, j=8) reads a spurious carry at T=1000\n"
    verdict = {"passed": False, "method": "sampled", "pairs": 261, "seed": 0, "violations": 1,
               "counterexamples": [[254, 2, 10]], "independence_counterexamples": None}
    for command in ("stats", "ec"):
        code, out, err = run_cli(capsys, command, *read)
        report = json.loads(out)
        assert (code, err, report["ec"], report["validity"]) == (1, error, None, verdict), command
    rest = ("FAIL  lower-position independence  unchecked: no chain-error table\n"
            f"FAIL  chain probes in the model  {error[7:]}")
    assert run_cli(capsys, "verify", *read) == (
        1, f"FAIL  conservative (no spurious carries)  counterexamples=[(254, 2, 10)]\n{rest}", error)
    # all pairs: the probe is among the four the detector fires on, and not counted again
    assert run_cli(capsys, "verify", *read, "--exhaustive-n-limit", "11") == (
        1, "FAIL  conservative (no spurious carries)  counterexamples=[(254, 2, 10), (255, 2, 10), "
        f"(254, 3, 10), (255, 3, 10)]\n{rest}", error)


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


def test_verify_without_netlist_or_tables_is_refused(capsys):
    # it checked nothing, printed an empty line and exited 0
    code, out, err = run_cli(capsys, "verify", "-T", "3")
    assert code == 1
    assert out == ""
    assert err == "error: verify needs --netlist or --fast-vs-oracle\n"


json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(1 << 200), max_value=1 << 200)
    | st.floats()
    | st.text()
)


def longest_list(value) -> int:
    """Length of the longest list anywhere in a JSON value, 0 if none."""
    if isinstance(value, list):
        return max([len(value), *map(longest_list, value)])
    if isinstance(value, dict):
        return max(map(longest_list, value.values()), default=0)
    return 0


@st.composite
def json_lists(draw, children):
    """A list shorter than, exactly as long as, or longer than the
    writer's slice, or empty: a few drawn items repeated to that length.
    Items that hold a list longer than 5 are not repeated: nested repeats
    multiply, and four levels of them (255 x 256 x 761 x 257 items) took
    the test past 2 GB.  The examples below add long lists of long lists."""
    items = draw(st.lists(children, min_size=1, max_size=4))
    if max(map(longest_list, items)) > 5:
        return items
    length = draw(st.sampled_from(
        [0, 1, 5, JSON_SLICE - 1, JSON_SLICE, JSON_SLICE + 1, 2 * JSON_SLICE, 3 * JSON_SLICE - 7]
    ))
    return [items[k % len(items)] for k in range(length)]


json_values = st.recursive(
    json_leaves,
    lambda children: json_lists(children) | st.dictionaries(st.text(), children, max_size=5),
    max_leaves=12,
)


def lists_as_iterators(obj):
    """``obj`` with each list that the writer reaches (``obj`` itself and
    the values of dicts) made a generator over its items."""
    if isinstance(obj, list):
        return (item for item in obj)
    if isinstance(obj, dict):
        return {key: lists_as_iterators(value) for key, value in obj.items()}
    return obj


@settings(max_examples=150, deadline=None)
@given(json_values)
@example({"a\"\\\né😀": [1] * (JSON_SLICE + 1), "": {}, "x": []})
@example([[10**40] * JSON_SLICE] * (JSON_SLICE + 2))
@example([{"k": [1.5, None], "": "\u2028"}, []] * (JSON_SLICE + 3))
@example([])
@example({"ec": [{"i": 1, "j": k, "value": -k} for k in range(JSON_SLICE)], "n": [0] * (2 * JSON_SLICE)})
def test_json_writer_writes_exactly_one_dumps_line(obj):
    # a list and the same items as an iterator write the same bytes
    for form in (obj, lists_as_iterators(obj)):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            _emit_json(form, None)
        assert buf.getvalue() == json.dumps(obj) + "\n"
