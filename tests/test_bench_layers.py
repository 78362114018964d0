"""Smoke tests of ``bench/layers.py``, which runs at the smallest width
and writes a report with every key, and of ``bench/corpus.py``, which
prints one repeatable line per command.  No time is bounded here."""

import ast
import importlib.util
import itertools
import json
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
CORPUS = LAYERS.with_name("corpus.py")


def test_layers_report_at_n8_has_every_key(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    monkeypatch.setattr(layers, "SIZES", (8,))
    monkeypatch.setattr(sys, "path", [*sys.path])  # main puts the sources first
    out = tmp_path / "BENCH.json"
    assert layers.main(["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report) == {"python", "cpus", "git_sha", "src_changes", "repeats", "import", "cold", "commands"}
    assert report["repeats"] == layers.REPEATS
    assert set(report["import"]) == {"median_s", "quartiles_s", "times_s"}
    assert len(report["import"]["times_s"]) == layers.REPEATS
    low, high = report["import"]["quartiles_s"]
    assert 0 < low <= report["import"]["median_s"] <= high
    assert [row["command"] for row in report["cold"]] == [name for name, _ in layers.COLD]
    for row in report["cold"]:
        assert set(row) == {"command", "argv", "exit_code", "median_s", "quartiles_s", "times_s"}
        assert row["exit_code"] == 0
        low, high = row["quartiles_s"]
        assert 0 < low <= row["median_s"] <= high
    rows = report["commands"]
    assert [(r["kind"], r["n"], r["command"]) for r in rows] == [
        (kind, 8, command) for kind in ("rca", "ksa") for command in ("gen", "stats", "sweep", *layers.LIBRARY)
    ] + [warm[:3] for warm in layers.WARM]
    timing = {"median_s", "quartiles_s", "times_s", "peak_bytes"}
    for row in rows:
        low, high = row["quartiles_s"]
        assert low <= row["median_s"] <= high and row["peak_bytes"] > 0
        if row["command"] in layers.LIBRARY:  # a library call at the stats read time
            t = layers.read_time(row["kind"], 8)
            assert set(row) == {"kind", "n", "command", "call", *timing}
            assert row["call"] == f"{row['command']}(net, {t})"
            continue
        assert set(row) == {"kind", "n", "command", "argv", "exit_code", "output_bytes", *timing}
        assert row["exit_code"] == 0 and row["output_bytes"] > 0


def test_layers_against_a_second_source_measures_both_in_one_report(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    for name, value in (("SIZES", (8,)), ("KINDS", ("rca",)), ("REPEATS", 2), ("COLD", layers.COLD[:1])):
        monkeypatch.setattr(layers, name, value)
    monkeypatch.setattr(sys, "path", [*sys.path])
    before = {name: module for name, module in sys.modules.items() if name.startswith("pseudoadder")}
    out = tmp_path / "BENCH.json"
    assert layers.main(["--out", str(out), "--against", str(LAYERS.parents[1] / "src")]) == 0
    # each source's modules are put back out of the way after every run
    assert {name: module for name, module in sys.modules.items() if name.startswith("pseudoadder")} == before
    report = json.loads(out.read_text())
    against = report.pop("against")
    assert set(report) == {"python", "cpus", "git_sha", "src_changes", "repeats", "import", "cold", "commands"}
    assert set(against) == {"git_sha", "src_changes", "import", "cold", "commands"}
    for record in (report, against):
        assert [(r["command"], r["exit_code"]) for r in record["cold"]] == [(layers.COLD[0][0], 0)]
        assert [(r["kind"], r["n"], r["command"], r.get("exit_code", 0)) for r in record["commands"]] == [
            ("rca", 8, command, 0) for command in ("gen", "stats", "sweep", *layers.LIBRARY)
        ] + [(*warm[:3], 0) for warm in layers.WARM]
    # the same sources give the same output bytes and make the same calls
    for key in ("output_bytes", "call"):
        assert [r.get(key) for r in report["commands"]] == [r.get(key) for r in against["commands"]]
    # both records of a command name the faster source, or none
    for key in ("cold", "commands"):
        for mine, theirs in zip(report[key], against[key]):
            assert mine["faster"] == theirs["faster"] == layers.faster(mine, theirs)
    # a source is faster when it wins 9/10 of the pairs (all 5 here) and its median beats the
    # other's by more than the other's quartile spread: fast beats slow; fast beats near in every
    # pair, but by less than near's spread; fast and near beat mixed in 4 of 5 pairs only
    runs = ([1.0, 1.1, 1.2, 1.0, 1.1], [2.0, 2.2, 2.1, 2.0, 2.3],
            [1.01, 1.11, 1.21, 1.01, 1.11], [2.0, 2.2, 2.1, 2.0, 1.05])
    fast, slow, near, mixed = map(layers.spread, runs)
    assert [layers.faster(x, y) for x, y in itertools.permutations([fast, slow, near, mixed], 2)] == [
        "src", None, None, "against", "against", None, None, "src", None, None, None, None]


def test_layers_imports_only_the_standard_library_and_the_package():
    for script in (LAYERS, CORPUS):
        tree = ast.parse(script.read_text())
        names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
        names += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0]
        assert [m for m in names if m.split(".")[0] not in (*sys.stdlib_module_names, "pseudoadder")] == [], script


def test_corpus_prints_one_repeatable_line_per_command(capsys, monkeypatch):
    spec = importlib.util.spec_from_file_location("corpus", CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    monkeypatch.setattr(sys, "path", [*sys.path])  # main puts the sources first
    assert corpus.main([]) == 0
    first = capsys.readouterr().out.splitlines()
    assert [line.split(" ", 2)[2] for line in first] == [" ".join(argv) for argv in corpus.commands()]
    assert {line.split()[0] for line in first} == {"0", "1", "2"}  # argparse refusals exit 2
    assert corpus.main([]) == 0
    assert capsys.readouterr().out.splitlines() == first
