"""Byte-identity corpus of the pseudoadder CLI, run in-process.

Usage, from the repository root::

    python3 bench/corpus.py > after.txt
    python3 bench/corpus.py --src /path/to/other/checkout/src > before.txt
    diff before.txt after.txt

It builds its netlists in a temporary directory (the analysed ones
through the CLI's own ``gen``, the faulty and malformed ones by editing
generated JSON) and runs
every command in ``commands()`` through ``pseudoadder.cli.main`` in this
process, with stdout and stderr captured and any ``-o`` file read back.
For each command it prints one line, ``exit digest argv``: the exit code
(argparse's 2 included), a SHA-256 prefix of the captured stdout,
stderr and output file, and the argv with the work directory shown as
``{dir}`` (which the captured text shows the same way).  Two runs print
the same lines iff every command gave the same bytes and exit code, so
a ``diff`` of two runs is the check.  It covers ``gen``, ``stats`` and
``ec`` at several read times on five netlists, ``sweep``, ``trace``,
``chains``, exhaustive and sampled ``verify`` with its refusals, the
``validity`` verdict of ``stats`` and ``ec`` (failed reads written to
a file too, and reads of the four faulty netlists, where some probes
leave the model), and the error paths of bad read times, missing files
and malformed netlists.  It uses only the standard library.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMES = ("0", "1", "2", "3/7", "7", "12")
SEVENTHS = ("5/7", "6/7", "8/7", "9/7")
#: name of each analysed netlist's file, with the ``gen`` argv that writes it
NETLISTS = {
    "rca8": ["rca", "--n", "8"],
    "rca10s": ["rca", "--n", "10", "--carry-delays", ",".join(SEVENTHS[k % 4] for k in range(10)),
               "--sum-delays", ",".join(SEVENTHS[(k + 1) % 4] for k in range(11))],
    "ksa8": ["ksa", "--n", "8"],
    "sksa8": ["ksa", "--n", "8", "--delay", "file:{dir}/staggered.json"],
    "ksa64": ["ksa", "--n", "64"],
}
#: an n this large once cost memory before the file was checked; kept
#: small enough that code with that fault still finishes
HUGE_N = 100_000


def write_inputs(workdir: Path) -> None:
    """The staggered KSA-8 delay file, the four faulty netlists of the
    test suite and the malformed files, edited from unit-delay RCAs."""
    from pseudoadder import generate_rca, staggered_ksa8_delays

    (workdir / "staggered.json").write_text(json.dumps(staggered_ksa8_delays().to_json_dict()))
    (workdir / "sums.json").write_text("[0, 1, 0, 1]")
    rca2, rca3, rca11 = (generate_rca(n, [1] * n, [1] * (n + 1)).to_json() for n in (2, 3, 11))

    def edited(text: str, edit) -> str:
        data = json.loads(text)
        edit(data, {g["id"]: g for g in data["gates"]})
        return json.dumps(data)

    def inverted_carry(data, by_id):  # the first carry is NOT a0: spurious carries
        by_id["c1"].update(kind="NOT", inputs=["a0"])

    def ignores_a0(data, by_id):  # every gate reads a0 as the constant 0
        for g in data["gates"]:
            g["inputs"] = ["zero" if s == "a0" else s for s in g["inputs"]]

    def low_bit_gated(data, by_id):  # a0 kills the carry into stage 2
        for gid in ("s2", "c3"):
            by_id[gid]["inputs"] = ["c2k" if s == "c2" else s for s in by_id[gid]["inputs"]]
        data["gates"] += [{"id": "na0", "kind": "NOT", "inputs": ["a0"], "delay": 0},
                          {"id": "c2k", "kind": "AND2", "inputs": ["c2", "na0"], "delay": 0}]

    def probe_fault(data, by_id):  # sum bit 10 also fires on (254 | 255, 2 | 3), chain (2, 8)'s probe among them
        low = ["b2", "b3", "b4", "b5", "b6", "b7", *(f"{x}{k}" for x in "ab" for k in (8, 9, 10))]
        data["gates"] += [{"id": f"n{s}", "kind": "NOT", "inputs": [s], "delay": 0} for s in low]
        detector = "a1"
        for k, s in enumerate(["b1", *(f"a{k}" for k in range(2, 8)), *(f"n{s}" for s in low)]):
            data["gates"].append({"id": f"d{k}", "kind": "AND2", "inputs": [detector, s], "delay": 0})
            detector = f"d{k}"
        data["gates"].append({"id": "s10f", "kind": "OR2", "inputs": ["s10", detector], "delay": 0})
        data["outputs"]["10"] = "s10f"

    def bad_key(data, by_id):
        data["outputs"]["01"] = data["outputs"].pop("1")

    files = {
        "inverted_carry_rca2": edited(rca2, inverted_carry),
        "ignores_a0_rca2": edited(rca2, ignores_a0),
        "low_bit_gated_rca3": edited(rca3, low_bit_gated),
        "probe_fault_rca11": edited(rca11, probe_fault),
        "bad_key": edited(rca2, bad_key),
        "no_gates": '{"n": 2, "outputs": {}}',
        "not_json": "{",
        "cycle": edited(rca2, lambda d, by_id: by_id["c1"].update(inputs=["a0", "b0", "c2"])),
        "huge_n": json.dumps({"n": HUGE_N, "gates": [], "outputs": {}}),
        "huge_n_outputs": json.dumps({"n": HUGE_N, "gates": [], "outputs": {"0": "x"}}),
    }
    for name, text in files.items():
        (workdir / f"{name}.json").write_text(text)


def commands() -> list[list[str]]:
    """Every command of the corpus, in order; ``{dir}`` is the work
    directory.  The ``gen`` commands that write the analysed netlists
    come first."""
    cmds = [["gen", *argv, "-o", f"{{dir}}/{name}.json"] for name, argv in NETLISTS.items()]
    cmds += [
        ["gen", "rca", "--n", "4"],
        ["gen", "ksa", "--n", "4", "--delay", "uniform:1/2"],
        ["gen", "rca", "--n", "3", "--carry-delays", "1,2,0.5", "--sum-delays", "file:{dir}/sums.json"],
        ["gen", "ksa", "--n", "8", "--delay", "file:{dir}/staggered.json"],
        # refused options
        ["gen", "rca", "--n", "4", "--delay", "uniform:2"],
        ["gen", "ksa", "--n", "4", "--carry-delays", "uniform:1"],
        ["gen", "ksa", "--n", "4", "--sum-delays", "1,1,1,1,1"],
        ["gen", "rca", "--n", "4", "--carry-delays", "1,2"],
        ["gen", "rca", "--n", "4", "--sum-delays", "file:{dir}/sums.json"],
        ["gen", "rca", "--n", "4", "--sum-delays", "uniform:-1"],
        ["gen", "rca", "--n", "0"],
        ["gen", "ksa", "--n", "4", "--delay", "uniform:abc"],
        ["gen", "ksa", "--n", "4", "--delay", "file:{dir}/missing.json"],
        ["gen", "tree", "--n", "4"],
    ]
    for name in NETLISTS:
        netlist = f"{{dir}}/{name}.json"
        for t in TIMES:
            cmds += [
                ["stats", "--netlist", netlist, "-T", t],
                ["stats", "--netlist", netlist, "-T", t, "--format", "csv"],
                ["ec", "--netlist", netlist, "-T", t],
            ]
        cmds += [
            ["sweep", "--netlist", netlist, "--t-range", "0..quiescence"],
            ["sweep", "--netlist", netlist, "--t-range", "0..quiescence:1/2", "--format", "json"],
            ["sweep", "--netlist", netlist, "--t-range", "5..2"],
        ]
    cmds += [
        ["stats", "--netlist", "{dir}/rca8.json", "-T", "4", "-o", "{dir}/out.json"],
        # a failed verdict still writes its report, and exits 1
        ["stats", "--netlist", "{dir}/ksa8.json", "-T", "1", "--format", "csv", "-o", "{dir}/failed.csv"],
        ["ec", "--netlist", "{dir}/ksa64.json", "-T", "1", "-o", "{dir}/failed.json"],
        ["sweep", "--netlist", "{dir}/rca10s.json", "--t-range", "3..quiescence:2/7", "-o", "{dir}/out.csv"],
        ["trace", "--netlist", "{dir}/rca8.json", "-a", "255", "-b", "1"],
        ["trace", "--netlist", "{dir}/rca10s.json", "-a", "1000", "-b", "23", "--format", "csv"],
        ["trace", "--netlist", "{dir}/sksa8.json", "-a", "86", "-b", "59"],
        ["trace", "--netlist", "{dir}/sksa8.json", "-a", "200", "-b", "77", "--times", "0,1,3/7,5,0.5"],
        ["trace", "--netlist", "{dir}/rca8.json", "-a", "256", "-b", "1"],
        ["chains", "--n", "8", "-a", "0b10110110", "-b", "0"],
        ["chains", "--n", "8", "-a", "182", "-b", "109"],
        ["chains", "--n", "8", "-a", "182", "-b", "109", "--format", "csv"],
        ["chains", "--n", "4", "-a", "16", "-b", "0"],
    ]
    cmds += [["verify", "--netlist", "{dir}/sksa8.json", "-T", str(t)] for t in range(12)]
    cmds += [
        ["verify", "--netlist", "{dir}/rca10s.json", "-T", "3", "--exhaustive-n-limit", "4"],
        ["verify", "--netlist", "{dir}/ksa8.json", "-T", "2", "--exhaustive-n-limit", "4",
         "--samples", "16", "--seed", "3"],
        ["verify", "--netlist", "{dir}/rca10s.json", "-T", "0", "--exhaustive-n-limit", "4"],
        ["verify", "--netlist", "{dir}/rca8.json", "-T", "8", "-o", "{dir}/out.txt"],
    ]
    for name in ("inverted_carry_rca2", "ignores_a0_rca2", "low_bit_gated_rca3"):
        cmds += [["verify", "--netlist", f"{{dir}}/{name}.json", "-T", t] for t in ("1000", "1")]
        # sampled: one FAIL line for each premise
        cmds += [["verify", "--netlist", f"{{dir}}/{name}.json", "-T", t, "--exhaustive-n-limit", "1"]
                 for t in ("1000", "1")]
        # the verdict names each failing premise, also where a probe leaves the model
        cmds += [[command, "--netlist", f"{{dir}}/{name}.json", "-T", "1000"] for command in ("stats", "ec")]
    # a probe outside the model: no CSV row, and the report file still holds the verdict
    cmds += [
        ["stats", "--netlist", "{dir}/inverted_carry_rca2.json", "-T", "1000", "--format", "csv"],
        ["stats", "--netlist", "{dir}/inverted_carry_rca2.json", "-T", "1000", "-o", "{dir}/probe.json"],
    ]
    # one probe outside the model, missed by the sample: it alone fails the sampled verdict
    fault = ["--netlist", "{dir}/probe_fault_rca11.json", "-T", "1000"]
    cmds += [["stats", *fault], ["ec", *fault], ["verify", *fault], ["verify", *fault, "--exhaustive-n-limit", "11"]]
    cmds += [
        ["verify", "--fast-vs-oracle", "--n", "4", "--tables", "5"],
        ["verify", "--fast-vs-oracle", "--n", "5", "--tables", "3", "--seed", "7"],
        ["verify", "--fast-vs-oracle"],
        ["verify", "--fast-vs-oracle", "--n", "12"],
        ["verify", "--fast-vs-oracle", "--n", "6", "--exhaustive-n-limit", "5"],
        # the chain oracle runs above 10 on the option alone
        ["verify", "--fast-vs-oracle", "--n", "11", "--tables", "1", "--exhaustive-n-limit", "11"],
        ["verify", "--netlist", "{dir}/sksa8.json", "-T", "8", "--fast-vs-oracle", "--n", "3", "--tables", "2"],
        ["verify", "--netlist", "{dir}/sksa8.json", "-T", "8", "--fast-vs-oracle"],
        ["verify", "--fast-vs-oracle", "--n", "4", "-T=-5"],
        ["verify", "--fast-vs-oracle", "--n", "4", "--tables", "0"],
        ["verify", "--netlist", "{dir}/ksa8.json", "--samples", "0"],
        ["verify"],
    ]
    # error paths: read times, ranges, files and netlists
    cmds += [
        ["stats", "--netlist", "{dir}/rca8.json", "-T=-1"],
        ["stats", "--netlist", "{dir}/rca8.json", "-T", "abc"],
        ["ec", "--netlist", "{dir}/rca8.json", "-T", "1/0"],
        ["trace", "--netlist", "{dir}/rca8.json", "-a", "1", "-b", "1", "--times", "1,-2"],
        ["trace", "--netlist", "{dir}/rca8.json", "-a", "1", "-b", "1", "--times", ""],
        ["sweep", "--netlist", "{dir}/rca8.json", "--t-range", "0..x"],
        ["sweep", "--netlist", "{dir}/rca8.json", "--t-range", "1..5:0"],
        ["sweep", "--netlist", "{dir}/rca8.json", "--t-range", "7"],
        # one read time too many; kept small enough that code listing every read time still finishes
        ["sweep", "--netlist", "{dir}/rca8.json", "--t-range", "0..10000"],
        ["chains", "--n", "4", "-a", "16", "-b", "-1"],
        ["stats", "--netlist", "{dir}/missing.json"],
        ["verify", "--netlist", "{dir}/missing.json"],
    ]
    for name in ("bad_key", "no_gates", "not_json", "cycle", "huge_n", "huge_n_outputs"):
        cmds += [["stats", "--netlist", f"{{dir}}/{name}.json"]]
    return cmds


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "big") + part)
    return h.hexdigest()[:16]


def run_one(main, argv: list[str], workdir: Path) -> str:
    """``exit digest argv`` of one command run through ``main``."""
    args = [a.replace("{dir}", str(workdir)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    written = b""
    if "-o" in args:  # each -o path is written by one command only
        path = Path(args[args.index("-o") + 1])
        written = path.read_bytes() if path.exists() else b""
    shown = [text.getvalue().replace(str(workdir), "{dir}").encode() for text in (out, err)]
    return f"{code} {digest(*shown, written)} {' '.join(argv)}"


def run(main) -> list[str]:
    """One line per command of the corpus, from a fresh work directory."""
    with tempfile.TemporaryDirectory(prefix="corpus-") as tmp:
        workdir = Path(tmp)
        write_inputs(workdir)
        return [run_one(main, argv, workdir) for argv in commands()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding the pseudoadder package")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    from pseudoadder import cli

    if Path(cli.__file__).resolve().parent != src / "pseudoadder":
        print(f"error: imported pseudoadder from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    for line in run(cli.main):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
