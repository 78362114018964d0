"""Per-command time and memory of the pseudoadder CLI, run in-process.

Usage, from the repository root::

    python3 bench/layers.py --out BENCH_17.json
    python3 bench/layers.py --src /path/to/other/checkout/src --out BENCH_16.json

For a unit-delay ripple-carry adder (RCA) and a uniform-delay
Kogge-Stone adder (KSA) at each width in ``SIZES`` it runs, through
``pseudoadder.cli.main`` in this process:

* ``gen <kind> --n <n> -o <netlist>``
* ``stats --netlist <netlist> -T <t>``, with t = n // 2 on the RCA and
  t = 2 on the KSA
* ``sweep --netlist <netlist> --t-range 0..quiescence --format json``

Every command writes to a file (``-o``), so no captured output counts
as its memory.  Per command the report holds the median and the lower
and upper quartiles of ``time.perf_counter`` seconds over ``REPEATS``
runs, then the ``tracemalloc`` peak of one more run, its exit code and
its output size.  That run starts right after a full garbage
collection, so its peak belongs to the command and not to when the
cyclic collector last ran.  The ``import`` record holds the median and
quartiles of the time that ``import pseudoadder.cli`` takes in each of
``REPEATS`` fresh interpreters with the measured sources as
``PYTHONPATH``, timed by the probe that ``perfbench/run.py`` counts in
its ``setup_s``: the cold start that every CLI run pays before its
command.  The ``cold`` records time that import plus one ``main(argv)``
the same way, for each command in ``COLD``: work that a lazy import only
moves into the first command shows there.  The report is one JSON file
with the Python version, the CPU count, the git commit of the measured
sources and any uncommitted changes to them.  The peaks of one command
repeat to within 1% between runs; the times of unchanged code can
differ by 2x between runs, so compare times only within one report, or
over several runs taken alternately.  It uses only the standard library.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
KINDS = ("rca", "ksa")
SIZES = (8, 16, 32, 64)
REPEATS = 5
#: cold commands: name, argv with ``{dir}`` for the work directory
COLD = (
    ("gen ksa64", ["gen", "ksa", "--n", "64", "-o", "{dir}/cold-ksa64.json"]),
    ("stats ksa64", ["stats", "--netlist", "{dir}/cold-ksa64.json", "-T", "2", "-o", "{dir}/cold-out"]),
    ("verify rca10", ["verify", "--netlist", "{dir}/cold-rca10.json", "-T", "5", "-o", "{dir}/cold-out"]),
    ("chains n8", ["chains", "--n", "8", "-a", "5", "-b", "3", "-o", "{dir}/cold-out"]),
    ("fast-vs-oracle n10", ["verify", "--fast-vs-oracle", "--n", "10", "--tables", "1", "-o", "{dir}/cold-out"]),
)
COLD_PROBE = (
    "import sys, time; t = time.perf_counter(); import pseudoadder.cli; "
    "code = pseudoadder.cli.main(sys.argv[1:]); print(time.perf_counter() - t, code)"
)


def read_time(kind: str, n: int) -> int:
    return n // 2 if kind == "rca" else 2


def git(path: Path, *args: str) -> str | None:
    """Output of one git command run at ``path``, or None outside a git
    checkout."""
    try:
        done = subprocess.run(
            ["git", "-C", str(path), *args], capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.rstrip()


def measure(main, argv: list[str], output: Path) -> dict:
    """Median and quartile times of ``REPEATS`` runs, then the peak of one
    traced run."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        code = main(argv)
        times.append(perf_counter() - start)
    gc.collect()  # no earlier run's garbage is collected inside the traced one
    tracemalloc.start()
    try:
        main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "exit_code": code,
        "output_bytes": output.stat().st_size if output.exists() else 0,
        "median_s": statistics.median(times),
        "quartiles_s": statistics.quantiles(times, n=4)[::2],
        "peak_bytes": peak,
    }


def probe(src: Path, code: str, *argv: str) -> list[str]:
    """The words that ``code`` prints in a fresh interpreter importing
    from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=60, check=True).stdout.split()


def spread(times: list[float]) -> dict:
    return {"median_s": statistics.median(times), "quartiles_s": statistics.quantiles(times, n=4)[::2]}


def import_time(src: Path) -> dict:
    """Median and quartile seconds of ``import pseudoadder.cli`` from
    ``src`` in each of ``REPEATS`` fresh interpreters, timed by the
    benchmark's own import probe."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    perfbench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perfbench)  # stdlib imports and its one-thread BLAS variables only
    result = spread([float(probe(src, perfbench.IMPORT_PROBE)[0]) for _ in range(REPEATS)])
    print(f"import      {result['median_s'] * 1e3:9.2f} ms", file=sys.stderr)
    return result


def cold_times(src: Path, main, workdir: Path) -> list[dict]:
    """Per command in ``COLD``: its exit code and the median and quartile
    seconds of ``import pseudoadder.cli`` plus ``main(argv)`` in each of
    ``REPEATS`` fresh interpreters, the commands taken in turn."""
    main(["gen", "rca", "--n", "10", "-o", str(workdir / "cold-rca10.json")])
    runs: dict[str, list[float]] = {name: [] for name, _ in COLD}
    codes = {}
    for _ in range(REPEATS):
        for name, argv in COLD:
            seconds, codes[name] = probe(src, COLD_PROBE, *(a.format(dir=workdir) for a in argv))
            runs[name].append(float(seconds))
    rows = []
    for name, argv in COLD:
        rows.append({"command": name, "argv": [Path(a).name if "{dir}" in a else a for a in argv],
                     "exit_code": int(codes[name]), **spread(runs[name])})
        print(f"cold {name:18} {rows[-1]['median_s'] * 1e3:9.2f} ms", file=sys.stderr)
    return rows


def run(main, workdir: Path) -> list[dict]:
    rows = []
    for kind in KINDS:
        for n in SIZES:
            netlist = workdir / f"{kind}{n}.json"
            out = workdir / "out"
            commands = {
                "gen": ["gen", kind, "--n", str(n), "-o", str(netlist)],
                "stats": ["stats", "--netlist", str(netlist), "-T", str(read_time(kind, n)), "-o", str(out)],
                "sweep": ["sweep", "--netlist", str(netlist), "--t-range", "0..quiescence",
                          "--format", "json", "-o", str(out)],
            }
            for name, argv in commands.items():
                result = measure(main, argv, netlist if name == "gen" else out)
                shown = [a if a not in (str(netlist), str(out)) else Path(a).name for a in argv]
                rows.append({"kind": kind, "n": n, "command": name, "argv": shown, **result})
                print(f"{kind}{n:<3} {name:6} {result['median_s'] * 1e3:9.2f} ms "
                      f"{result['peak_bytes'] / 1e6:7.2f} MB", file=sys.stderr)
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON report to write")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding the pseudoadder package")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    from pseudoadder import cli

    if Path(cli.__file__).resolve().parent != src / "pseudoadder":
        print(f"error: imported pseudoadder from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="layers-") as tmp:
        rows = run(cli.main, Path(tmp))
        cold = cold_times(src, cli.main, Path(tmp))
    report = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "git_sha": git(src, "rev-parse", "HEAD"),
        # sources that differ from that commit, as git status lists them
        "src_changes": (git(src, "status", "--porcelain", "--", ".") or "").splitlines(),
        "repeats": REPEATS,
        "import": import_time(src),
        "cold": cold,
        "commands": rows,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
