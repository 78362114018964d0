"""Per-command time and memory of the pseudoadder CLI and library, run in-process.

Usage, from the repository root::

    python3 bench/layers.py --out BENCH_17.json
    python3 bench/layers.py --src /path/to/other/checkout/src --out BENCH_16.json
    python3 bench/layers.py --against /path/to/parent/checkout/src --out BENCH_32.json

For a unit-delay ripple-carry adder (RCA) and a uniform-delay
Kogge-Stone adder (KSA) at each width in ``SIZES`` it runs, through
``pseudoadder.cli.main`` in this process:

* ``gen <kind> --n <n> -o <netlist>``
* ``stats --netlist <netlist> -T <t>``, with t = n // 2 on the RCA and
  t = 2 on the KSA
* ``sweep --netlist <netlist> --t-range 0..quiescence --format json``

then ``load``, ``Netlist.from_json(text)`` of that netlist's text, and
each library call in ``LIBRARY`` on that netlist, loaded beforehand, at
the ``stats`` read time: ``validity(net, t)`` with its defaults (the
block pass at n <= 10, the sampled batch above) and
``extract_ec_table(net, t)``, each recorded with ``call`` in place of
``argv``, exit code and output size.  Last come the commands in
``WARM``: the exhaustive ``verify -T 5`` of the unit-delay RCA-10 and
``verify --fast-vs-oracle --n 10 --tables 1`` (kind null).

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
differ by 2x between runs, so compare times only within one report.

``--against DIR`` measures a second copy of the package, in ``DIR``,
in the same loops: each repetition of a command, an import or a cold
run is taken for both sources in turn, the order flipped every time,
so both see the same machine load.  Its records go under the report's
``against`` key, in the same shape.  Cold runs on a shared machine are
bimodal, so two separate reports can order two sources by a mode they
happened to catch; in one alternating report both sources meet the same
modes.  Each repetition is one pair of runs, and every record keeps
its times in repetition order (``times_s``).  Each command and cold
record of both sources names in its ``faster`` key the source,
``"src"`` or ``"against"``, that was faster in at least nine tenths of
the pairs (all 5 at ``REPEATS = 5``) and whose median time beats the
other's by more than the other's quartile spread; it is null where
neither was.  It uses only the standard library.
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
from collections.abc import Callable
from functools import partial
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
KINDS = ("rca", "ksa")
SIZES = (8, 16, 32, 64, 128)
REPEATS = 5
#: cold commands: name, argv with ``{dir}`` for the work directory
COLD = (
    ("gen ksa64", ["gen", "ksa", "--n", "64", "-o", "{dir}/cold-ksa64.json"]),
    ("stats ksa64", ["stats", "--netlist", "{dir}/cold-ksa64.json", "-T", "2", "-o", "{dir}/cold-out"]),
    ("verify rca10", ["verify", "--netlist", "{dir}/cold-rca10.json", "-T", "5", "-o", "{dir}/cold-out"]),
    ("sweep rca10", ["sweep", "--netlist", "{dir}/cold-rca10.json", "--t-range", "0..quiescence",
                     "-o", "{dir}/cold-out"]),
    ("trace rca10", ["trace", "--netlist", "{dir}/cold-rca10.json", "-a", "5", "-b", "3", "-o", "{dir}/cold-out"]),
    ("chains n8", ["chains", "--n", "8", "-a", "5", "-b", "3", "-o", "{dir}/cold-out"]),
    ("fast-vs-oracle n10", ["verify", "--fast-vs-oracle", "--n", "10", "--tables", "1", "-o", "{dir}/cold-out"]),
)
#: library calls of ``pseudoadder.analysis`` beside the per-size commands and
#: ``load``, each given the netlist and the ``stats`` read time
LIBRARY = ("validity", "extract_ec_table")
LOAD = "load"  # the record of ``Netlist.from_json`` on the per-size netlist's text
#: warm commands beside the per-size ones: kind, n, name, argv with ``{dir}``
#: for the work directory, where ``rca10.json`` is the unit-delay RCA-10
WARM = (
    ("rca", 10, "verify", ["verify", "--netlist", "{dir}/rca10.json", "-T", "5", "-o", "{dir}/out"]),
    (None, 10, "fast-vs-oracle", ["verify", "--fast-vs-oracle", "--n", "10", "--tables", "1", "-o", "{dir}/out"]),
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


def in_turn(count: int, repeat: int) -> range:
    """The sources' order in one repetition: flipped every other one."""
    return range(count) if repeat % 2 == 0 else range(count - 1, -1, -1)


class Source:
    """One copy of the pseudoadder package, every module imported from
    ``src`` once and then kept out of ``sys.modules``, so two copies live
    in one process; ``with source:`` puts its modules back in for a run."""

    def __init__(self, src: Path):
        self.src = src
        before = self._take()
        sys.path.insert(0, str(src))
        try:
            import pseudoadder

            for module in sorted(p.stem for p in Path(pseudoadder.__file__).parent.glob("*.py")):
                if module != "__init__":
                    importlib.import_module(f"pseudoadder.{module}")
        finally:
            sys.path.remove(str(src))
            self.modules = self._take()
            sys.modules.update(before)
        self.main = self.modules["pseudoadder.cli"].main

    @staticmethod
    def _take() -> dict:
        names = [name for name in sys.modules if name.partition(".")[0] == "pseudoadder"]
        return {name: sys.modules.pop(name) for name in names}

    def __enter__(self) -> Source:
        self.before = self._take()
        sys.modules.update(self.modules)
        return self

    def __exit__(self, *exc) -> None:
        self._take()
        sys.modules.update(self.before)


def measure(sources: list[Source], calls: list[Callable[[], object]]) -> list[tuple[object, dict]]:
    """Per source: what its call returned the last time, and the median
    and quartile times of ``REPEATS`` calls, taken in turn with the other
    sources', then the peak of one traced call."""
    times: list[list[float]] = [[] for _ in sources]
    returned: list[object] = [None] * len(sources)
    for repeat in range(REPEATS):
        for x in in_turn(len(sources), repeat):
            with sources[x]:
                start = perf_counter()
                returned[x] = calls[x]()
                times[x].append(perf_counter() - start)
    results = []
    for source, call, value, seconds in zip(sources, calls, returned, times):
        with source:
            gc.collect()  # no earlier run's garbage is collected inside the traced one
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        results.append((value, {**spread(seconds), "peak_bytes": peak}))
    return results


def measure_cli(sources: list[Source], argvs: list[list[str]], outputs: list[Path]) -> list[dict]:
    """:func:`measure` of one ``main(argv)`` per source, with its exit
    code and the size of its output file."""
    results = measure(sources, [partial(source.main, argv) for source, argv in zip(sources, argvs)])
    return [{"exit_code": code, "output_bytes": output.stat().st_size if output.exists() else 0, **timing}
            for (code, timing), output in zip(results, outputs)]


def library_call(source: Source, name: str, netlist: Path, t: int) -> Callable[[], None]:
    """The source's ``Netlist.from_json`` of the netlist's text, read now,
    when ``name`` is :data:`LOAD`, else ``name(net, t)`` of its
    ``pseudoadder.analysis`` on the netlist loaded now; either way its
    result dropped on return."""
    from_json, text = source.modules["pseudoadder.netlist"].Netlist.from_json, netlist.read_text()
    if name == LOAD:
        def call() -> None:
            from_json(text)
    else:
        function, net = getattr(source.modules["pseudoadder.analysis"], name), from_json(text)

        def call() -> None:
            function(net, t)

    return call


def call_text(name: str, t: int) -> str:
    """The ``call`` key of a :func:`library_call` record."""
    return "Netlist.from_json(text)" if name == LOAD else f"{name}(net, {t})"


def probe(src: Path, code: str, *argv: str) -> list[str]:
    """The words that ``code`` prints in a fresh interpreter importing
    from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=60, check=True).stdout.split()


def faster(mine: dict, theirs: dict) -> str | None:
    """``"src"`` or ``"against"``, whichever of the two records was faster in at least nine tenths
    of the pairs of runs, with its median below the other's by more than the other's quartile
    spread; None where neither was."""
    for name, fast, slow in (("src", mine, theirs), ("against", theirs, mine)):
        wins = sum(x < y for x, y in zip(fast["times_s"], slow["times_s"]))
        low, high = slow["quartiles_s"]
        if 10 * wins >= 9 * len(slow["times_s"]) and slow["median_s"] - fast["median_s"] > high - low:
            return name
    return None


def spread(times: list[float]) -> dict:
    return {"median_s": statistics.median(times), "quartiles_s": statistics.quantiles(times, n=4)[::2],
            "times_s": times}


def import_times(sources: list[Source]) -> list[dict]:
    """Per source: the median and quartile seconds of ``import
    pseudoadder.cli`` in each of ``REPEATS`` fresh interpreters, taken in
    turn, timed by the benchmark's own import probe."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    perfbench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perfbench)  # stdlib imports and its one-thread BLAS variables only
    runs: list[list[float]] = [[] for _ in sources]
    for repeat in range(REPEATS):
        for x in in_turn(len(sources), repeat):
            runs[x].append(float(probe(sources[x].src, perfbench.IMPORT_PROBE)[0]))
    results = [spread(seconds) for seconds in runs]
    print("import      " + "".join(f"{r['median_s'] * 1e3:9.2f} ms" for r in results), file=sys.stderr)
    return results


def cold_times(sources: list[Source], workdirs: list[Path]) -> list[list[dict]]:
    """Per source, per command in ``COLD``: its exit code and the median
    and quartile seconds of ``import pseudoadder.cli`` plus ``main(argv)``
    in each of ``REPEATS`` fresh interpreters, the commands and then the
    sources taken in turn, each source in its own work directory."""
    runs: list[dict[str, list[float]]] = []
    for source, workdir in zip(sources, workdirs):
        with source:
            source.main(["gen", "rca", "--n", "10", "-o", str(workdir / "cold-rca10.json")])
        runs.append({name: [] for name, _ in COLD})
    codes: list[dict[str, str]] = [{} for _ in sources]
    for repeat in range(REPEATS):
        for name, argv in COLD:
            for x in in_turn(len(sources), repeat):
                seconds, codes[x][name] = probe(sources[x].src, COLD_PROBE, *(a.format(dir=workdirs[x]) for a in argv))
                runs[x][name].append(float(seconds))
    results: list[list[dict]] = [[] for _ in sources]
    for name, argv in COLD:
        for x in range(len(sources)):
            results[x].append({"command": name, "argv": [Path(a).name if "{dir}" in a else a for a in argv],
                               "exit_code": int(codes[x][name]), **spread(runs[x][name])})
        shown = "".join(f"{rows[-1]['median_s'] * 1e3:9.2f} ms" for rows in results)
        print(f"cold {name:18}{shown}", file=sys.stderr)
    return results


def run(sources: list[Source], workdirs: list[Path]) -> list[list[dict]]:
    """Per source, the records of every command and ``LIBRARY`` call in
    ``SIZES`` and ``KINDS``, then of every command in ``WARM``."""
    rows: list[list[dict]] = [[] for _ in sources]
    for kind in KINDS:
        for n in SIZES:
            netlists = [workdir / f"{kind}{n}.json" for workdir in workdirs]
            outs = [workdir / "out" for workdir in workdirs]

            def commands(netlist: Path, out: Path) -> dict[str, list[str]]:
                return {
                    "gen": ["gen", kind, "--n", str(n), "-o", str(netlist)],
                    "stats": ["stats", "--netlist", str(netlist), "-T", str(read_time(kind, n)), "-o", str(out)],
                    "sweep": ["sweep", "--netlist", str(netlist), "--t-range", "0..quiescence",
                              "--format", "json", "-o", str(out)],
                }

            argvs = [commands(netlist, out) for netlist, out in zip(netlists, outs)]
            for name in argvs[0]:
                results = measure_cli(sources, [a[name] for a in argvs], netlists if name == "gen" else outs)
                shown = [a if a not in (str(netlists[0]), str(outs[0])) else Path(a).name for a in argvs[0][name]]
                for x, result in enumerate(results):
                    rows[x].append({"kind": kind, "n": n, "command": name, "argv": shown, **result})
                show(f"{kind}{n:<3} {name:6}", results)
            t = read_time(kind, n)
            for name in (LOAD, *LIBRARY):
                calls = [library_call(source, name, netlist, t) for source, netlist in zip(sources, netlists)]
                results = [timing for _, timing in measure(sources, calls)]
                del calls  # each source's netlist
                for x, result in enumerate(results):
                    rows[x].append({"kind": kind, "n": n, "command": name, "call": call_text(name, t), **result})
                show(f"{kind}{n:<3} {name}", results)
    for source, workdir in zip(sources, workdirs):
        with source:
            source.main(["gen", "rca", "--n", "10", "-o", str(workdir / "rca10.json")])
    for kind, n, name, argv in WARM:
        results = measure_cli(sources, [[a.format(dir=w) for a in argv] for w in workdirs], [w / "out" for w in workdirs])
        shown = [Path(a).name if "{dir}" in a else a for a in argv]
        for x, result in enumerate(results):
            rows[x].append({"kind": kind, "n": n, "command": name, "argv": shown, **result})
        show(f"{kind or '':3}{n:<3} {name:6}", results)
    return rows


def show(label: str, results: list[dict]) -> None:
    print(label + "".join(f"{r['median_s'] * 1e3:9.2f} ms {r['peak_bytes'] / 1e6:7.2f} MB" for r in results),
          file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON report to write")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding the pseudoadder package")
    parser.add_argument("--against", help="directory holding a second pseudoadder package, measured in turn")
    args = parser.parse_args(argv)
    sources = []
    for src in [args.src] + ([args.against] if args.against else []):
        source = Source(Path(src).resolve())
        if Path(source.modules["pseudoadder"].__file__).resolve().parent != source.src / "pseudoadder":
            print(f"error: imported pseudoadder from {source.modules['pseudoadder'].__file__}, not {src}",
                  file=sys.stderr)
            return 2
        sources.append(source)
    with tempfile.TemporaryDirectory(prefix="layers-") as tmp:
        workdirs = [Path(tmp) / str(x) for x in range(len(sources))]
        for workdir in workdirs:
            workdir.mkdir()
        rows = run(sources, workdirs)
        cold = cold_times(sources, workdirs)
    imports = import_times(sources)
    records = [{
        "git_sha": git(source.src, "rev-parse", "HEAD"),
        # sources that differ from that commit, as git status lists them
        "src_changes": (git(source.src, "status", "--porcelain", "--", ".") or "").splitlines(),
        "import": imports[x],
        "cold": cold[x],
        "commands": rows[x],
    } for x, source in enumerate(sources)]
    report = {"python": platform.python_version(), "cpus": os.cpu_count(), "repeats": REPEATS, **records[0]}
    if args.against:
        for key in ("cold", "commands"):
            for mine, theirs in zip(records[0][key], records[1][key]):
                mine["faster"] = theirs["faster"] = faster(mine, theirs)
        report["against"] = records[1]
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
