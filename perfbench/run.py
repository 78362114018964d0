"""End-to-end benchmark of the pseudoadder CLI.

Usage, from the repository root::

    python3 perfbench/run.py --workload point-ksa64 --seed 1 --seconds 15 --trace 0

Runs one workload (see ``workloads.py`` and ``README.md``) through
``pseudoadder.cli.main`` in this process, with one thread.  Set-up is
timed five times: a fresh interpreter importing the package, plus the
workload's ``gen`` commands.  Then whole rounds of CLI commands run
until ``--seconds`` have passed, and the first round's outputs are
checked against independent computations.  With ``--trace 1`` the same
rounds run once untraced and once traced, and the per-layer metrics are
printed instead of the end-to-end ones.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the environment and every command's time.
"""

from __future__ import annotations

import os

# one thread: NumPy's BLAS pool must not start more
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import pseudoadder.cli; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child_import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip())


def call_cli(main, argv: list[str]) -> tuple[int | None, str, str]:
    """Exit code, stdout and stderr of one CLI command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception:  # an uncaught error is a failed command, not a crash
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


def run_rounds(main, ops, seconds: float, first: list | None = None):
    """Whole rounds of ``ops`` until ``seconds`` pass.  Every command must
    print what it printed in ``first`` (by default the first round).
    Returns (rounds, wall time, per-command times, first round's
    outcomes, problems)."""
    problems: list[str] = []
    times: list[float] = []
    rounds = 0
    start = perf_counter()
    while True:
        outcomes = []
        for op in ops:
            t0 = perf_counter()
            outcomes.append(call_cli(main, op.argv))
            times.append(perf_counter() - t0)
        first = outcomes if first is None else first
        rounds += 1
        problems += [
            f"round {rounds}: `{' '.join(op.argv)}` printed other output than round 1"
            for op, got, want in zip(ops, outcomes, first) if got != want
        ]
        if perf_counter() - start >= seconds:
            return rounds, perf_counter() - start, times, first, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pseudoadder" / "cli.py").is_file():
        print(f"error: no pseudoadder sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import pseudoadder.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "pseudoadder":
        print(f"error: imported pseudoadder from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build))
    try:
        return run(args, cli, WORKLOADS[args.workload](args.seed, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, cli, workload) -> int:
    from workloads import Outcome

    problems: list[str] = []
    setup = []
    for _ in range(SETUP_REPEATS):
        imported = child_import_seconds()
        t0 = perf_counter()
        for argv in workload.gen_commands():
            code, _, err = call_cli(cli.main, argv)
            if code != 0:
                problems.append(f"`{' '.join(argv)}` exit code {code}: {err.strip()[-300:]}")
        setup.append(imported + perf_counter() - t0)

    ops = workload.ops()
    rounds, wall, times, first, bad = run_rounds(cli.main, ops, args.seconds)
    problems += bad
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rows = rounds * sum(op.rows for op in ops)
    detail = {}
    if args.trace:
        from tracer import Tracer, per_layer_metric_names

        tracer = Tracer()
        tracer.install()
        try:
            for argv in workload.gen_commands():  # once, so the generators layer shows
                call_cli(cli.main, argv)
            _, traced_wall, traced_times, _, bad = run_rounds(cli.main, ops * rounds, 0, first * rounds)
        finally:
            tracer.uninstall()
        problems += bad
        values = tracer.metrics(rounds, (traced_wall - wall) / rounds)
        values.update({"cli.rows_per_s": rows / wall, "cli.op_s.p50": statistics.median(times)})
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer_metric_names()}
        detail["absent"] = tracer.absent()
        detail["traced_command_s"] = traced_times
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    try:
        failed_per_round, found = workload.check([Outcome(*o) for o in first])
    except Exception:  # output the checks cannot read is a wrong answer, not a crash
        failed_per_round, found = 0, [f"checks raised: {traceback.format_exc(limit=4)}"]
    problems += found
    results_per_round = sum(op.results for op in ops)
    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "git_sha": git_sha(),
        "rounds": rounds,
        "rows": rows,
        "wall_s": wall,
        "rows_per_s": rows / wall,
        "op_s_p50": statistics.median(times),
        "setup_s": setup,
        "commands": [" ".join(op.argv) for op in ops],
        "command_s": times,
        "problems": problems,
    })
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not problems,
        "attempted": rounds * results_per_round,
        "failed": rounds * failed_per_round,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
