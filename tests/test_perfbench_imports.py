import argparse
import ast
import importlib
import re
from pathlib import Path

from pseudoadder.cli import build_parser

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_imports_resolve():
    # the benchmark is frozen; its own tests, collected with this suite,
    # also fail on a renamed or removed library name, and this one lists
    # every such name with its file and line
    paths = sorted(PERFBENCH.glob("*.py"))
    assert paths
    checked, missing = 0, []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                module, names = node.module, [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                module, names = None, [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                target = module or name
                if target.split(".")[0] != "pseudoadder":
                    continue
                checked += 1
                where = f"{path.name}:{node.lineno}"
                try:
                    mod = importlib.import_module(target)
                except ImportError:
                    missing.append(f"{where} {target}")
                    continue
                if module and not hasattr(mod, name):
                    missing.append(f"{where} {module}.{name}")
    assert checked
    assert missing == []


def test_benchmark_flags_are_cli_options():
    # the frozen benchmark passes these flags; removing one would break it silently
    path = PERFBENCH / "workloads.py"
    flags = {
        node.value
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and re.fullmatch(r"--?[A-Za-z][\w-]*", node.value)
    }
    assert "--exhaustive-n-limit" in flags
    # every parser's options, nested subcommands (gen rca, gen ksa) included
    options, parsers = set(), [build_parser()]
    for parser in parsers:
        options.update(parser._option_string_actions)
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    assert sorted(flags - options) == []


def test_benchmark_tracer_wraps_every_traced_name(monkeypatch):
    # the tracer wraps library functions by name; a renamed one would
    # silently read 0 in its per-layer metric.  These three are already
    # gone from the library; the benchmark still lists them.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.absent() == ["counting", "sim.read_output", "counting.nu_pair"]
    finally:
        tracer.uninstall()
