import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pseudoadder"


def test_library_imports_only_the_standard_library():
    # the library has no runtime dependencies; NumPy is for the tests only
    paths = sorted(SRC.glob("*.py"))
    assert paths
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_library_reads_no_environment_variables():
    # every setting is an argument; nothing depends on the caller's environment
    reads = [
        f"{path.name}:{node.lineno} {name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for name in [getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "name", None)]
        if name in ("environ", "environb", "getenv", "getenvb")
    ]
    assert reads == []


def test_cli_import_loads_no_dataclasses_or_inspect(tmp_path):
    # dataclasses pulls in inspect, ast, dis and tokenize, and every CLI
    # run pays its package import first; the import loads no other package
    # module and neither json nor fractions, and each command loads only
    # the package modules it runs.  This checks modules, not time
    netlist = tmp_path / "ksa8.json"

    def steps(*commands):
        """The modules added by importing the CLI, then by each command in
        turn, in one fresh interpreter."""
        code = (
            "import sys\n"
            "def step(): global seen; added = set(sys.modules) - seen; seen |= added; print(*sorted(added))\n"
            "seen = set(sys.modules)\n"
            "import pseudoadder.cli as cli\n"
            "step()\n"
        ) + "".join(f"assert cli.main({argv!r}) == 0\nstep()\n" for argv in commands)
        done = subprocess.run(
            [sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": str(SRC.parent)},
            capture_output=True, text=True, timeout=60, check=True,
        )
        return [set(line.split()) for line in done.stdout.splitlines()]

    imported, generated, chained, analysed = steps(
        ["gen", "ksa", "--n", "8", "-o", str(netlist)],
        ["chains", "--n", "8", "-a", "5", "-b", "3", "-o", str(tmp_path / "chains")],
        ["stats", "--netlist", str(netlist), "-T", "2", "-o", str(tmp_path / "out")],
    )
    assert imported & {"dataclasses", "inspect", "ast", "dis", "tokenize"} == set()
    assert imported & {"json", "fractions", "decimal"} == set()

    def package(added):
        return {m.removeprefix("pseudoadder.") for m in added if m.startswith("pseudoadder.")}

    assert package(imported) == {"cli"}
    assert package(generated) == {"netlist", "generators"}
    assert package(chained) == {"model", "chains"}
    assert package(analysed) & {"sim", "generators", "tables", "maxerror"} == set()
    assert "stats" in package(analysed)
    # fast-vs-oracle alone runs neither the netlist analysis nor chain detection
    _, verified = steps(["verify", "--fast-vs-oracle", "--n", "4", "--tables", "1", "-o", str(tmp_path / "v")])
    assert package(verified) == {"model", "netlist", "stats", "sweep", "tables"}


def test_package_api_resolves_every_name_lazily():
    import pseudoadder
    from pseudoadder import _HOME, cli

    for name in pseudoadder.__all__:
        home = importlib.import_module(f"pseudoadder.{_HOME[name]}")
        assert getattr(pseudoadder, name) is getattr(home, name), name
    star: dict = {}
    exec("from pseudoadder import *", star)
    assert set(star) - {"__builtins__"} == set(pseudoadder.__all__)
    assert set(pseudoadder.__all__) <= set(dir(pseudoadder))
    assert not hasattr(pseudoadder, "no_such_name")
    from pseudoadder import sweep

    assert sweep is sys.modules["pseudoadder.sweep"]
    # one default exhaustive width, for the CLI and the library's verdict
    assert cli.build_parser().parse_args(["verify"]).exhaustive_n_limit is pseudoadder.ORACLE_LIMIT
    assert inspect.signature(pseudoadder.validity).parameters["limit"].default is pseudoadder.ORACLE_LIMIT
    # one default sample count, for the CLI and the library's verdict
    assert cli.build_parser().parse_args(["verify"]).samples == pseudoadder.SAMPLES
    assert inspect.signature(pseudoadder.validity).parameters["samples"].default is pseudoadder.SAMPLES
