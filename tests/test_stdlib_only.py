import ast
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


def test_cli_import_loads_no_dataclasses_or_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize, and every CLI
    # run pays its package import first; this checks modules, not time
    code = "import sys; before = set(sys.modules); import pseudoadder.cli; print(*sorted(set(sys.modules) - before))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True, text=True, timeout=60, check=True,
    )
    added = set(done.stdout.split())
    assert "pseudoadder.cli" in added
    assert added & {"dataclasses", "inspect", "ast", "dis", "tokenize"} == set()
