"""The package imports only the standard library, and of that not what its
calls never need: every import statement of every module under ``src/nfg``
names a standard-library module or ``nfg`` itself, so the package runs on a
bare Python with no third-party install, and none names ``dataclasses``,
whose import alone loads a dozen modules (``inspect``, ``ast``, ``dis``, ...).
The package also stays within its budget of physical lines."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nfg"
LINE_BUDGET = 3000  # physical lines over all of src/nfg/*.py


def imported_roots():
    """(file name, line, top-level module) of every import under src/nfg."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):  # a relative import is nfg's own
                roots = ["nfg" if node.level else node.module.split(".")[0]]
            else:
                continue
            yield from ((path.name, node.lineno, root) for root in roots)


def test_package_imports_only_the_standard_library():
    foreign = [(name, line, root) for name, line, root in imported_roots()
               if root != "nfg" and root not in sys.stdlib_module_names]
    assert foreign == []


def test_package_does_not_import_dataclasses():
    assert [imp for imp in imported_roots() if imp[2] == "dataclasses"] == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """In a fresh interpreter, ``import nfg.cli`` adds neither module to
    ``sys.modules`` (whatever the interpreter loaded at start-up aside)."""
    code = ("import sys; before = set(sys.modules); import nfg.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_package_stays_within_its_line_budget():
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.glob("*.py"))
    assert lines <= LINE_BUDGET, f"src/nfg is {lines} lines, over its budget of {LINE_BUDGET}"
