"""The package imports only the standard library: every import statement of
every module under ``src/nfg`` names a standard-library module or ``nfg``
itself, so the package runs on a bare Python with no third-party install."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nfg"


def test_package_imports_only_the_standard_library():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    foreign = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):  # a relative import is nfg's own
                roots = ["nfg" if node.level else node.module.split(".")[0]]
            else:
                continue
            foreign += [(path.name, node.lineno, root) for root in roots
                        if root != "nfg" and root not in sys.stdlib_module_names]
    assert foreign == []
