"""The package imports only the standard library, and of that not what its
calls never need: every import statement of every module under ``src/nfg``
names a standard-library module or ``nfg`` itself, so the package runs on a
bare Python with no third-party install, and none names ``dataclasses``,
whose import alone loads a dozen modules (``inspect``, ``ast``, ``dis``, ...).
The package also stays within its budget of physical lines, reads the
written-out ``Tensor.sparse`` nowhere but in that property, keeps its
shape caches as the ``functools.cache`` functions the README lists, and has
no function that only passes its own arguments on to another."""

import ast
import itertools
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


def parsed(name: str) -> ast.Module:
    path = SRC / name
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_only_the_sparse_property_reads_dot_sparse():
    """No code in src/nfg outside ``Tensor.sparse`` itself reads ``.sparse``,
    the property that writes an alternating tensor out: the package reads
    ``nonzeros()`` or the storage it checks for, never the written-out map."""
    readers = []
    for path in sorted(SRC.glob("*.py")):
        tree = parsed(path.name)
        owner = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                 and node.name == "Tensor"]
        allowed = {id(node) for cls in owner for item in cls.body
                   if isinstance(item, ast.FunctionDef) and item.name == "sparse"
                   for node in ast.walk(item)}
        readers += [(path.name, node.lineno) for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "sparse"
                    and id(node) not in allowed]
    assert readers == []


def readme_cache_rows() -> set:
    """The names in the first column of README's table of tensor.py caches."""
    lines = (SRC.parent.parent / "README.md").read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| Cache |"))
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2:])
    return {row.split("|")[1].strip().strip("`") for row in rows}


def test_tensor_caches_are_the_cache_functions_the_readme_lists():
    """tensor.py's shape caches are exactly its ``functools.cache`` functions,
    each one a row of README's cache table; no module-level name is bound to
    an empty container, which is how a hand-rolled cache would start."""
    tree = parsed("tensor.py")
    cached = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
              for dec in node.decorator_list if ast.unparse(dec) in ("cache", "functools.cache")}
    assert cached and cached == readme_cache_rows()
    decorated = {ast.unparse(dec) for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for dec in node.decorator_list}
    assert not {d for d in decorated if "cache" in d} - {"cache"}
    empty = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            value = node.value
            if (isinstance(value, (ast.Dict, ast.List, ast.Set)) and not ast.unparse(value)[1:-1]
                    or isinstance(value, ast.Call) and not value.args and not value.keywords
                    and ast.unparse(value.func) in ("dict", "list", "set", "OrderedDict")):
                empty.append((node.lineno, ast.unparse(node)))
    assert empty == []


def test_no_function_only_renames_another():
    """No function in src/nfg is an alias: its whole body, after any
    docstring, ``return f(p1, ..., pk)`` with exactly its own positional
    parameters, in order.  Callers call f."""
    aliases = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(parsed(path.name)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = node.body[1:] if ast.get_docstring(node) is not None else node.body
            if len(body) != 1 or not isinstance(body[0], ast.Return):
                continue
            call = body[0].value
            params = [arg.arg for arg in node.args.posonlyargs + node.args.args]
            if (isinstance(call, ast.Call) and not call.keywords
                    and [getattr(arg, "id", None) for arg in call.args] == params):
                aliases.append((path.name, node.lineno, node.name))
    assert aliases == []
