"""The package imports only the standard library, and of that not what its
calls never need: every import statement of every module under ``src/nfg``
names a standard-library module or ``nfg`` itself, so the package runs on a
bare Python with no third-party install, and none names ``dataclasses``,
whose import alone loads a dozen modules (``inspect``, ``ast``, ``dis``, ...).
The package also stays within its budget of physical lines, reads the
written-out ``Tensor.sparse`` nowhere but in that property, keeps its
process-wide caches as the ``functools.cache`` functions the README lists,
none of them holding a tensor entry, and has no function that only passes
its own arguments on to another; its one ``exec`` is the brute engine's
compiled join."""

import ast
import gc
import importlib
import itertools
import operator
import os
import random
import subprocess
import sys
import types
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
    """The names in the first column of README's table of process-wide caches."""
    lines = (SRC.parent.parent / "README.md").read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| Cache |"))
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2:])
    return {row.split("|")[1].strip().strip("`") for row in rows}


def cache_functions() -> list:
    """(module, function name) of every module-level ``functools.cache``
    function under src/nfg."""
    return [(path.stem, node.name) for path in sorted(SRC.glob("*.py"))
            for node in parsed(path.name).body if isinstance(node, ast.FunctionDef)
            for dec in node.decorator_list if ast.unparse(dec) in ("cache", "functools.cache")]


def test_tensor_caches_are_the_cache_functions_the_readme_lists():
    """The process-wide caches of every src/nfg module are exactly its
    ``functools.cache`` functions, each one a row of README's cache table
    (no name in two modules); no other cache decorator is used, and no
    module-level name is bound to an empty container, which is how a
    hand-rolled cache would start."""
    cached = [name for _, name in cache_functions()]
    assert "_join" in cached and len(set(cached)) == len(cached)
    assert set(cached) == readme_cache_rows()
    empty = []
    for path in sorted(SRC.glob("*.py")):
        tree = parsed(path.name)
        decorated = {ast.unparse(dec) for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                     for dec in node.decorator_list}
        assert not {d for d in decorated if "cache" in d} - {"cache", "functools.cache"}, path
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                value = node.value
                if (isinstance(value, (ast.Dict, ast.List, ast.Set)) and not ast.unparse(value)[1:-1]
                        or isinstance(value, ast.Call) and not value.args and not value.keywords
                        and ast.unparse(value.func) in ("dict", "list", "set", "OrderedDict")):
                    empty.append((path.name, node.lineno, ast.unparse(node)))
    assert empty == []


def reachable(root):
    """Every object reachable from root through containers, getters'
    positions, closures and instance attributes, but not through modules,
    classes or a function's globals."""
    seen, todo = set(), [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, (tuple, list, set, frozenset)):
            todo += obj
        elif isinstance(obj, dict):
            todo += [*obj, *obj.values()]
        elif isinstance(obj, operator.itemgetter):
            todo += obj.__reduce__()[1]
        elif isinstance(obj, types.FunctionType):
            todo += [cell.cell_contents for cell in obj.__closure__ or ()]
            todo += obj.__defaults__ or ()
        elif hasattr(obj, "__dict__"):
            todo += vars(obj).values()


def test_no_cache_holds_a_tensor_entry():
    """After brute, planned and CLI work on diagrams whose stored entries are
    each a large int (exact) or a distinct float object (f64), no cache
    function's kept values reach a Tensor, an int of 62 bits or more (every
    kept position, rank and sign is far smaller), or any stored float."""
    from nfg import cli, diagrams, suites
    from nfg.contraction import exterior_brute, exterior_planned
    from nfg.scalars import F64
    from nfg.tensor import Tensor

    rng = random.Random(35)
    graphs = []
    for backend in ("exact", F64):
        def mat(a, scale=10 ** 30 + 1):
            if backend == F64:
                return Tensor.from_values(a.shape, [float(v) * 1.5e20 for v in a.values()], F64)
            return a.scale(scale)

        graphs += [diagrams.pfaffian_diagram(mat(suites.rand_skew(rng, 6))),
                   diagrams.det_diagram(mat(suites.rand_mat(rng, 4, 4))),
                   diagrams.trace_diagram(mat(suites.rand_mat(rng, 3, 3)))]
    for g in graphs:
        for vid, vtx in g.vertices.items():  # the eps vertices too
            if vtx.tensor.backend != F64:
                g.vertices[vid].tensor = vtx.tensor.scale(10 ** 30 + 1)
        exterior_brute(g)
        exterior_planned(g)
    cli.build_parser()
    stored = {id(v) for g in graphs for vtx in g.vertices.values()
              for _, v in vtx.tensor.nonzeros() if type(v) is float}
    assert len(stored) > 20
    kept = []
    for module, name in cache_functions():
        fn = getattr(importlib.import_module(f"nfg.{module}"), name)
        assert fn.cache_info().currsize, name  # every cache was filled above
        contents = next(r for r in gc.get_referents(fn) if type(r) is dict and r is not fn.__dict__)
        kept += [(name, type(obj).__name__) for obj in reachable(contents)
                 if isinstance(obj, Tensor) or id(obj) in stored
                 or type(obj) is int and abs(obj) >= 1 << 62]
    assert kept == []


def test_the_compiled_join_is_the_one_exec():
    """Generated code stays in one reviewed place: over every src/nfg
    module, exactly one call of ``exec``, ``eval`` or ``compile`` (a method
    such as ``re.compile`` aside), and it is in ``contraction._join``."""
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = parsed(path.name)
        owner = {id(node): fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                 for node in ast.walk(fn)}  # an inner function's name overwrites its outer's
        calls += [(path.name, owner.get(id(node)), node.func.id) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("exec", "eval", "compile")]
    assert calls == [("contraction.py", "_join", "exec")]


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
