"""The benchmark tracer patches ``nfg`` by name and its info functions read
fields of the arguments and results; every name it lists must resolve, and
every info function must read a real call, so renaming or deleting a traced
function, or a field the tracer reads, fails here, in seconds, instead of in
a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

from nfg import EXACT, Nfg, Tensor, levi_civita
from nfg.contraction import plan_greedy

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _traced(mod_name, attr):
    owner = importlib.import_module(f"nfg.{mod_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_binding_resolves():
    tracing = _tracing()
    assert tracing.TRACED
    for mod_name, attr, _, _ in tracing.TRACED:
        assert callable(_traced(mod_name, attr)), f"nfg.{mod_name}.{attr}"
    assert importlib.import_module("nfg.suites").SUITES


def test_every_info_function_reads_a_real_call():
    a = Tensor.from_values((2, 2), [1, 2, 3, 4])
    b = Tensor((2, 2), EXACT, sparse={(0, 1): 5, (1, 0): 6})
    g = Nfg()
    g.add_vertex(a, "a")
    g.add_vertex(b, "b")
    g.connect(("a", 1), ("b", 0))
    g.add_dangling(("a", 0))
    g.add_dangling(("b", 1))
    args = {
        "levi_civita": [(3,)],
        "pair_contract": [(a, [1], a, [0]), (b, [1], a, [0]), (b, [0], b, [1]),
                          (levi_civita(2), [0], a, [1])],
        "plan_greedy": [(g,)],
        "exterior_planned": [(g,), (g, plan_greedy(g))],
        "exterior_brute": [(g,)],
        "group_vertices": [(g, "a", "b")],
        "eval_compound": [(g,)],
        "parse": [("tensor u [2] = 1, 2\n",)],
    }
    tracing = _tracing()
    checked = set()
    for mod_name, attr, _, info in tracing.TRACED:
        if info is None:
            continue
        fn = _traced(mod_name, attr)
        for call in args[attr]:
            assert isinstance(info(call, {}, fn(*call)), dict), f"nfg.{mod_name}.{attr}"
        checked.add(attr)
    assert {"levi_civita", "pair_contract", "plan_greedy", "exterior_brute"} <= checked
