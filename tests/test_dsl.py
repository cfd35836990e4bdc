import pathlib
import re
from fractions import Fraction

import pytest

from nfg import dsl
from nfg.algebra import eval_compound
from nfg.contraction import exterior_brute
from nfg.scalars import F64, rat
from nfg.tensor import Tensor

CORPUS = pathlib.Path(__file__).parent / "corpus"
VALID = sorted(CORPUS.glob("v*.nfg"))
ERRORS = sorted(CORPUS.glob("e*.nfg"))

EXPECT_RE = re.compile(r"# expect: (\d+):(\d+) (.*)")


def test_corpus_is_large_enough():
    assert len(VALID) + len(ERRORS) >= 15


@pytest.mark.parametrize("path", VALID, ids=lambda p: p.name)
def test_valid_round_trip(path):
    doc = dsl.parse(path.read_text())
    text = dsl.serialize(doc)
    again = dsl.parse(text)
    assert again.statements == doc.statements
    assert dsl.serialize(again) == text  # canonical form is a fixed point


@pytest.mark.parametrize("path", ERRORS, ids=lambda p: p.name)
def test_error_positions(path):
    src = path.read_text()
    m = EXPECT_RE.match(src.splitlines()[0])
    assert m, f"{path.name} is missing its expect header"
    line, col, fragment = int(m.group(1)), int(m.group(2)), m.group(3)
    with pytest.raises(dsl.DslError) as exc:
        dsl.parse(src)
    err = exc.value
    assert (err.line, err.col) == (line, col)
    assert fragment in err.message
    assert str(err).startswith(f"{line}:{col}:")


def test_parsed_graphs_evaluate():
    doc = dsl.parse((CORPUS / "v05_selfloop.nfg").read_text())
    assert exterior_brute(doc.graphs["tr"]).get(()) == rat(9)
    doc = dsl.parse((CORPUS / "v06_cross.nfg").read_text())
    z = exterior_brute(doc.graphs["cx"])
    assert [z.get((i,)) for i in range(3)] == [rat(-3), rat(6), rat(-3)]


def test_let_expressions_evaluate():
    doc = dsl.parse((CORPUS / "v07_let.nfg").read_text())
    u = doc.tensors["u"]
    v = doc.tensors["v"]
    s = u.scale(rat(2)).add(v.scale(rat(2, 3)))  # 2u + v - v/3
    assert eval_compound(doc.compounds["s"]).equal(s)
    assert eval_compound(doc.compounds["t"]).equal(s.neg().add(u))


def test_interface_statement_orders_axes():
    doc = dsl.parse((CORPUS / "v04_matmul.nfg").read_text())
    g = doc.graphs["ab"]
    assert g.dangling == ["c", "r"]
    z = exterior_brute(g)
    assert z.shape == (2, 2)


def test_builtin_tensors():
    doc = dsl.parse((CORPUS / "v03_builtins.nfg").read_text())
    assert doc.tensors["E"].shape == (3, 3, 3)
    assert doc.tensors["I"].get((2, 2)) == rat(1)
    assert doc.tensors["e2"].get((1,)) == rat(1)
    assert doc.tensors["e2"].get((0,)) == rat(0)


def test_float_backend_parse():
    doc = dsl.parse("tensor u [2] = 1/2, 3\n", backend=F64)
    t = doc.tensors["u"]
    assert t.backend == F64
    assert t.get((0,)) == 0.5


def test_frozen_after_parse():
    from nfg.graph import FrozenNfgError

    doc = dsl.parse((CORPUS / "v05_selfloop.nfg").read_text())
    with pytest.raises(FrozenNfgError):
        doc.graphs["tr"].add_vertex(Tensor.from_values((2,), [1, 0]), "z")


def test_serializer_folds_negative_coefficients():
    doc = dsl.parse((CORPUS / "v07_let.nfg").read_text())
    text = dsl.serialize(doc)
    assert "let s = 2*gu + gv - 1/3*gv" in text


def test_values_and_coefficients_are_parsed_rationals():
    doc = dsl.parse(
        "tensor u [2] = 2/4, -3\n"
        "graph g { vertex a: u dangling x(a.1) }\n"
        "let s = -6/4*g + g\n"
    )
    decl, _, expr = doc.statements
    assert decl.values == [rat(1, 2), rat(-3)]
    assert [t.coef for t in expr.terms] == [rat(-3, 2), rat(1)]
    assert all(isinstance(v, Fraction) for v in decl.values + [t.coef for t in expr.terms])
    assert dsl.serialize(doc).splitlines()[0] == "tensor u [2] = 1/2, -3"
    assert dsl.serialize(doc).splitlines()[-1] == "let s = -3/2*g + g"
