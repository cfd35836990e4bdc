import random
from unittest import mock

import pytest

from nfg.algebra import (
    CompoundNfg,
    add_nfgs,
    eval_compound,
    scale_nfg,
    scale_via_constant_vertex,
    stack,
    sub_nfgs,
)
from nfg.contraction import exterior_brute
from nfg.graph import Nfg, NfgError
from nfg.scalars import EXACT, F64, BackendMismatch, rat
from nfg.suites import rand_mat, rand_vec
from nfg.tensor import Tensor


def vec_graph(v, name="a"):
    g = Nfg()
    g.add_vertex(v, name)
    g.add_dangling((name, 0), name="x")
    return g


def test_scale_is_entrywise():
    rng = random.Random(0)
    v = rand_vec(rng)
    g = vec_graph(v)
    z = eval_compound(scale_nfg(g, rat(3, 2)))
    assert z.equal(v.scale(rat(3, 2)))


def test_scale_refuses_an_int_beyond_the_largest_float_on_f64_only():
    v = Tensor.from_values((2,), [1, 2])
    z = eval_compound(scale_nfg(vec_graph(v), 10 ** 400))
    assert z.values() == [10 ** 400, 2 * 10 ** 400]
    g = vec_graph(Tensor.from_values((2,), [1.0, 2.0], F64))
    with pytest.raises(BackendMismatch, match="too large for f64"):
        scale_nfg(g, 10 ** 400)


def test_add_sub_linearity():
    rng = random.Random(1)
    u, v = rand_vec(rng), rand_vec(rng)
    gu, gv = vec_graph(u), vec_graph(v)
    assert eval_compound(add_nfgs(gu, gv)).equal(u.add(v))
    assert eval_compound(sub_nfgs(gu, gv)).equal(u.add(v.scale(-1)))
    combo = add_nfgs(scale_nfg(gu, rat(2)), scale_nfg(gv, rat(-1, 3)))
    assert eval_compound(combo).equal(u.scale(rat(2)).add(v.scale(rat(-1, 3))))


def test_compound_rejects_interface_mismatch():
    """CompoundNfg owns the rule; add_nfgs and sub_nfgs meet it there."""
    g1 = vec_graph(Tensor.from_values((3,), [1, 2, 3]))
    g2 = vec_graph(Tensor.from_values((2,), [1, 2]))
    for combine in (add_nfgs, sub_nfgs):
        with pytest.raises(NfgError, match=r"term interface \(2,\) != compound interface \(3,\)"):
            combine(g1, g2)


@pytest.mark.parametrize("engine", ["brute", "planned"])
def test_compound_refuses_a_second_backend_before_any_contraction(engine):
    """A term or a coefficient of the other backend is refused as the compound
    is built, so no engine runs."""
    exact = vec_graph(Tensor.from_values((2,), [1, 2]))
    f64 = vec_graph(Tensor.from_values((2,), [1.0, 2.0], F64))
    calls = []
    builds = [
        (lambda: add_nfgs(exact, f64), "term backend f64 != compound backend exact"),
        (lambda: sub_nfgs(f64, exact), "term backend exact != compound backend f64"),
        (lambda: CompoundNfg([(0.5, exact)], (2,)), "float value rejected"),
        (lambda: CompoundNfg([(rat(1, 2), f64)], (2,)), "cannot admit Fraction"),
    ]
    with mock.patch.multiple("nfg.algebra", exterior_brute=calls.append,
                             exterior_planned=calls.append):
        for build, message in builds:
            with pytest.raises(BackendMismatch, match=message):
                eval_compound(build(), engine=engine)
    assert calls == []


def test_scale_via_constant_vertex_agrees_with_formal_scale():
    # a degree-0 vertex carrying lambda realizes the same exterior function
    rng = random.Random(2)
    v = rand_vec(rng)
    g = vec_graph(v)
    lam = rat(-5, 7)
    realized = scale_via_constant_vertex(g, lam)
    assert not realized.validate()
    assert exterior_brute(realized).equal(eval_compound(scale_nfg(g, lam)))


def test_stack_concatenates_interfaces():
    rng = random.Random(3)
    u, v = rand_vec(rng), rand_vec(rng)
    g = stack(vec_graph(u), vec_graph(v))
    assert not g.validate()
    z = exterior_brute(g)
    assert z.shape == (3, 3)
    for i in range(3):
        for j in range(3):
            assert z.get((i, j)) == u.get((i,)) * v.get((j,))


def test_stack_renames_collisions():
    g1 = vec_graph(Tensor.from_values((2,), [1, 2]), name="a")
    g2 = vec_graph(Tensor.from_values((2,), [3, 4]), name="a")
    g = stack(g1, g2)
    assert len(g.vertices) == 2
    assert len(g.dangling) == 2
    assert not g.validate()


def test_eval_compound_engines_agree():
    rng = random.Random(4)
    a, b = rand_mat(rng, 2, 2), rand_mat(rng, 2, 2)
    ga, gb = Nfg(), Nfg()
    ga.add_vertex(a, "m")
    ga.add_dangling(("m", 0))
    ga.add_dangling(("m", 1))
    gb.add_vertex(b, "m")
    gb.add_dangling(("m", 0))
    gb.add_dangling(("m", 1))
    c = sub_nfgs(ga, gb)
    assert eval_compound(c, engine="brute").equal(eval_compound(c, engine="planned"))


def test_compound_of_single_graph_is_identity():
    rng = random.Random(5)
    v = rand_vec(rng)
    g = vec_graph(v)
    assert eval_compound(g).equal(v)
    c = CompoundNfg(terms=[(rat(1), g)], interface=g.dangling_shape())
    assert eval_compound(c).equal(v)


@pytest.mark.parametrize("backend, lam, expected", [(EXACT, rat(5, 2), rat(5, 2)),
                                                    (F64, 2.5, 2.5)])
@pytest.mark.parametrize("engine", ["brute", "planned"])
def test_graph_without_vertices_keeps_the_backend_it_was_built_with(backend, lam,
                                                                    expected, engine):
    """Its exterior function is the scalar 1 of that backend, so a scaled sum
    of copies coerces its coefficients there, copied or stacked alike."""
    g = Nfg(backend)
    assert g.backend() == g.copy().backend() == stack(g, Nfg(backend)).backend() == backend
    out = eval_compound(add_nfgs(scale_nfg(g, lam), scale_nfg(g.copy(), 0)), engine=engine)
    assert out.backend == backend and out.shape == ()
    assert out.get(()) == expected
    assert scale_via_constant_vertex(g, lam).backend() == backend
