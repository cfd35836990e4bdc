"""End-to-end acceptance checks, one test per criterion.

Every algebraic check here is exact (rational backend, zero tolerance); the
random instances are seeded, so the whole module is deterministic.
"""

import pathlib
import random
import re
import time
from collections import defaultdict

import pytest

from nfg import dsl
from nfg.contraction import (
    brute_cost,
    exterior_brute,
    exterior_planned,
    group_vertices,
    plan_greedy,
    split_vertex,
)
from nfg.diagrams import (
    matmul_oracle,
    pfaffian_diagram,
    trace_oracle,
    transpose,
)
from nfg.graph import Nfg
from nfg.suites import rand_mat, rand_rat, rand_skew, run_suite
from nfg.tensor import Tensor, pair_contract

CORPUS = pathlib.Path(__file__).parent / "corpus"


def report(criterion: int, label: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {criterion} [{label}]: PASS{suffix}")


def assert_suite(rows):
    failures = [(name, detail) for name, ok, detail in rows if not ok]
    assert not failures, f"suite failures: {failures}"


def test_criterion_01_pfaffian_diagram():
    start = time.monotonic()
    rows = run_suite("prop1", seed=0, trials=25)
    elapsed = time.monotonic() - start
    assert_suite(rows)
    report(1, "Pfaffian diagram = n!*2^n*Pf(A)", f"{elapsed:.1f}s")


def test_criterion_02_tau_sign():
    assert_suite(run_suite("lemma3"))
    report(2, "interleaving permutation is even, n=1..10")


def test_criterion_03_epsilon_cyclic_shift():
    start = time.monotonic()
    assert_suite(run_suite("lemma2"))
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"cyclic-shift sweep took {elapsed:.2f}s"
    report(3, "epsilon cyclic-shift law, exhaustive n<=6", f"{elapsed:.2f}s")


def test_criterion_04_eps_contraction():
    assert_suite(run_suite("fig8"))
    report(4, "eps-eps contraction = delta delta - delta delta, 81 assignments")


def test_criterion_05_cross_chain():
    assert_suite(run_suite("fig9", seed=0, trials=100))
    report(5, "six-way cross/dot chain equality, 100 quadruples")


def test_criterion_06_cross_matrix_identities():
    for suite in ("fig10", "fig11a", "fig11b"):
        assert_suite(run_suite(suite, seed=0, trials=20))
    report(6, "cross-product/matrix-trace identities, m,m' <= 4, 20 each")


def test_criterion_07_determinant():
    assert_suite(run_suite("det-ids", seed=0, trials=5))
    assert_suite(run_suite("triple", seed=0, trials=100))
    report(7, "det diagram, multiplicativity, transpose, triple product")


# -- criterion 8: exterior-function invariance at scale ----------------------


def random_nfg(rng: random.Random, max_vertices: int = 6, max_alphabet: int = 3,
               max_degree: int = 3, max_ports: int = 10) -> Nfg:
    """Random valid NFG, sized so the brute-force oracle stays cheap."""
    g = Nfg()
    nv = rng.randint(1, max_vertices)
    ports = []
    budget = max_ports
    for i in range(nv):
        rank = rng.randint(0, min(max_degree, budget))
        budget -= rank
        shape = tuple(rng.randint(1, max_alphabet) for _ in range(rank))
        count = 1
        for d in shape:
            count *= d
        values = [rand_rat(rng) for _ in range(count)]
        vid = g.add_vertex(Tensor.from_values(shape, values), f"v{i}")
        ports.extend((vid, slot, shape[slot]) for slot in range(rank))
    rng.shuffle(ports)
    by_alphabet = defaultdict(list)
    for p in ports:
        by_alphabet[p[2]].append(p)
    for group in by_alphabet.values():
        while len(group) >= 2 and rng.random() < 0.75:  # bias toward internal edges
            (va, sa, _), (vb, sb, _) = group.pop(), group.pop()
            g.connect((va, sa), (vb, sb))
        for vid, slot, _ in group:
            g.add_dangling((vid, slot))
    g.check_valid()
    return g


def random_factored_pair(rng: random.Random):
    """Tensors f, g and their contraction h over a known shared axis block."""
    shared = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 2)))
    f_free = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 2)))
    g_free = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 2)))

    def rand_tensor(shape):
        count = 1
        for d in shape:
            count *= d
        return Tensor.from_values(shape, [rand_rat(rng) for _ in range(count)])

    f = rand_tensor(f_free + shared)  # shared axes trail f
    gt = rand_tensor(shared + g_free)  # and lead g
    f_axes = list(range(len(f_free), f.rank))
    h = pair_contract(f, f_axes, gt, list(range(len(shared))))
    return f, gt, h, f_free, g_free, shared


def test_criterion_08_grouping_invariance_at_scale():
    rng = random.Random(20260826)
    for trial in range(200):
        g = random_nfg(rng)
        z = exterior_brute(g)
        assert exterior_planned(g, plan_greedy(g)).equal(z), f"trial {trial}"

    # split-then-group round trips on factored vertices
    for trial in range(25):
        f, gt, h, f_free, g_free, shared = random_factored_pair(rng)
        g = Nfg()
        g.add_vertex(h, "h")
        for slot in range(h.rank):
            g.add_dangling(("h", slot))
        z = exterior_brute(g)
        opened = split_vertex(g, "h", f, list(range(len(f_free))),
                              gt, list(range(len(f_free), h.rank)),
                              list(shared))
        assert not opened.validate()
        assert exterior_brute(opened).equal(z), f"split trial {trial}"
        closed = group_vertices(opened, "h_f", "h_g")
        assert len(closed.vertices) == 1
        assert exterior_brute(closed).equal(z), f"group trial {trial}"
    report(8, "grouping/splitting invariance", "200 graphs + 25 round trips")


def test_criterion_09_trace_and_ciliation():
    rng = random.Random(9)
    for n in range(1, 6):
        a, b = rand_mat(rng, n, n), rand_mat(rng, n, n)
        ab, ba = matmul_oracle(a, b), matmul_oracle(b, a)
        assert trace_oracle(ab) == trace_oracle(ba)
        at, bt = transpose(a), transpose(b)

        def chain(row_slot_a, mid_a, mid_b, col_slot_b):
            g = Nfg()
            g.add_vertex(a, "a")
            g.add_vertex(b, "b")
            g.connect(("a", mid_a), ("b", mid_b))
            g.add_dangling(("a", row_slot_a))
            g.add_dangling(("b", col_slot_b))
            return exterior_brute(g)

        assert chain(0, 1, 0, 1).equal(ab)
        assert chain(0, 1, 1, 0).equal(matmul_oracle(a, bt))
        assert chain(1, 0, 1, 0).equal(matmul_oracle(at, bt))
        assert chain(1, 0, 0, 1).equal(matmul_oracle(at, b))
    report(9, "trace cyclicity and the four ciliation variants, n <= 5")


def pfaffian_expansion(a: Tensor, idx=None):
    """First-row Pfaffian expansion; independent of the elimination oracle."""
    if idx is None:
        idx = tuple(range(a.shape[0]))
    if not idx:
        from nfg.scalars import rat
        return rat(1)
    first, rest = idx[0], idx[1:]
    total = None
    for pos, j in enumerate(rest):
        sign = 1 if pos % 2 == 0 else -1
        sub = rest[:pos] + rest[pos + 1:]
        term = sign * a.get((first, j)) * pfaffian_expansion(a, sub)
        total = term if total is None else total + term
    return total


def test_criterion_10_planner_performance():
    rng = random.Random(10)
    a = rand_skew(rng, 10)  # 2n = 10
    g = pfaffian_diagram(a)

    cost = brute_cost(g)
    assert cost >= 10**10, "brute-force enumeration must be certifiably infeasible"

    start = time.monotonic()
    plan = plan_greedy(g)
    z = exterior_planned(g, plan)
    elapsed = time.monotonic() - start

    assert plan.estimated_cost < cost
    assert elapsed < 10.0, f"planned contraction took {elapsed:.1f}s"
    assert z.shape == ()
    from nfg.diagrams import pfaffian_factor
    assert z.get(()) == pfaffian_factor(5) * pfaffian_expansion(a)
    report(10, "2n=10 planned contraction", f"{elapsed:.1f}s, brute cost {cost:.1e}")


def test_criterion_11_parser_corpus():
    valid = sorted(CORPUS.glob("v*.nfg"))
    errors = sorted(CORPUS.glob("e*.nfg"))
    assert len(valid) + len(errors) >= 15

    for path in valid:
        doc = dsl.parse(path.read_text())
        text = dsl.serialize(doc)
        assert dsl.parse(text).statements == doc.statements, path.name
        assert dsl.serialize(dsl.parse(text)) == text, path.name

    expect = re.compile(r"# expect(?: on (\w+))?: (\d+):(\d+) (.*)")  # a backend, or exact
    for path in errors:
        src = path.read_text()
        m = expect.match(src.splitlines()[0])
        assert m, f"{path.name} is missing its expect header"
        with pytest.raises(dsl.DslError) as exc:
            dsl.parse(src, m.group(1) or "exact")
        assert (exc.value.line, exc.value.col) == (int(m.group(2)), int(m.group(3)))
        assert m.group(4) in exc.value.message
    report(11, "DSL corpus", f"{len(valid)} round-trip + {len(errors)} diagnostic files")
