"""The lemma2 suite: its slice check of the cyclic-shift law against the
literal per-tuple law, its detection of a corrupted epsilon, and its
mechanism (epsilon written out once per n, no per-tuple ``get``); the
random suite inputs against the Fraction draws they stand for; and
``run_suite``'s refusal of a trial count below 1."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from nfg import suites
from nfg.builtins import levi_civita
from nfg.cli import EXIT_UNEQUAL, main
from nfg.diagrams import det_cofactor, det_diagram, det_oracle
from nfg.scalars import EXACT
from nfg.suites import _shift_law_holds, rand_mat, rand_skew, rand_vec, run_suite
from nfg.tensor import Tensor

from test_contraction import rand_rat


def flat(x, n):
    """Row-major offset of the tuple x in range(n)**len(x)."""
    out = 0
    for v in x:
        out = out * n + v
    return out


def literal_law(d, n, k, sign):
    return all(d[flat(x, n)] == sign * d[flat(x[k:] + x[:k], n)]
               for x in itertools.product(range(n), repeat=n))


def lawful(d, n, k, sign):
    """d changed to satisfy the law: along each orbit of the k-fold shift the
    entries alternate by sign, and an orbit that cannot close is zero."""
    out = [None] * len(d)
    for x in itertools.product(range(n), repeat=n):
        if out[flat(x, n)] is not None:
            continue
        orbit = [x]
        while (y := orbit[-1][k:] + orbit[-1][:k]) != x:
            orbit.append(y)
        v = d[flat(x, n)] if sign ** len(orbit) == 1 else 0
        for j, y in enumerate(orbit):
            out[flat(y, n)] = sign ** j * v
    return out


@pytest.mark.parametrize("n,k,sign", [(n, k, sign) for n in range(1, 6) for k in range(n)
                                      for sign in (1, -1)])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), make_lawful=st.booleans(),
       bumps=st.lists(st.integers(0, 5 ** 5 - 1), max_size=2))
def test_slice_check_is_the_literal_law(n, k, sign, seed, make_lawful, bumps):
    rng = random.Random(seed)
    d = [rng.randint(-2, 2) for _ in range(n ** n)]
    if make_lawful:
        d = lawful(d, n, k, sign)
        assert literal_law(d, n, k, sign)
    for i in bumps:
        d[i % len(d)] += 1
    assert _shift_law_holds(d, n, k, sign) == literal_law(d, n, k, sign)


def _identity_cell(n):
    return flat(tuple(range(n)), n)


def _flip_sign(d, n):
    d[_identity_cell(n)] = -d[_identity_cell(n)]


def _zero_to_one(d, n):
    assert d[1] == 0  # (0, ..., 0, 1) repeats a value
    d[1] = 1


def corrupt_eps(monkeypatch, n, corrupt):
    """suites.levi_civita returns, at n only, a dense eps(n) with one cell
    changed by corrupt(d, n); the changed entries are returned."""
    d = list(levi_civita(n).to_dense().dense)
    corrupt(d, n)
    monkeypatch.setattr(suites, "levi_civita", lambda m: Tensor(
        (m,) * m, EXACT, dense=d) if m == n else levi_civita(m))
    return d


@pytest.mark.parametrize("corrupt", [_flip_sign, _zero_to_one])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_a_corrupted_cell_fails_its_row_only(monkeypatch, capsys, n, corrupt):
    corrupt_eps(monkeypatch, n, corrupt)
    assert main(["verify", "lemma2"]) == EXIT_UNEQUAL
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"lemma2-n={m} {'FAIL' if m == n else 'PASS'} {m ** m} tuples"
                     for m in range(1, 7)]


@pytest.mark.parametrize("n", [3, 5])
def test_each_k_fold_shift_check_catches_a_corrupted_cell(monkeypatch, capsys, n):
    """For odd n every k-fold shift has sign +1.  The suite checks only the
    one-step law, which implies each of them, so no cell breaks a k-fold
    shift alone; instead each k-fold slice check must catch the cell by itself."""
    d = corrupt_eps(monkeypatch, n, _zero_to_one)
    assert not any(_shift_law_holds(d, n, k, 1) for k in range(1, n))
    assert not any(literal_law(d, n, k, 1) for k in range(1, n))
    assert main(["verify", "lemma2"]) == EXIT_UNEQUAL
    assert f"lemma2-n={n} FAIL {n ** n} tuples" in capsys.readouterr().out.splitlines()


def test_lemma2_writes_out_each_eps_once_and_reads_no_entry(monkeypatch):
    calls = {"get": 0, "to_dense": 0}
    for name in calls:
        original = getattr(Tensor, name)

        def counted(self, *args, name=name, original=original):
            calls[name] += 1
            return original(self, *args)

        monkeypatch.setattr(Tensor, name, counted)
    assert all(ok for _, ok, _ in run_suite("lemma2"))
    assert calls == {"get": 0, "to_dense": 6}


# -- random inputs --------------------------------------------------------------


def fraction_skew(rng, dim):
    """A skew matrix of rand_rat draws, row by row above the diagonal."""
    data = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            v = rand_rat(rng)
            data[i][j], data[j][i] = v, -v
    return Tensor.from_values((dim, dim), [x for row in data for x in row])


@pytest.mark.parametrize("seed", [0, 1, 26, 3001])
def test_suite_inputs_are_the_fraction_draws(seed):
    """rand_vec, rand_mat and rand_skew draw the ints rand_rat draws, in the
    same order, and store what Tensor.from_values stores for the Fractions."""
    cases = [(rand_vec, (n,), lambda rng, n: Tensor.from_values(
                 (n,), [rand_rat(rng) for _ in range(n)])) for n in (1, 3, 5)]
    cases += [(rand_mat, (r, c), lambda rng, r, c: Tensor.from_values(
                  (r, c), [rand_rat(rng) for _ in range(r * c)])) for r, c in ((1, 1), (3, 4), (6, 6))]
    cases += [(rand_skew, (dim,), fraction_skew) for dim in (2, 4, 8, 10)]
    ours, theirs = random.Random(seed), random.Random(seed)
    for make, args, reference in cases * 3:
        got, want = make(ours, *args), reference(theirs, *args)
        assert (got.shape, got.dense, got.denom) == (want.shape, want.dense, want.denom)
        assert [type(x) for x in got.dense] == [type(x) for x in want.dense]
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("trials", [0, -3])
def test_run_suite_refuses_a_trial_count_below_one_before_any_suite_runs(monkeypatch, trials):
    """Zero or negative trials would check nothing and report a pass."""
    ran = []
    for name in suites.SUITES:
        monkeypatch.setitem(suites.SUITES, name, lambda **kwargs: ran.append(kwargs))
    for name in suites.SUITES:
        with pytest.raises(ValueError, match=f"^trials must be positive, got {trials}$"):
            run_suite(name, trials=trials)
    assert ran == []
    run_suite("fig9", trials=1)
    assert ran == [{"seed": suites.DEFAULT_SEED, "trials": 1}]


DET_ROWS = [f"det-diagram-n={n}" for n in range(1, 7)]
PRODUCT_ROWS = [f"det-product-transpose-n={n}" for n in range(1, 6)]


@pytest.mark.parametrize("seed", range(4))
def test_det_ids_rows_keep_their_names_and_detail(seed):
    assert run_suite("det-ids", seed=seed) == [(name, True, "5 trials")
                                               for name in DET_ROWS + PRODUCT_ROWS]


@pytest.mark.parametrize("name, wrong, failing", [
    # the oracle adds its corner entry a[0][n-1], which transposing moves:
    # each check of both rows disagrees
    ("det_oracle", lambda a: det_oracle(a) + a.get((0, a.shape[1] - 1)),
     DET_ROWS + PRODUCT_ROWS),
    ("det_cofactor", lambda a: det_cofactor(a) + 1, DET_ROWS[:4]),  # run for n <= 4
    # every diagram reads a doubled, so its determinant is 2**n times too large
    ("det_diagram", lambda a, *more: det_diagram(a.scale(2), *more), DET_ROWS + PRODUCT_ROWS),
], ids=["det_oracle", "det_cofactor", "det_diagram"])
def test_det_ids_fails_the_rows_a_wrong_route_feeds(monkeypatch, capsys, name, wrong, failing):
    monkeypatch.setattr(suites, name, wrong)
    assert main(["verify", "det-ids"]) == EXIT_UNEQUAL
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [row[0] for row in rows] == DET_ROWS + PRODUCT_ROWS
    assert [row[0] for row in rows if row[1] == "FAIL"] == failing
