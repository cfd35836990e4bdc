"""Named verification suites over random or exhaustive instances.

Each suite returns (name, passed, detail) rows.  Random suites are seeded and
deterministic; the exact backend makes every comparison zero-tolerance.
"""

from __future__ import annotations

import random
from operator import neg
from typing import Callable, Dict, List, Tuple

from .builtins import levi_civita, tau, tau_swap_count
from .contraction import exterior_planned
from .diagrams import (
    check_cross_chain,
    check_eps_contraction,
    check_fig10,
    check_fig11a,
    check_fig11b,
    check_prop1,
    check_triple_product,
    det_cofactor,
    det_diagram,
    det_oracle,
)
from .scalars import EXACT
from .tensor import Tensor, inversion_sign, lowest_terms

Row = Tuple[str, bool, str]

DEFAULT_SEED = 0
DEFAULT_TRIALS = 100


def _from_draws(shape: Tuple[int, ...], draws: List[Tuple[int, int]]) -> Tensor:
    """A dense exact tensor of the int fractions (numerator, denominator)."""
    entries, denom = lowest_terms(*zip(*draws))
    return Tensor(shape, EXACT, dense=entries, denom=denom)


def _draw(rng: random.Random) -> Tuple[int, int]:
    return rng.randint(-9, 9), rng.randint(1, 9)


def rand_vec(rng: random.Random, n: int = 3) -> Tensor:
    return _from_draws((n,), [_draw(rng) for _ in range(n)])


def rand_mat(rng: random.Random, rows: int, cols: int) -> Tensor:
    return _from_draws((rows, cols), [_draw(rng) for _ in range(rows * cols)])


def rand_skew(rng: random.Random, dim: int) -> Tensor:
    draws = [(0, 1)] * (dim * dim)
    for i in range(dim):
        for j in range(i + 1, dim):
            num, den = draws[i * dim + j] = _draw(rng)
            draws[j * dim + i] = (-num, den)
    return _from_draws((dim, dim), draws)


def _trials_row(name: str, trials: int, check: Callable) -> Row:
    """Run check() (an identity report) trials times; one row counting failures."""
    failures = sum(not check().equal for _ in range(trials))
    return (name, failures == 0, f"{trials} trials, {failures} failures")


# -- suites -------------------------------------------------------------------


def _shift_law_holds(d: List, n: int, k: int, sign: int) -> bool:
    """d[flat(x)] == sign * d[flat(x[k:] + x[:k])] for all x in range(n)**n, d
    row-major.  With head h = flat(x[:k]) and tail t, flat(x) = h*n**(n-k) + t
    and the shift's flat is t*n**k + h: row h must be sign times d[h::n**k]."""
    tail, stride = n ** (n - k), n ** k
    return all(d[h * tail:(h + 1) * tail]
               == (d[h::stride] if sign > 0 else list(map(neg, d[h::stride])))
               for h in range(stride))


def suite_lemma2(**_) -> List[Row]:
    """Cyclic-shift law of the Levi-Civita symbol (a k-fold shift is k one-step
    ones), exhaustive over all tuples, on eps(n)'s int entries written out once."""
    rows: List[Row] = []
    for n in range(1, 7):
        d = levi_civita(n).to_dense().dense
        rows.append((f"lemma2-n={n}", _shift_law_holds(d, n, 1, (-1) ** (n - 1)),
                     f"{n ** n} tuples"))
    return rows


def suite_lemma3(**_) -> List[Row]:
    rows: List[Row] = []
    for n in range(1, 11):
        sgn = inversion_sign(tau(n))
        swaps = tau_swap_count(n)
        ok = sgn == 1 and swaps % 2 == 0
        rows.append((f"lemma3-n={n}", ok, f"sgn(tau)={sgn:+d} swaps={swaps}"))
    return rows


def suite_fig8(**_) -> List[Row]:
    rep = check_eps_contraction()
    return [(rep.name, rep.equal, "81 assignments")]


def suite_fig9(seed: int = DEFAULT_SEED, trials: int = DEFAULT_TRIALS, **_) -> List[Row]:
    rng = random.Random(seed)
    return [_trials_row("fig9-cross-chain", trials,
                        lambda: check_cross_chain(*(rand_vec(rng) for _ in range(4))))]


def _matrix_identity_suite(name: str, check: Callable, pattern: str, seed: int,
                           trials: int) -> List[Row]:
    """One row per column counts (m, m'), each trial checking four random
    3-row matrices whose column counts are m or m' as pattern reads "i" or "j"."""
    rng = random.Random(seed)
    return [_trials_row(f"{name}-m={m}-m'={mp}", trials, lambda: check(
                *(rand_mat(rng, 3, m if p == "i" else mp) for p in pattern)))
            for m in range(1, 5) for mp in range(1, 5)]


def suite_fig10(seed: int = DEFAULT_SEED, trials: int = 20, **_) -> List[Row]:
    return _matrix_identity_suite("fig10", check_fig10, "ijji", seed, trials)


def suite_fig11a(seed: int = DEFAULT_SEED, trials: int = 20, **_) -> List[Row]:
    return _matrix_identity_suite("fig11a", check_fig11a, "iijj", seed, trials)


def suite_fig11b(seed: int = DEFAULT_SEED, trials: int = 20, **_) -> List[Row]:
    rng = random.Random(seed)
    return [_trials_row(f"fig11b-m={m}", trials, lambda: check_fig11b(
                rand_vec(rng), rand_mat(rng, 3, m), rand_mat(rng, 3, m)))
            for m in range(1, 5)]


def suite_det_ids(seed: int = DEFAULT_SEED, trials: int = 5, **_) -> List[Row]:
    """det_diagram against the oracles (n <= 6), then det(ab) and det(a^T) rewired (n <= 5)."""
    rng = random.Random(seed)

    def det_ok(n: int) -> bool:
        a = rand_mat(rng, n, n)
        d = det_oracle(a)
        return exterior_planned(det_diagram(a)).get(()) == d and (n > 4 or det_cofactor(a) == d)

    def product_transpose_ok(n: int) -> bool:
        a, b = rand_mat(rng, n, n), rand_mat(rng, n, n)
        transposed = det_diagram(a)  # eps reads each a vertex's column, its point mass the row
        for j in range(1, n + 1):
            transposed.vertices[f"a{j}"].ciliation.reverse()
        d = det_oracle(a)
        return (exterior_planned(det_diagram(a, b)).get(()) == d * det_oracle(b)
                and exterior_planned(transposed).get(()) == d)

    return [(f"{name}-n={n}", all([ok(n) for _ in range(trials)]), f"{trials} trials")
            for name, ok, sizes in (("det-diagram", det_ok, range(1, 7)),
                                    ("det-product-transpose", product_transpose_ok, range(1, 6)))
            for n in sizes]


def suite_triple(seed: int = DEFAULT_SEED, trials: int = DEFAULT_TRIALS, **_) -> List[Row]:
    rng = random.Random(seed)
    return [_trials_row("triple-product", trials,
                        lambda: check_triple_product(rand_vec(rng), rand_vec(rng), rand_vec(rng)))]


def suite_prop1(seed: int = DEFAULT_SEED, trials: int = 25, **_) -> List[Row]:
    rng = random.Random(seed)
    rows: List[Row] = []
    for n in (1, 2, 3):
        ok = all([check_prop1(a, "brute").equal and check_prop1(a, "planned").equal
                  for a in [rand_skew(rng, 2 * n) for _ in range(trials)]])
        rows.append((f"prop1-2n={2 * n}", ok, f"{trials} trials, both engines"))
    rep = check_prop1(rand_skew(rng, 8), engine="planned")
    rows.append(("prop1-2n=8", rep.equal, "planned engine vs Parlett-Reid oracle"))
    return rows


SUITES: Dict[str, Callable[..., List[Row]]] = {
    "fig8": suite_fig8,
    "fig9": suite_fig9,
    "fig10": suite_fig10,
    "fig11a": suite_fig11a,
    "fig11b": suite_fig11b,
    "det-ids": suite_det_ids,
    "triple": suite_triple,
    "lemma2": suite_lemma2,
    "lemma3": suite_lemma3,
    "prop1": suite_prop1,
}


def run_suite(name: str, seed: int = DEFAULT_SEED, trials: int = None) -> List[Row]:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    kwargs = {"seed": seed}
    if trials is not None:
        if trials < 1:  # zero trials would report a pass that checked nothing
            raise ValueError(f"trials must be positive, got {trials}")
        kwargs["trials"] = trials
    return SUITES[name](**kwargs)
