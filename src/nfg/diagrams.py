"""Diagram constructors and independent oracles for the linear-algebra
identities: trace, cross product, Levi-Civita contraction, the cross-product
identity suites, determinant, and the Pfaffian diagram.

The determinant and Pfaffian oracles are eliminations over the backend's
scalars (pivoted Gaussian elimination; Parlett-Reid skew elimination), so
they are polynomial and share no code with the Levi-Civita diagrams.

Every ``check_*`` function evaluates both sides of an identity through
separate routes (NFG contraction on one side, independent combinatorics or a
differently wired NFG on the other) and reports exact equality on the
rational backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Sequence, Tuple

from . import scalars
from .algebra import eval_compound, stack, sub_nfgs
from .builtins import EPS_DEFAULT_LIMIT, delta2, delta_point, levi_civita
from .contraction import exterior_brute, exterior_planned
from .graph import Nfg, NfgError, Vertex
from .scalars import EXACT
from .tensor import Tensor


@dataclass
class IdentityCheckReport:
    name: str
    lhs: Tensor
    rhs: Tensor
    equal: bool


def _report(name: str, lhs: Tensor, rhs: Tensor) -> IdentityCheckReport:
    return IdentityCheckReport(name, lhs, rhs, lhs.equal(rhs))


# -- small vector/matrix plumbing -------------------------------------------


def transpose(a: Tensor) -> Tensor:
    return a.permute_axes([1, 0])


def matmul_oracle(a: Tensor, b: Tensor) -> Tensor:
    """Schoolbook triple-loop matrix product."""
    n, k = a.shape
    k2, m = b.shape
    if k != k2:
        raise NfgError("inner dimensions disagree")
    z = scalars.zero(a.backend)
    av, bv = a.values(), b.values()
    data = []
    for i in range(n):
        for j in range(m):
            acc = z
            for t in range(k):
                acc = acc + av[i * k + t] * bv[t * m + j]
            data.append(acc)
    return Tensor.from_values((n, m), data, a.backend)


def _square_dim(a: Tensor, what: str) -> int:
    if a.rank != 2 or a.shape[0] != a.shape[1]:
        raise NfgError(f"{what} needs a square matrix")
    return a.shape[0]


def _within_eps_limit(dim: int) -> int:
    if dim > EPS_DEFAULT_LIMIT:
        raise NfgError(f"dimension {dim} exceeds the diagram limit {EPS_DEFAULT_LIMIT}")
    return dim


def trace_oracle(a: Tensor):
    n = _square_dim(a, "trace")
    acc = scalars.zero(a.backend)
    for v in a.values()[::n + 1]:
        acc = acc + v
    return acc


def scalar_tensor(value, backend: str = EXACT) -> Tensor:
    return Tensor.from_values((), [value], backend)


# -- diagram builder ---------------------------------------------------------


class DiagramBuilder:
    """Combinators for wiring cross/dot diagrams out of epsilon vertices.

    A pending port is a (vertex id, slot) pair that is not yet covered by an
    edge; ``vec`` adds a vertex and yields its slot 0, ``cross`` consumes two
    ports and yields the epsilon vertex's first slot, ``dot`` joins two ports,
    ``out`` turns a port into a dangling edge.  A matrix vertex's slot 0 is
    its row, which the epsilons read, and its slot 1 carries its column: an
    edge that joins the slot 1 of two matrices sums over their shared column.
    """

    def __init__(self, backend: str = EXACT):
        self.g = Nfg()
        self.backend = backend
        self._eps = levi_civita(3, backend)

    def vec(self, t: Tensor) -> Tuple[str, int]:
        vid = self.g.add_vertex(t)
        return (vid, 0)

    def cross(self, px: Tuple[str, int], py: Tuple[str, int]) -> Tuple[str, int]:
        eps_id = self.g.add_vertex(self._eps)
        self.g.connect((eps_id, 1), px)
        self.g.connect((eps_id, 2), py)
        return (eps_id, 0)

    def dot(self, p: Tuple[str, int], q: Tuple[str, int]) -> "DiagramBuilder":
        self.g.connect(p, q)
        return self

    def out(self, p: Tuple[str, int]) -> str:
        return self.g.add_dangling(p)


# -- trace and cross-product diagrams ---------------------------------------


def trace_diagram(a: Tensor) -> Nfg:
    """One vertex with a self-loop; the exterior function is tr(a)."""
    _square_dim(a, "trace diagram")
    g = Nfg()
    vid = g.add_vertex(a, name="a")
    g.connect((vid, 0), (vid, 1), name="loop")
    return g


def matrix_cycle_diagram(mats: Sequence[Tuple[Tensor, bool]]) -> Nfg:
    """The trace of a product of matrices, each optionally transposed.

    Wires column of each factor to row of the next, cyclically; transposition
    is realized purely by ciliation (plugging the other slot), with the
    stored tensor untouched.
    """
    g = Nfg()
    vids = [g.add_vertex(t, name=f"m{k}") for k, (t, _) in enumerate(mats)]
    n = len(mats)
    for k in range(n):
        _, tr_k = mats[k]
        _, tr_next = mats[(k + 1) % n]
        out_slot = 0 if tr_k else 1      # column axis of the k-th factor
        in_slot = 1 if tr_next else 0    # row axis of the next factor
        g.connect((vids[k], out_slot), (vids[(k + 1) % n], in_slot))
    return g


def cross_diagram(u: Tensor, v: Tensor) -> Nfg:
    """Epsilon vertex with u and v on its second and third arguments; the
    dangling first argument carries u x v."""
    if u.shape != (3,) or v.shape != (3,):
        raise NfgError("cross product needs two length-3 vectors")
    b = DiagramBuilder(u.backend)
    p = b.cross(b.vec(u), b.vec(v))
    b.out(p)
    return b.g


# -- identity checks ---------------------------------------------------------


def check_eps_contraction(backend: str = EXACT) -> IdentityCheckReport:
    """Contraction of two Levi-Civita symbols over one shared argument equals
    a difference of Kronecker-delta pairs; checked exhaustively over {1,2,3}^4.

    Interface order is (x1, x2, y1, y2) on both sides.
    """
    eps = levi_civita(3, backend)
    lhs_g = Nfg()
    e1 = lhs_g.add_vertex(eps, name="eps1")
    e2 = lhs_g.add_vertex(eps, name="eps2")
    lhs_g.connect((e1, 2), (e2, 0), name="t")
    y1 = lhs_g.add_dangling((e1, 0), name="y1")
    y2 = lhs_g.add_dangling((e1, 1), name="y2")
    x2 = lhs_g.add_dangling((e2, 1), name="x2")
    x1 = lhs_g.add_dangling((e2, 2), name="x1")
    lhs_g.set_interface([x1, x2, y1, y2])

    def delta_pairs(pair_a, pair_b) -> Nfg:
        g = Nfg()
        d1 = g.add_vertex(delta2(3, backend), name="d1")
        d2 = g.add_vertex(delta2(3, backend), name="d2")
        ids = {}
        ids[pair_a[0]] = g.add_dangling((d1, 0), name=pair_a[0])
        ids[pair_a[1]] = g.add_dangling((d1, 1), name=pair_a[1])
        ids[pair_b[0]] = g.add_dangling((d2, 0), name=pair_b[0])
        ids[pair_b[1]] = g.add_dangling((d2, 1), name=pair_b[1])
        g.set_interface([ids["x1"], ids["x2"], ids["y1"], ids["y2"]])
        return g

    rhs = sub_nfgs(delta_pairs(("x1", "y2"), ("x2", "y1")),
                   delta_pairs(("x1", "y1"), ("x2", "y2")))
    return _report("fig8-eps-contraction", exterior_brute(lhs_g), eval_compound(rhs))


def check_cross_chain(u: Tensor, v: Tensor, s: Tensor, w: Tensor) -> IdentityCheckReport:
    """The six-way chain from (u x v).(s x w) down to (u.s)(v.w) - (u.w)(v.s)."""
    def rank0(build) -> Tensor:
        b = DiagramBuilder(u.backend)
        build(b)
        return exterior_brute(b.g)

    values = [
        rank0(lambda b: b.dot(b.cross(b.vec(u), b.vec(v)), b.cross(b.vec(s), b.vec(w)))),
        rank0(lambda b: b.dot(b.cross(b.cross(b.vec(u), b.vec(v)), b.vec(s)), b.vec(w))),
        rank0(lambda b: b.dot(b.cross(b.vec(w), b.cross(b.vec(u), b.vec(v))), b.vec(s))),
        rank0(lambda b: b.dot(b.cross(b.cross(b.vec(s), b.vec(w)), b.vec(u)), b.vec(v))),
        rank0(lambda b: b.dot(b.cross(b.vec(v), b.cross(b.vec(s), b.vec(w))), b.vec(u))),
    ]

    def dot_pair(x1, y1, x2, y2) -> Nfg:
        b = DiagramBuilder(u.backend)
        b.dot(b.vec(x1), b.vec(y1))
        b.dot(b.vec(x2), b.vec(y2))
        return b.g

    rhs_val = eval_compound(sub_nfgs(dot_pair(u, s, v, w), dot_pair(u, w, v, s)))
    values.append(rhs_val)
    equal = all(t.equal(values[0]) for t in values[1:])
    return IdentityCheckReport("fig9-cross-chain", values[0], values[-1], equal)


def _three_row_matrices(name: str, mats: Sequence[Tensor]) -> None:
    for t in mats:
        if t.rank != 2 or t.shape[0] != 3:
            raise NfgError(f"{name} needs rank-2 tensors with 3 rows")


def _sum_of_cross_dots(name: str, mats: Sequence[Tensor], pattern: str) -> Tensor:
    """sum_ij (x1 x x2).(x3 x x4), where x_k is column pattern[k] ("i" or "j")
    of the k-th of the four matrices A, B, C, D, as one diagram: the two
    epsilons read the matrices' rows, and each summed column index is the
    edge that joins the column slots of the two matrices sharing its letter."""
    _three_row_matrices(name, mats)
    (i1, i2), (j1, j2) = ([k for k, p in enumerate(pattern) if p == c] for c in "ij")
    if mats[i1].shape[1] != mats[i2].shape[1] or mats[j1].shape[1] != mats[j2].shape[1]:
        raise NfgError(f"{name} needs the column counts of {'ABCD'[i1]},{'ABCD'[i2]} "
                       f"and of {'ABCD'[j1]},{'ABCD'[j2]} to agree")
    bd = DiagramBuilder(mats[0].backend)
    rows = [bd.vec(t) for t in mats]
    bd.dot(bd.cross(rows[0], rows[1]), bd.cross(rows[2], rows[3]))
    for k1, k2 in ((i1, i2), (j1, j2)):
        bd.dot((rows[k1][0], 1), (rows[k2][0], 1))
    return exterior_brute(bd.g)


def check_fig10(a: Tensor, b: Tensor, c: Tensor, d: Tensor) -> IdentityCheckReport:
    """sum_ij (a_i x b_j).(c_j x d_i) = tr(AD^T BC^T) - tr(BC^T) tr(AD^T)."""
    lhs = _sum_of_cross_dots("fig10", (a, b, c, d), "ijji")
    rhs = eval_compound(sub_nfgs(
        matrix_cycle_diagram([(a, False), (d, True), (b, False), (c, True)]),
        stack(matrix_cycle_diagram([(b, False), (c, True)]),
              matrix_cycle_diagram([(a, False), (d, True)])),
    ))
    return _report("fig10-cross-matrix", lhs, rhs)


def check_fig11a(a: Tensor, b: Tensor, c: Tensor, d: Tensor) -> IdentityCheckReport:
    """sum_ij (a_i x b_i).(c_j x d_j) = tr(AB^T DC^T) - tr(AB^T CD^T)."""
    lhs = _sum_of_cross_dots("fig11a", (a, b, c, d), "iijj")
    rhs = eval_compound(sub_nfgs(
        matrix_cycle_diagram([(a, False), (b, True), (d, False), (c, True)]),
        matrix_cycle_diagram([(a, False), (b, True), (c, False), (d, True)]),
    ))
    return _report("fig11a-cross-matrix", lhs, rhs)


def check_fig11b(a1: Tensor, b: Tensor, c: Tensor) -> IdentityCheckReport:
    """sum_i (a1 x b_i) x c_i = (BC^T) a1 - tr(BC^T) a1.

    The left side is one diagram: the inner epsilon reads a1 and B's row, the
    outer one reads the inner's first slot and C's row and dangles its own
    first slot, and the summed column index i is the edge B.col--C.col."""
    if a1.shape != (3,):
        raise NfgError("fig11b needs a length-3 vector a1")
    _three_row_matrices("fig11b", (b, c))
    if b.shape[1] != c.shape[1]:
        raise NfgError("fig11b needs the column counts of B and C to agree")
    bd = DiagramBuilder(a1.backend)
    rb, rc = bd.vec(b), bd.vec(c)
    bd.out(bd.cross(bd.cross(bd.vec(a1), rb), rc))
    bd.dot((rb[0], 1), (rc[0], 1))
    lhs = exterior_brute(bd.g)

    # (BC^T) a1: B.row dangles, B.col--C.col, C.row--a1
    g1 = Nfg()
    vb = g1.add_vertex(b, name="b")
    vc = g1.add_vertex(c, name="c")
    va = g1.add_vertex(a1, name="a1")
    g1.connect((vb, 1), (vc, 1), name="i")
    g1.connect((vc, 0), (va, 0), name="y")
    g1.add_dangling((vb, 0), name="x")
    # tr(BC^T) a1: the trace cycle stacked beside a lone dangling a1
    g2a = matrix_cycle_diagram([(b, False), (c, True)])
    g2b = Nfg()
    va2 = g2b.add_vertex(a1, name="a1")
    g2b.add_dangling((va2, 0), name="x")
    rhs = eval_compound(sub_nfgs(g1, stack(g2a, g2b)))
    return _report("fig11b-cross-matrix", lhs, rhs)


# -- determinant -------------------------------------------------------------


def det_diagram(a: Tensor) -> Nfg:
    """Epsilon vertex whose argument j reads the j-th column of a, selected by
    a point-mass vector; the exterior function equals det(a)."""
    n = _within_eps_limit(_square_dim(a, "determinant"))
    g = Nfg()
    eps_id = g.add_vertex(levi_civita(n, a.backend), name="eps")
    for j in range(1, n + 1):
        va = g.add_vertex(a, name=f"a{j}")
        vd = g.add_vertex(delta_point(n, j, a.backend), name=f"d{j}")
        g.connect((eps_id, j - 1), (va, 0), name=f"x{j}")
        g.connect((va, 1), (vd, 0), name=f"c{j}")
    return g


def det_oracle(a: Tensor):
    """Gaussian elimination with partial pivoting on the largest-magnitude
    entry of each column; each row swap flips the sign."""
    n = _square_dim(a, "determinant")
    vals = a.values()
    m = [vals[i * n:(i + 1) * n] for i in range(n)]
    det = scalars.one(a.backend)
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(m[i][k]))
        if not m[p][k]:
            return scalars.zero(a.backend)
        if p != k:
            m[k], m[p] = m[p], m[k]
            det = -det
        det = det * m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k + 1, n):
                m[i][j] -= f * m[k][j]
    return det


def det_cofactor(a: Tensor):
    """Cofactor (Laplace) expansion along the first row; second oracle route."""
    zero = scalars.zero(a.backend)

    def expand(vals: list, n: int):
        if n == 1:
            return vals[0]
        acc = zero
        for j, v in enumerate(vals[:n]):
            if not v:
                continue
            minor = [vals[i * n + k] for i in range(1, n) for k in range(n) if k != j]
            term = v * expand(minor, n - 1)
            acc = acc + term if j % 2 == 0 else acc - term
        return acc

    return expand(a.values(), a.shape[0])


def check_triple_product(a1: Tensor, a2: Tensor, a3: Tensor) -> IdentityCheckReport:
    """(a1 x a2).a3 = (a2 x a3).a1 = (a3 x a1).a2 = det(a1 a2 a3)."""
    for t in (a1, a2, a3):
        if t.shape != (3,):
            raise NfgError("triple product needs three length-3 vectors")

    def triple(x, y, z) -> Tensor:
        bd = DiagramBuilder(a1.backend)
        bd.dot(bd.cross(bd.vec(x), bd.vec(y)), bd.vec(z))
        return exterior_brute(bd.g)

    rows = zip(a1.values(), a2.values(), a3.values())
    mat = Tensor.from_values((3, 3), [x for row in rows for x in row], a1.backend)
    det_val = exterior_planned(det_diagram(mat))
    values = [triple(a1, a2, a3), triple(a2, a3, a1), triple(a3, a1, a2), det_val]
    equal = all(t.equal(values[0]) for t in values[1:])
    return IdentityCheckReport("triple-product", values[0], det_val, equal)


# -- Pfaffian ----------------------------------------------------------------


def _check_skew(a: Tensor) -> int:
    dim = _square_dim(a, "Pfaffian")
    if dim % 2 != 0:
        raise NfgError(f"Pfaffian needs an even dimension, got {dim}")
    # stored entries share one denominator, so a zero sum of two is a zero sum of values
    cells = a.to_dense().dense
    for i in range(dim):
        for j in range(i, dim):
            if cells[i * dim + j] + cells[j * dim + i]:
                raise NfgError(f"matrix is not skew-symmetric at ({i}, {j})")
    return dim


def pfaffian_diagram(a: Tensor) -> Nfg:
    """One epsilon(2n) vertex and n copies of a: copy k reads epsilon's k-th
    and (2n-k+1)-th arguments.  The exterior function is n! 2^n Pf(a)."""
    dim = _within_eps_limit(_check_skew(a))
    n = dim // 2
    g = Nfg()
    eps_id = g.add_vertex(levi_civita(dim, a.backend), name="eps")
    for k in range(1, n + 1):
        va = g.add_vertex(a, name=f"a{k}")
        g.connect((eps_id, k - 1), (va, 0), name=f"i{k}")
        g.connect((eps_id, 2 * n - k), (va, 1), name=f"j{k}")
    return g


def pfaffian_oracle(a: Tensor):
    """Pf(a) by Parlett-Reid skew elimination.  Step k moves the
    largest-magnitude entry of row k right of the diagonal to column k+1
    (swapping row and column together flips the sign), multiplies Pf by that
    pivot, and reduces the trailing block to its skew Schur complement."""
    dim = _check_skew(a)
    vals = a.values()
    m = [vals[i * dim:(i + 1) * dim] for i in range(dim)]
    pf = scalars.one(a.backend)
    for k in range(0, dim, 2):
        p = max(range(k + 1, dim), key=lambda j: abs(m[k][j]))
        piv = m[k][p]
        if not piv:
            return scalars.zero(a.backend)
        if p != k + 1:
            m[k + 1], m[p] = m[p], m[k + 1]
            for row in m:
                row[k + 1], row[p] = row[p], row[k + 1]
            pf = -pf
        pf = pf * piv
        for i in range(k + 2, dim):
            for j in range(k + 2, dim):
                m[i][j] += (m[k + 1][i] * m[k][j] - m[k][i] * m[k + 1][j]) / piv
    return pf


def pfaffian_factor(n: int) -> int:
    """The proportionality constant n! 2^n between the diagram and Pf."""
    return factorial(n) * 2 ** n


def check_prop1(a: Tensor, engine: str = "planned") -> IdentityCheckReport:
    """The Pfaffian diagram's exterior equals n! 2^n Pf(a)."""
    dim = _check_skew(a)
    run = exterior_brute if engine == "brute" else exterior_planned
    rhs = scalar_tensor(pfaffian_oracle(a), a.backend).scale(pfaffian_factor(dim // 2))
    return _report(f"prop1-pfaffian-2n={dim}", run(pfaffian_diagram(a)), rhs)


# -- edge utilities used by the delta-insertion property ----------------------


def insert_delta2(g: Nfg, eid: str) -> Nfg:
    """Splice an identity-matrix vertex into the middle of an edge; the
    exterior function is unchanged (the wire abbreviation).

    The edge keeps its id and moves from its first port (the first vertex
    whose ciliation names it, at its first slot there) onto the identity's
    slot 1; a new edge joins the identity's slot 0 to the freed port.
    """
    if eid not in g.edges:
        raise NfgError(f"unknown edge {eid!r}")
    out = g.copy()
    vid = next(vid for vid, vtx in out.vertices.items() if eid in vtx.ciliation)
    slot = out.vertices[vid].ciliation.index(eid)
    dv = out.fresh_vertex_id()
    out.vertices[dv] = Vertex(delta2(out.edges[eid].alphabet, g.backend()), [None, eid])
    out.vertices[vid].ciliation[slot] = None
    out.connect((dv, 0), (vid, slot))
    return out
