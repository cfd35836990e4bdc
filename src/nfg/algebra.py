"""Compound NFGs: formal scalar-weighted sums of graphs over one dangling
interface, plus disjoint stacking.  Evaluation delegates to the contraction
engine; no attempt is made to merge terms into a single graph.
"""

from __future__ import annotations

from typing import List, Tuple, Union

from . import scalars
from .contraction import exterior_brute, exterior_planned
from .graph import Edge, Nfg, NfgError, Vertex
from .tensor import Tensor


class CompoundNfg:
    """Nonempty (coefficient, graph) terms sharing one ordered interface and backend."""

    def __init__(self, terms: List[Tuple[object, Nfg]], interface: Tuple[int, ...]):
        if not terms:
            raise NfgError("a compound NFG needs at least one term")
        backend = terms[0][1].backend()
        for coef, g in terms:
            if g.dangling_shape() != interface:
                raise NfgError(
                    f"term interface {g.dangling_shape()} != compound "
                    f"interface {interface}"
                )
            if g.backend() != backend:
                raise scalars.BackendMismatch(
                    f"term backend {g.backend()} != compound backend {backend}")
            scalars.coerce(backend, coef)  # refuses a coefficient of the other backend
        self.terms = terms
        self.interface = interface


def as_compound(g: Union[Nfg, CompoundNfg]) -> CompoundNfg:
    if isinstance(g, CompoundNfg):
        return g
    one = scalars.one(g.backend())
    return CompoundNfg([(one, g)], g.dangling_shape())


def scale_nfg(g: Union[Nfg, CompoundNfg], lam) -> CompoundNfg:
    c = as_compound(g)
    backend = c.terms[0][1].backend()
    lam = scalars.coerce(backend, lam)
    return CompoundNfg([(lam * coef, graph) for coef, graph in c.terms], c.interface)


def add_nfgs(a: Union[Nfg, CompoundNfg], b: Union[Nfg, CompoundNfg]) -> CompoundNfg:
    ca, cb = as_compound(a), as_compound(b)
    return CompoundNfg(ca.terms + cb.terms, ca.interface)


def sub_nfgs(a: Union[Nfg, CompoundNfg], b: Union[Nfg, CompoundNfg]) -> CompoundNfg:
    return add_nfgs(a, scale_nfg(b, -1))


def stack(g1: Nfg, g2: Nfg) -> Nfg:
    """Disjoint union; the exterior function is the tensor product Z1 (x) Z2.

    Identifiers from g2 that collide with g1 are renamed automatically; the
    combined interface is g1's dangling order followed by g2's.
    """
    out = g1.copy()
    emap = {}
    for eid, edge in g2.edges.items():
        new_eid = eid
        while new_eid in out.edges:
            new_eid = new_eid + "'"
        emap[eid] = new_eid
        out.edges[new_eid] = Edge(new_eid, edge.alphabet)
    for vid, vtx in g2.vertices.items():
        new_vid = vid
        while new_vid in out.vertices:
            new_vid = new_vid + "'"
        out.vertices[new_vid] = Vertex(vtx.tensor, [emap[eid] for eid in vtx.ciliation])
    out.dangling = list(g1.dangling) + [emap[eid] for eid in g2.dangling]
    return out


def scale_via_constant_vertex(g: Nfg, lam) -> Nfg:
    """The stacked realization of scaling: a degree-0 vertex holding lam."""
    backend = g.backend()
    lam_t = Tensor.from_values((), [scalars.coerce(backend, lam)], backend)
    extra = Nfg(backend)
    extra.add_vertex(lam_t, name="lam")
    return stack(g, extra)


def eval_compound(c: Union[Nfg, CompoundNfg], engine: str = "brute") -> Tensor:
    """Sum of coefficient * exterior(graph) over the terms."""
    c = as_compound(c)
    run = {"brute": exterior_brute, "planned": exterior_planned}.get(engine)
    if run is None:
        raise ValueError(f"unknown engine {engine!r}")
    acc: Tensor = None
    for coef, g in c.terms:
        t = run(g).scale(coef)
        acc = t if acc is None else acc.add(t)
    return acc
