"""The normal factor graph structure: vertices with ciliation-ordered ports,
and edges that are an id and an alphabet.

Ciliation is an explicit ordered edge list per vertex (slot 0 is the marked
first argument); there is no geometric embedding.  It is the only record of
the wiring: an edge id sits on two ports if the edge is internal and on one
if it dangles.  The dangling-edge list is ordered and fixes the axis order of
the exterior function.  Self-loops are permitted and occupy two distinct
slots of one vertex.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .scalars import EXACT
from .tensor import Tensor


class Edge(NamedTuple):
    id: str
    alphabet: int


class Vertex:
    def __init__(self, tensor: Tensor, ciliation: List[Optional[str]]):
        self.tensor = tensor
        self.ciliation = ciliation  # edge id occupying each slot, None while building


class NfgError(ValueError):
    pass


class FrozenNfgError(NfgError):
    pass


class Nfg:
    """Vertices, internal edges E, and an ordered dangling interface D.

    ``backend()`` is the scalar backend of the vertices, or ``empty_backend``,
    the one the graph was built with, while it has none.
    """

    def __init__(self, backend: str = EXACT):
        self.empty_backend = backend
        self.vertices: Dict[str, Vertex] = {}
        self.edges: Dict[str, Edge] = {}
        self.dangling: List[str] = []
        self.frozen = False
        self._vcount = 0
        self._ecount = 0

    # -- builders ------------------------------------------------------------

    def _check_mutable(self) -> None:
        if self.frozen:
            raise FrozenNfgError("NFG is frozen")

    def fresh_vertex_id(self) -> str:
        while f"v{self._vcount}" in self.vertices:
            self._vcount += 1
        return f"v{self._vcount}"

    def fresh_edge_id(self) -> str:
        while f"e{self._ecount}" in self.edges:
            self._ecount += 1
        return f"e{self._ecount}"

    def add_vertex(self, tensor: Tensor, name: Optional[str] = None) -> str:
        self._check_mutable()
        vid = name if name is not None else self.fresh_vertex_id()
        if vid in self.vertices:
            raise NfgError(f"duplicate vertex id {vid!r}")
        self.vertices[vid] = Vertex(tensor, [None] * tensor.rank)
        return vid

    def _claim_port(self, port: Tuple[str, int], eid: str, alphabet: Optional[int] = None) -> int:
        vid, slot = port
        if vid not in self.vertices:
            raise NfgError(f"unknown vertex {vid!r}")
        vtx = self.vertices[vid]
        if not (0 <= slot < vtx.tensor.rank):
            raise NfgError(
                f"slot {slot} out of range for vertex {vid!r} of degree {vtx.tensor.rank}"
            )
        if vtx.ciliation[slot] is not None:
            raise NfgError(f"port ({vid!r}, {slot}) already in use")
        axis = vtx.tensor.shape[slot]
        if alphabet is not None and alphabet != axis:
            raise NfgError(
                f"alphabet {alphabet} does not match axis size {axis} at ({vid!r}, {slot})"
            )
        vtx.ciliation[slot] = eid
        return axis

    def connect(self, port_a: Tuple[str, int], port_b: Tuple[str, int],
                name: Optional[str] = None) -> str:
        """Join two free (vertex id, slot) ports with an internal edge; its
        alphabet is their axis size, which must agree."""
        self._check_mutable()
        eid = name if name is not None else self.fresh_edge_id()
        if eid in self.edges:
            raise NfgError(f"duplicate edge id {eid!r}")
        size = self._claim_port(port_a, eid)
        try:
            self._claim_port(port_b, eid, size)
        except NfgError:
            self.vertices[port_a[0]].ciliation[port_a[1]] = None
            raise
        self.edges[eid] = Edge(eid, size)
        return eid

    def add_dangling(self, port: Tuple[str, int], name: Optional[str] = None) -> str:
        """Attach a dangling edge; it is appended to the external interface order."""
        self._check_mutable()
        eid = name if name is not None else self.fresh_edge_id()
        if eid in self.edges:
            raise NfgError(f"duplicate edge id {eid!r}")
        size = self._claim_port(port, eid)
        self.edges[eid] = Edge(eid, size)
        self.dangling.append(eid)
        return eid

    def set_interface(self, order: Sequence[str]) -> None:
        """Reorder the dangling interface (a permutation of the dangling ids)."""
        self._check_mutable()
        if sorted(order) != sorted(self.dangling):
            raise NfgError(f"{list(order)} is not a permutation of the dangling edges")
        self.dangling = list(order)

    def freeze(self) -> "Nfg":
        self.frozen = True
        return self

    # -- inspection ------------------------------------------------------------

    def dangling_shape(self) -> Tuple[int, ...]:
        return tuple(self.edges[eid].alphabet for eid in self.dangling)

    def backend(self) -> str:
        for vtx in self.vertices.values():
            return vtx.tensor.backend
        return self.empty_backend

    def copy(self) -> "Nfg":
        g = Nfg(self.empty_backend)
        g.vertices = {vid: Vertex(v.tensor, list(v.ciliation)) for vid, v in self.vertices.items()}
        g.edges = dict(self.edges)
        g.dangling = list(self.dangling)
        g._vcount = self._vcount
        g._ecount = self._ecount
        return g

    # -- validation --------------------------------------------------------

    def validate(self) -> List[str]:
        """All structural invariants; returns violations (empty means ok)."""
        violations: List[str] = []
        ports: Dict[str, int] = dict.fromkeys(self.edges, 0)  # edge id -> ports it sits on
        for vid, vtx in self.vertices.items():
            shape = vtx.tensor.shape
            if len(vtx.ciliation) != vtx.tensor.rank:
                violations.append(
                    f"vertex {vid!r} rank {vtx.tensor.rank} != degree {len(vtx.ciliation)}"
                )
            for slot, eid in enumerate(vtx.ciliation):
                if eid is None:
                    violations.append(f"uncovered port ({vid!r}, {slot})")
                elif eid not in self.edges:
                    violations.append(f"vertex {vid!r} slot {slot} names unknown edge {eid!r}")
                else:
                    ports[eid] += 1
                    alphabet = self.edges[eid].alphabet
                    if slot < len(shape) and shape[slot] != alphabet:
                        violations.append(
                            f"alphabet mismatch on edge {eid!r}: size {alphabet} vs axis "
                            f"{shape[slot]} at ({vid!r}, {slot})"
                        )
        listed = set()
        for eid in self.dangling:
            if eid in listed:
                violations.append(f"interface lists edge {eid!r} twice")
            elif ports.get(eid) != 1:
                violations.append(f"interface lists non-dangling edge {eid!r}")
            listed.add(eid)
        for eid, n in ports.items():
            if n not in (1, 2):
                violations.append(f"edge {eid!r} sits on {n} ports")
            elif n == 1 and eid not in listed:
                violations.append(f"dangling edge {eid!r} missing from the interface order")
        backends = {v.tensor.backend for v in self.vertices.values()}
        if len(backends) > 1:
            violations.append(f"mixed scalar backends: {sorted(backends)}")
        return violations

    def check_valid(self) -> None:
        violations = self.validate()
        if violations:
            raise NfgError("invalid NFG: " + "; ".join(violations))

    # -- rewrites ------------------------------------------------------------

    def reciliate(self, vid: str, new_order: Sequence[int]) -> "Nfg":
        """Permute vertex vid's argument order; the exterior function is unchanged.

        New slot k carries what was at old slot new_order[k]; the local
        tensor's axes are permuted identically.
        """
        if vid not in self.vertices:
            raise NfgError(f"unknown vertex {vid!r}")
        vtx = self.vertices[vid]
        deg = len(vtx.ciliation)
        new_order = list(new_order)
        if sorted(new_order) != list(range(deg)):
            raise NfgError(f"{new_order} is not a permutation of 0..{deg - 1}")
        g = self.copy()
        g.vertices[vid] = Vertex(
            vtx.tensor.permute_axes(new_order),
            [vtx.ciliation[old] for old in new_order],
        )
        return g
