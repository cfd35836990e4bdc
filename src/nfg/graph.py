"""The normal factor graph structure: vertices with ciliation-ordered ports,
internal edges on exactly two ports, dangling edges on exactly one.

Ciliation is an explicit ordered edge list per vertex (slot 0 is the marked
first argument); there is no geometric embedding.  The dangling-edge list is
ordered and fixes the axis order of the exterior function.  Self-loops are
permitted and occupy two distinct slots of one vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .tensor import Tensor


@dataclass(frozen=True)
class PortRef:
    vertex: str
    slot: int


Port = Union[PortRef, Tuple[str, int]]


@dataclass
class Edge:
    id: str
    alphabet: int
    endpoints: Tuple[PortRef, ...]  # two for internal edges, one for dangling

    @property
    def is_dangling(self) -> bool:
        return len(self.endpoints) == 1


@dataclass
class Vertex:
    tensor: Tensor
    ciliation: List[Optional[str]]  # edge id occupying each slot, None while building


class NfgError(ValueError):
    pass


class FrozenNfgError(NfgError):
    pass


def _as_port(p: Port) -> PortRef:
    if isinstance(p, PortRef):
        return p
    v, s = p
    return PortRef(str(v), int(s))


class Nfg:
    """Vertices, internal edges E, and an ordered dangling interface D."""

    def __init__(self):
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

    def _claim_port(self, port: PortRef, eid: str, alphabet: Optional[int]) -> int:
        if port.vertex not in self.vertices:
            raise NfgError(f"unknown vertex {port.vertex!r}")
        vtx = self.vertices[port.vertex]
        if not (0 <= port.slot < vtx.tensor.rank):
            raise NfgError(
                f"slot {port.slot} out of range for vertex {port.vertex!r} "
                f"of degree {vtx.tensor.rank}"
            )
        if vtx.ciliation[port.slot] is not None:
            raise NfgError(f"port ({port.vertex!r}, {port.slot}) already in use")
        axis = vtx.tensor.shape[port.slot]
        if alphabet is not None and alphabet != axis:
            raise NfgError(
                f"alphabet {alphabet} does not match axis size {axis} at "
                f"({port.vertex!r}, {port.slot})"
            )
        vtx.ciliation[port.slot] = eid
        return axis

    def connect(self, port_a: Port, port_b: Port, alphabet: Optional[int] = None,
                name: Optional[str] = None) -> str:
        """Join two free ports with an internal edge; alphabet inferred if omitted."""
        self._check_mutable()
        pa, pb = _as_port(port_a), _as_port(port_b)
        if pa == pb:
            raise NfgError("an internal edge needs two distinct ports")
        eid = name if name is not None else self.fresh_edge_id()
        if eid in self.edges:
            raise NfgError(f"duplicate edge id {eid!r}")
        size_a = self._claim_port(pa, eid, alphabet)
        try:
            size_b = self._claim_port(pb, eid, size_a)
        except NfgError:
            self.vertices[pa.vertex].ciliation[pa.slot] = None
            raise
        assert size_a == size_b
        self.edges[eid] = Edge(eid, size_a, (pa, pb))
        return eid

    def add_dangling(self, port: Port, alphabet: Optional[int] = None,
                     name: Optional[str] = None) -> str:
        """Attach a dangling edge; it is appended to the external interface order."""
        self._check_mutable()
        p = _as_port(port)
        eid = name if name is not None else self.fresh_edge_id()
        if eid in self.edges:
            raise NfgError(f"duplicate edge id {eid!r}")
        size = self._claim_port(p, eid, alphabet)
        self.edges[eid] = Edge(eid, size, (p,))
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

    def internal_edge_ids(self) -> List[str]:
        return [eid for eid in self.edges if len(self.edges[eid].endpoints) == 2]

    def dangling_shape(self) -> Tuple[int, ...]:
        return tuple(self.edges[eid].alphabet for eid in self.dangling)

    def backend(self) -> str:
        for vtx in self.vertices.values():
            return vtx.tensor.backend
        return "exact"

    def copy(self) -> "Nfg":
        g = Nfg()
        g.vertices = {vid: Vertex(v.tensor, list(v.ciliation)) for vid, v in self.vertices.items()}
        g.edges = {eid: Edge(e.id, e.alphabet, e.endpoints) for eid, e in self.edges.items()}
        g.dangling = list(self.dangling)
        g._vcount = self._vcount
        g._ecount = self._ecount
        return g

    # -- validation --------------------------------------------------------

    def validate(self) -> List[str]:
        """All structural invariants; returns violations (empty means ok)."""
        violations: List[str] = []
        claimed: Dict[Tuple[str, int], str] = {}
        for eid, edge in self.edges.items():
            if len(edge.endpoints) not in (1, 2):
                violations.append(f"edge {eid!r} has {len(edge.endpoints)} endpoints")
                continue
            if len(edge.endpoints) == 2 and edge.endpoints[0] == edge.endpoints[1]:
                violations.append(f"edge {eid!r} uses one port twice")
            for p in edge.endpoints:
                if p.vertex not in self.vertices:
                    violations.append(f"edge {eid!r} references unknown vertex {p.vertex!r}")
                    continue
                vtx = self.vertices[p.vertex]
                if not (0 <= p.slot < len(vtx.ciliation)):
                    violations.append(
                        f"edge {eid!r} references slot {p.slot} of vertex {p.vertex!r} "
                        f"(degree {len(vtx.ciliation)})"
                    )
                    continue
                if (p.vertex, p.slot) in claimed:
                    violations.append(
                        f"port ({p.vertex!r}, {p.slot}) covered by edges "
                        f"{claimed[(p.vertex, p.slot)]!r} and {eid!r}"
                    )
                claimed[(p.vertex, p.slot)] = eid
                if vtx.ciliation[p.slot] != eid:
                    violations.append(
                        f"ciliation of {p.vertex!r} slot {p.slot} disagrees with edge {eid!r}"
                    )
                if vtx.tensor.shape[p.slot] != edge.alphabet:
                    violations.append(
                        f"alphabet mismatch on edge {eid!r}: size {edge.alphabet} vs axis "
                        f"{vtx.tensor.shape[p.slot]} at ({p.vertex!r}, {p.slot})"
                    )
        for vid, vtx in self.vertices.items():
            if len(vtx.ciliation) != vtx.tensor.rank:
                violations.append(
                    f"vertex {vid!r} rank {vtx.tensor.rank} != degree {len(vtx.ciliation)}"
                )
            for slot, eid in enumerate(vtx.ciliation):
                if eid is None:
                    violations.append(f"uncovered port ({vid!r}, {slot})")
                elif eid not in self.edges:
                    violations.append(f"vertex {vid!r} slot {slot} names unknown edge {eid!r}")
        for eid in self.dangling:
            if eid not in self.edges or not self.edges[eid].is_dangling:
                violations.append(f"interface lists non-dangling edge {eid!r}")
        for eid, edge in self.edges.items():
            if edge.is_dangling and eid not in self.dangling:
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

    def rewire(self, moves: Dict[PortRef, PortRef]) -> None:
        """Repoint every edge endpoint that is a key of moves to its value.

        Call it once the rewritten vertices are in place: the ciliation at
        each target port names the edge to rebuild, so only edges with a
        moved endpoint are touched (in place, on a graph the caller owns).
        """
        for eid in {self.vertices[p.vertex].ciliation[p.slot] for p in moves.values()}:
            edge = self.edges[eid]
            self.edges[eid] = Edge(eid, edge.alphabet,
                                   tuple(moves.get(p, p) for p in edge.endpoints))

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
        g.rewire({PortRef(vid, old): PortRef(vid, new) for new, old in enumerate(new_order)})
        return g
