"""Textual description language for tensors, graphs, and compound expressions.

Grammar (EBNF sketch)::

    doc         := stmt*
    stmt        := tensor_decl | graph_decl | expr_decl
    tensor_decl := "tensor" NAME "[" dims "]" "=" value_list
                 | "tensor" NAME "=" builtin
    builtin     := "eps(" INT ")" | "delta(" INT ")" | "e(" INT "," INT ")"
    graph_decl  := "graph" NAME "{" vertex* edge* interface? "}"
    vertex      := "vertex" NAME ":" TENSORNAME
    edge        := "edge" NAME "(" port "," port ")"
                 | "dangling" NAME "(" port ")"
    port        := VERTEXNAME "." SLOT          -- slots are 1-based
    interface   := "interface" "(" NAME ("," NAME)* ")"
    expr_decl   := "let" NAME "=" expr
    expr        := term (("+" | "-") term)*
    term        := [RATIONAL "*"] GRAPHNAME

Rationals are written p/q or as integers, in decimal digits only: the Unicode
decimal digits that int() reads, so "1.5" and "²" are errors.  Whitespace
(space, tab, CR, LF) and comments, which run from "#" to end of line, may
stand between any two tokens, inside a value list too.  One compiled pattern
scans the source a token at a time, as the parser asks for it, and a
tensor's value list is read in bulk by one value pattern, straight into int
numerators over one denominator, as an exact tensor stores them; no rational
is built per value.  Every error, lexical, syntactic, or semantic, carries
the 1-based line and column of the offending token, and on f64 so does a
value beyond the largest float.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from .algebra import CompoundNfg, add_nfgs, as_compound, scale_nfg
from .builtins import delta2, delta_point, levi_civita
from .graph import Nfg, NfgError
from .scalars import EXACT, F64
from .tensor import Tensor, lowest_terms


class DslError(Exception):
    """Parse or semantic error with a source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# -- tokens -------------------------------------------------------------------


class Token(NamedTuple):
    kind: str  # NAME, NUMBER, SYM, EOF
    text: str
    line: int
    col: int


# The skip takes whitespace, and each comment with its newline; the end of
# input may follow a last comment that has none.  \w is str.isalnum() or "_",
# and \d is str.isdecimal(), the digits int() reads.  [^\W\d] also admits
# numerals such as '½', so the scanner checks that a NAME starts on
# str.isalpha() or "_".
_SKIP = r"(?:[ \t\r\n]|#[^\n]*\n)*"
_END = r"(?=(?:#[^\n]*)?\Z)"
_TOKEN = re.compile(_SKIP + r"(?:(?P<NAME>[^\W\d]\w*)|(?P<NUMBER>\d+)"
                    rf"|(?P<SYM>[\[\]{{}}(),.:=+*/-])|(?P<EOF>{_END})|(?P<BAD>.))")
# One value-list entry as the token methods read it (sign, numerator,
# denominator) and the comma, or the end of the list: a NAME or EOF.
_VALUE = re.compile(_SKIP + rf"(?:(-){_SKIP})?(\d+)(?:{_SKIP}/{_SKIP}(\d+))?{_SKIP}"
                    rf"(?:(,)|(?=[^\W\d])|{_END})")


# -- document model -----------------------------------------------------------


@dataclass
class TensorDecl:
    """A value list is kept as an exact tensor stores it, on either backend:
    int numerators over one denominator, in lowest terms as a whole
    (``tensor.lowest_terms``).  ``values`` forms the rationals on demand."""
    name: str
    dims: Optional[List[int]]        # None for the builtin form
    numerators: Optional[List[int]]  # None for the builtin form
    denom: int = 1
    builtin: Optional[Tuple] = None  # ("eps", n) | ("delta", n) | ("e", i, n)

    @property
    def values(self) -> Optional[List[Fraction]]:
        if self.numerators is None:
            return None
        return [Fraction(n, self.denom) for n in self.numerators]


@dataclass
class PortAst:
    vertex: str
    slot: int  # 1-based as written


@dataclass
class VertexDecl:
    name: str
    tensor: str


@dataclass
class EdgeDecl:
    name: str
    ports: Tuple[PortAst, PortAst]


@dataclass
class DanglingDecl:
    name: str
    port: PortAst


@dataclass
class GraphDecl:
    name: str
    vertices: List[VertexDecl]
    links: List[Union[EdgeDecl, DanglingDecl]]
    interface: Optional[List[str]]


@dataclass
class ExprTerm:
    coef: Fraction
    graph: str


@dataclass
class ExprDecl:
    name: str
    terms: List[ExprTerm]


Statement = Union[TensorDecl, GraphDecl, ExprDecl]


@dataclass
class DslDocument:
    statements: List[Statement]
    tensors: Dict[str, Tensor] = field(default_factory=dict, compare=False)
    graphs: Dict[str, Nfg] = field(default_factory=dict, compare=False)
    compounds: Dict[str, CompoundNfg] = field(default_factory=dict, compare=False)
    backend: str = field(default=EXACT, compare=False)


# -- parser -------------------------------------------------------------------


class _Parser:
    def __init__(self, source: str, backend: str):
        self.source = source
        self.pos = 0  # offset where the next token's scan starts
        self.tok: Optional[Token] = None  # the scanned token not yet consumed
        self.line_starts = [0] + [m.end() for m in re.finditer("\n", source)]
        self.backend = backend
        self.doc = DslDocument([], backend=backend)

    # token utilities ----------------------------------------------------

    def peek(self) -> Token:
        if self.tok is None:
            m = _TOKEN.match(self.source, self.pos)
            kind = m.lastgroup
            text, start, self.pos = m[kind], m.start(kind), m.end()
            line = bisect_right(self.line_starts, start)
            self.tok = Token(kind, text, line, start - self.line_starts[line - 1] + 1)
            if kind == "BAD" or kind == "NAME" and not (text[0].isalpha() or text[0] == "_"):
                self.error(f"unexpected character {text[0]!r}", self.tok)
        return self.tok

    def next(self) -> Token:
        tok = self.peek()
        self.tok = None
        return tok

    def error(self, message: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise DslError(message, tok.line, tok.col)

    def expect_sym(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind != "SYM" or tok.text != text:
            self.error(f"expected {text!r}, found {tok.text or 'end of input'!r}")
        return self.next()

    def expect_name(self, what: str = "a name") -> Token:
        tok = self.peek()
        if tok.kind != "NAME":
            self.error(f"expected {what}, found {tok.text or 'end of input'!r}")
        return self.next()

    def expect_int(self) -> Tuple[int, Token]:
        tok = self.peek()
        if tok.kind != "NUMBER":
            self.error(f"expected an integer, found {tok.text or 'end of input'!r}")
        self.next()
        try:
            return int(tok.text), tok
        except ValueError:  # longer than int()'s string limit
            self.error(f"integer of {len(tok.text)} digits is over the limit of "
                       f"{sys.get_int_max_str_digits()}", tok)

    def at_sym(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "SYM" and tok.text == text

    def parse_rational(self) -> Fraction:
        first = self.peek()
        sign = 1
        if self.at_sym("-"):
            self.next()
            sign = -1
        num, _ = self.expect_int()
        den = 1
        if self.at_sym("/"):
            self.next()
            den, dtok = self.expect_int()
            if den == 0:
                self.error("zero denominator", dtok)
        value = Fraction(sign * num, den)
        if self.backend != EXACT:
            try:
                float(value)
            except OverflowError:
                self.error(f"value too large for {F64}", first)
        return value

    def parse_values(self) -> Tuple[List[int], List[int]]:
        """A tensor's value list as signed int numerators and positive int
        denominators, in the terms written (2/4 stays 2 over 4), with no
        rational built per value.  _VALUE reads an entry at a time; an entry
        it cannot read, or whose number int() refuses as too long, goes to
        the token methods, which raise the error."""
        nums: List[int] = []
        dens: List[int] = []
        while True:
            m = _VALUE.match(self.source, self.pos)
            try:
                den = m and int(m[3] or 1)
                num = den and int(m[2])
            except ValueError:
                den = 0
            if den:
                nums.append(-num if m[1] else num)
                dens.append(den)
                self.pos, comma = m.end(), m[4]
            else:
                value = self.parse_rational()
                nums.append(value.numerator)
                dens.append(value.denominator)
                comma = self.at_sym(",") and self.next()
            if not comma:
                return nums, dens

    # statements ----------------------------------------------------------

    def parse_document(self) -> DslDocument:
        while self.peek().kind != "EOF":
            tok = self.peek()
            if tok.kind != "NAME":
                self.error(f"expected a statement, found {tok.text!r}")
            if tok.text == "tensor":
                self.parse_tensor_decl()
            elif tok.text == "graph":
                self.parse_graph_decl()
            elif tok.text == "let":
                self.parse_expr_decl()
            else:
                self.error(f"expected 'tensor', 'graph' or 'let', found {tok.text!r}", tok)
        return self.doc

    def _declare(self, name_tok: Token) -> str:
        name = name_tok.text
        doc = self.doc
        if name in doc.tensors or name in doc.graphs or name in doc.compounds:
            self.error(f"name {name!r} already defined", name_tok)
        return name

    def parse_tensor_decl(self) -> None:
        self.next()  # 'tensor'
        name_tok = self.expect_name("a tensor name")
        name = self._declare(name_tok)
        if self.at_sym("["):
            self.next()
            dims: List[int] = []
            if not self.at_sym("]"):
                while True:
                    d, dtok = self.expect_int()
                    if d <= 0:
                        self.error("alphabet sizes must be positive", dtok)
                    dims.append(d)
                    if self.at_sym(","):
                        self.next()
                        continue
                    break
            self.expect_sym("]")
            eq_tok = self.expect_sym("=")
            start = self.pos
            nums, dens = self.parse_values()
            tok = self.peek()
            if tok.kind not in ("NAME", "EOF"):
                self.error(f"expected ',' or the next statement, found {tok.text!r}")
            expected = 1
            for d in dims:
                expected *= d
            if len(nums) != expected:
                self.error(
                    f"expected {expected} values for shape {dims}, got {len(nums)}",
                    eq_tok,
                )
            entries, denom = lowest_terms(nums, dens)
            decl = TensorDecl(name, dims, entries, denom)
            if self.backend == EXACT:
                tensor = Tensor(tuple(dims), EXACT, dense=entries, denom=denom)
            else:  # int / int is correctly rounded: float(Fraction) bit for bit
                try:
                    floats = [n / denom for n in entries]
                except OverflowError:
                    # the token methods read the list again and raise at the value
                    self.pos, self.tok = start, None
                    while True:
                        self.parse_rational()
                        self.next()  # ','
                tensor = Tensor(tuple(dims), F64, dense=floats)
        else:
            self.expect_sym("=")
            fn_tok = self.expect_name("a builtin name")
            self.expect_sym("(")
            if fn_tok.text == "eps":
                n, ntok = self.expect_int()
                if n < 1:
                    self.error("eps(n) needs n >= 1", ntok)
                builtin = ("eps", n)
                try:
                    tensor = levi_civita(n, self.backend)
                except ValueError as exc:
                    self.error(str(exc), ntok)
            elif fn_tok.text == "delta":
                n, ntok = self.expect_int()
                if n < 1:
                    self.error("delta(n) needs n >= 1", ntok)
                builtin = ("delta", n)
                tensor = delta2(n, self.backend)
            elif fn_tok.text == "e":
                i, itok = self.expect_int()
                self.expect_sym(",")
                n, _ = self.expect_int()
                if not (1 <= i <= n):
                    self.error(f"e(i,n) needs 1 <= i <= n, got i={i}, n={n}", itok)
                builtin = ("e", i, n)
                tensor = delta_point(n, i, self.backend)
            else:
                self.error(f"unknown builtin {fn_tok.text!r}", fn_tok)
            self.expect_sym(")")
            decl = TensorDecl(name, None, None, builtin=builtin)
        self.doc.statements.append(decl)
        self.doc.tensors[name] = tensor

    def parse_port(self, graph: Nfg) -> Tuple[PortAst, Tuple[str, int]]:
        vtok = self.expect_name("a vertex name")
        if vtok.text not in graph.vertices:
            self.error(f"undefined vertex {vtok.text!r}", vtok)
        self.expect_sym(".")
        slot, stok = self.expect_int()
        if not (1 <= slot <= graph.vertices[vtok.text].tensor.rank):
            self.error("slot out of range", stok)
        return PortAst(vtok.text, slot), (vtok.text, slot - 1)

    def parse_graph_decl(self) -> None:
        self.next()  # 'graph'
        name_tok = self.expect_name("a graph name")
        name = self._declare(name_tok)
        self.expect_sym("{")
        graph = Nfg(self.backend)
        vertices: List[VertexDecl] = []
        links: List[Union[EdgeDecl, DanglingDecl]] = []
        interface: Optional[List[str]] = None
        while not self.at_sym("}"):
            tok = self.peek()
            if tok.kind != "NAME":
                self.error(f"expected a graph item, found {tok.text or 'end of input'!r}")
            if tok.text == "vertex":
                if links or interface is not None:
                    self.error("vertex declarations must precede edges", tok)
                self.next()
                vtok = self.expect_name("a vertex name")
                if vtok.text in graph.vertices:
                    self.error(f"duplicate vertex {vtok.text!r}", vtok)
                self.expect_sym(":")
                ttok = self.expect_name("a tensor name")
                if ttok.text not in self.doc.tensors:
                    self.error(f"undefined tensor {ttok.text!r}", ttok)
                graph.add_vertex(self.doc.tensors[ttok.text], name=vtok.text)
                vertices.append(VertexDecl(vtok.text, ttok.text))
            elif tok.text == "edge":
                if interface is not None:
                    self.error("edges must precede the interface", tok)
                self.next()
                etok = self.expect_name("an edge name")
                if etok.text in graph.edges:
                    self.error(f"duplicate edge {etok.text!r}", etok)
                self.expect_sym("(")
                ast_a, port_a = self.parse_port(graph)
                self.expect_sym(",")
                ast_b, port_b = self.parse_port(graph)
                self.expect_sym(")")
                try:
                    graph.connect(port_a, port_b, name=etok.text)
                except NfgError as exc:
                    self.error(str(exc), etok)
                links.append(EdgeDecl(etok.text, (ast_a, ast_b)))
            elif tok.text == "dangling":
                if interface is not None:
                    self.error("dangling edges must precede the interface", tok)
                self.next()
                etok = self.expect_name("an edge name")
                if etok.text in graph.edges:
                    self.error(f"duplicate edge {etok.text!r}", etok)
                self.expect_sym("(")
                ast_p, port = self.parse_port(graph)
                self.expect_sym(")")
                try:
                    graph.add_dangling(port, name=etok.text)
                except NfgError as exc:
                    self.error(str(exc), etok)
                links.append(DanglingDecl(etok.text, ast_p))
            elif tok.text == "interface":
                if interface is not None:
                    self.error("duplicate interface", tok)
                self.next()
                self.expect_sym("(")
                order = []
                while True:
                    ntok = self.expect_name("a dangling edge name")
                    if ntok.text not in graph.dangling:
                        self.error(f"{ntok.text!r} is not a dangling edge", ntok)
                    if ntok.text in order:
                        self.error(f"duplicate interface entry {ntok.text!r}", ntok)
                    order.append(ntok.text)
                    if self.at_sym(","):
                        self.next()
                        continue
                    break
                self.expect_sym(")")
                if sorted(order) != sorted(graph.dangling):
                    self.error("interface must list every dangling edge", tok)
                graph.set_interface(order)
                interface = order
            else:
                self.error(
                    f"expected 'vertex', 'edge', 'dangling' or 'interface', found {tok.text!r}",
                    tok,
                )
        self.expect_sym("}")
        violations = graph.validate()
        if violations:
            self.error(f"invalid graph {name!r}: {violations[0]}", name_tok)
        self.doc.statements.append(GraphDecl(name, vertices, links, interface))
        self.doc.graphs[name] = graph.freeze()

    def _resolve_graph(self, tok: Token) -> CompoundNfg:
        if tok.text in self.doc.graphs:
            return as_compound(self.doc.graphs[tok.text])
        if tok.text in self.doc.compounds:
            return self.doc.compounds[tok.text]
        self.error(f"undefined graph {tok.text!r}", tok)

    def parse_expr_decl(self) -> None:
        self.next()  # 'let'
        name_tok = self.expect_name("an expression name")
        name = self._declare(name_tok)
        self.expect_sym("=")
        terms: List[ExprTerm] = []
        parts: List[CompoundNfg] = []  # each term's graph or compound, resolved once

        def parse_term(sign: int) -> None:
            coef = Fraction(1)
            tok = self.peek()
            if tok.kind == "NUMBER" or (tok.kind == "SYM" and tok.text == "-"):
                coef = self.parse_rational()
                self.expect_sym("*")
            gtok = self.expect_name("a graph name")
            part = self._resolve_graph(gtok)
            if parts and parts[0].interface != part.interface:
                self.error(f"interface mismatch: {gtok.text!r} has {part.interface}", gtok)
            terms.append(ExprTerm(coef * sign, gtok.text))
            parts.append(part)

        parse_term(1)
        while self.at_sym("+") or self.at_sym("-"):
            op = self.next().text
            parse_term(1 if op == "+" else -1)

        # scaled once the statement has parsed, so a syntax error in a later
        # term is still reported before a scaling error in an earlier one
        compound = None
        for term, part in zip(terms, parts):
            part = scale_nfg(part, term.coef if self.backend == EXACT else float(term.coef))
            compound = part if compound is None else add_nfgs(compound, part)
        self.doc.statements.append(ExprDecl(name, terms))
        self.doc.compounds[name] = compound


def parse(source: str, backend: str = EXACT) -> DslDocument:
    """Parse and semantically elaborate a DSL document."""
    return _Parser(source, backend).parse_document()


# -- serialization ------------------------------------------------------------


def _fmt_term(term: ExprTerm, first: bool) -> str:
    coef = term.coef
    if first:
        if coef == 1:
            return term.graph
        return f"{coef}*{term.graph}"
    if coef < 0:
        mag = -coef
        body = term.graph if mag == 1 else f"{mag}*{term.graph}"
        return f" - {body}"
    body = term.graph if coef == 1 else f"{coef}*{term.graph}"
    return f" + {body}"


def serialize(doc: DslDocument) -> str:
    """Canonical text: first-definition order, normalized whitespace.

    parse(serialize(d)) is structurally identical to d, and serialization is
    idempotent.
    """
    lines: List[str] = []
    for stmt in doc.statements:
        if isinstance(stmt, TensorDecl):
            if stmt.builtin is not None:
                fn = stmt.builtin[0]
                args = ",".join(str(a) for a in stmt.builtin[1:])
                lines.append(f"tensor {stmt.name} = {fn}({args})")
            else:
                dims = ",".join(str(d) for d in stmt.dims)
                vals = ", ".join(map(str, stmt.values))
                lines.append(f"tensor {stmt.name} [{dims}] = {vals}")
        elif isinstance(stmt, GraphDecl):
            lines.append(f"graph {stmt.name} {{")
            for v in stmt.vertices:
                lines.append(f"  vertex {v.name}: {v.tensor}")
            for link in stmt.links:
                if isinstance(link, EdgeDecl):
                    a, b = link.ports
                    lines.append(
                        f"  edge {link.name}({a.vertex}.{a.slot}, {b.vertex}.{b.slot})"
                    )
                else:
                    p = link.port
                    lines.append(f"  dangling {link.name}({p.vertex}.{p.slot})")
            if stmt.interface is not None:
                lines.append("  interface(" + ", ".join(stmt.interface) + ")")
            lines.append("}")
        elif isinstance(stmt, ExprDecl):
            body = "".join(
                _fmt_term(term, i == 0) for i, term in enumerate(stmt.terms)
            )
            lines.append(f"let {stmt.name} = {body}")
    return "\n".join(lines) + ("\n" if lines else "")
