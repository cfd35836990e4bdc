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
per kind reads a value list's head (tensor NAME [dims] =) and each vertex,
edge and dangling item whole; one scan, str.split and int() read a value list
into int numerators over one denominator, as an exact tensor stores them, with
no rational per value.  The token reader, a pattern that scans a token at a
time, reads the rest, and a refused list again from its refused entry.  Each
check takes the source offset of what it checks, a token's or a pattern
group's start, and an error, lexical, syntactic, or semantic, gives it as a
1-based line and column; on f64 so does a value beyond the largest float.

``DslDocument.statements`` holds the statements in source order: a value
list as a ``TensorDecl``, and every other statement, a builtin tensor, a
whole graph block or a let line, as its canonical text, built as it is
parsed.  ``serialize`` writes str() of each on its own line.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import prod
from operator import truediv
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from .algebra import CompoundNfg, add_nfgs, as_compound, scale_nfg
from .builtins import delta2, delta_point, levi_civita
from .graph import Nfg
from .scalars import EXACT, F64
from .tensor import Tensor, exact_texts, lowest_terms


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
    start: int  # offset in the source


# The skip takes whitespace, and each comment with its newline; the end of
# input may follow a last comment that has none.  \w is str.isalnum() or "_",
# and \d is str.isdecimal(), the digits int() reads.  [^\W\d] also admits
# numerals such as '½', so the scanner checks that a NAME starts on
# str.isalpha() or "_".
_SKIP = r"(?:[ \t\r\n]|#[^\n]*\n)*"
_TOKEN = re.compile(_SKIP + r"(?:(?P<NAME>[^\W\d]\w*)|(?P<NUMBER>\d+)"
                    r"|(?P<SYM>[\[\]{}(),.:=+*/-])|(?P<EOF>(?=(?:#[^\n]*)?\Z))|(?P<BAD>.))")
# Statement patterns: a value list's head after 'tensor', the graph items (their
# keyword captured) and a head's sizes.  A space is the skip, NAME a name that starts
# on an ASCII letter or "_"; the token methods read and check any other name.
_HEADER, _VERTEX, _EDGE, _DANGLING, _SIZE = (
    re.compile(template.replace(" ", _SKIP).replace("NAME", r"([A-Za-z_]\w*)"))
    for template in (r" NAME \[ ((?:\d+(?: , \d+)*)?) \] =", r" (vertex)\b NAME : NAME",
                     r" (edge)\b NAME \( NAME \. (\d+) , NAME \. (\d+) \)",
                     r" (dangling)\b NAME \( NAME \. (\d+) \)", r" ,? (\d+)"))
# A value list's extent: its entries, commas, whitespace and comments (the
# caller checks what follows it).  Before int() reads the entries, comments
# and the blanks after a sign are dropped, if the list holds any.
_LIST = re.compile(r"[\d,/ \t\r\n-]*(?:#[^\n]*[\d,/ \t\r\n-]*)*")
_DROP = re.compile(r"(-)(?:[ \t\r\n]|#[^\n]*)+|#[^\n]*")
_SIGN_GAPS = ("- ", "-\t", "-\r", "-\n")
# How many integer arguments each builtin takes; the builtin checks their values.
_BUILTIN_ARITY = {"eps": 1, "delta": 1, "e": 2}
# Why a graph item is late: a vertex after an edge, any other after the interface.
_LATE = {"vertex": "vertex declarations must precede edges",
         "edge": "edges must precede the interface",
         "dangling": "dangling edges must precede the interface",
         "interface": "duplicate interface"}


# -- document model -----------------------------------------------------------


class TensorDecl(NamedTuple):
    """A value list is kept as an exact tensor stores it, on either backend:
    int numerators over one denominator, in lowest terms as a whole
    (``tensor.lowest_terms``); str() gives the statement's canonical line."""
    name: str
    dims: List[int]
    numerators: List[int]
    denom: int

    def __str__(self) -> str:
        dims = ",".join(map(str, self.dims))
        values = ", ".join(exact_texts(self.numerators, self.denom))
        return f"tensor {self.name} [{dims}] = {values}"


Statement = Union[TensorDecl, str]  # str: any other statement's canonical text


class DslDocument:
    """The statements in source order, and by name what they define."""

    def __init__(self):
        self.statements: List[Statement] = []
        self.tensors: Dict[str, Tensor] = {}
        self.graphs: Dict[str, Nfg] = {}
        self.compounds: Dict[str, CompoundNfg] = {}


# -- parser -------------------------------------------------------------------


class _Parser:
    def __init__(self, source: str, backend: str):
        self.source = source
        self.pos = 0  # offset where the next token's scan starts
        self.tok: Optional[Token] = None  # the scanned token not yet consumed
        self.backend = backend
        self.doc = DslDocument()

    # token utilities, and the checks that both routes make at an offset ------

    def peek(self) -> Token:
        if self.tok is None:
            m = _TOKEN.match(self.source, self.pos)
            kind = m.lastgroup
            text, start, self.pos = m[kind], m.start(kind), m.end()
            self.tok = Token(kind, text, start)
            if kind == "BAD" or kind == "NAME" and not (text[0].isalpha() or text[0] == "_"):
                self.error(f"unexpected character {text[0]!r}", start)
        return self.tok

    def next(self) -> Token:
        tok = self.peek()
        self.tok = None
        return tok

    def error(self, message: str, at: int):
        """Raise a DslError at the 1-based line and column of offset at."""
        line = self.source.count("\n", 0, at) + 1
        raise DslError(message, line, at - self.source.rfind("\n", 0, at))

    def expect(self, what: str, kind: str = "NAME", text: str = "") -> Token:
        tok = self.peek()
        if tok.kind != kind or text and tok.text != text:
            self.error(f"expected {what}, found {tok.text or 'end of input'!r}", tok.start)
        return self.next()

    def expect_sym(self, text: str) -> Token:
        return self.expect(repr(text), "SYM", text)

    def expect_int(self) -> Tuple[str, int]:
        """The next token, an integer, as its text and offset."""
        return self.expect("an integer", "NUMBER")[1:]

    def owned(self, at: int, build, *args, **kwargs):
        """Call build(*args, **kwargs); the ValueError by which it refuses a
        graph or builtin rule, which the library owns, becomes a DslError at at."""
        try:
            return build(*args, **kwargs)
        except ValueError as exc:
            self.error(str(exc), at)

    def at_sym(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "SYM" and tok.text == text

    def to_int(self, text: str, at: int) -> int:
        try:
            return int(text)
        except ValueError:  # longer than int()'s string limit
            self.error(f"integer of {len(text)} digits is over the limit of "
                       f"{sys.get_int_max_str_digits()}", at)

    def alphabet(self, text: str, at: int) -> int:
        size = self.to_int(text, at)
        if size <= 0:
            self.error("alphabet sizes must be positive", at)
        return size

    def declare(self, name: str, at: int) -> str:
        if name in self.doc.tensors or name in self.doc.graphs or name in self.doc.compounds:
            self.error(f"name {name!r} already defined", at)
        return name

    def in_order(self, graph: Nfg, keyword: str, at: int) -> None:
        if self.interfaced or keyword == "vertex" and graph.edges:
            self.error(_LATE[keyword], at)

    def add_vertex(self, graph: Nfg, lines: List[str], name: str, tensor: str,
                   name_at: int, tensor_at: int) -> None:
        if tensor not in self.doc.tensors:
            self.error(f"undefined tensor {tensor!r}", tensor_at)
        self.owned(name_at, graph.add_vertex, self.doc.tensors[tensor], name=name)
        lines.append(f"  vertex {name}: {tensor}")

    def port(self, graph: Nfg, vertex: str, at: int, slot: str = "", slot_at: int = 0) -> None:
        """Check a port to place an error (the graph checks it again), in the
        token reader's order: its vertex, then, if given, its 1-based slot."""
        if vertex not in graph.vertices:
            self.error(f"undefined vertex {vertex!r}", at)
        if slot and not 1 <= self.to_int(slot, slot_at) <= graph.vertices[vertex].tensor.rank:
            self.error("slot out of range", slot_at)

    def link(self, graph: Nfg, lines: List[str], name: str, a: str, i: str,
             b: Optional[str] = None, j: Optional[str] = None) -> None:
        """An edge joining ports a.i and b.j, each a vertex and a 1-based slot's
        text, or dangling from a.i; a ValueError refuses it."""
        i = int(i)
        if b is None:
            graph.add_dangling((a, i - 1), name=name)
            lines.append(f"  dangling {name}({a}.{i})")
        else:
            j = int(j)
            graph.connect((a, i - 1), (b, j - 1), name=name)
            lines.append(f"  edge {name}({a}.{i}, {b}.{j})")

    def parse_rational(self) -> Fraction:
        first = self.peek()
        sign = 1
        if self.at_sym("-"):
            self.next()
            sign = -1
        num = self.to_int(*self.expect_int())
        den = 1
        if self.at_sym("/"):
            self.next()
            text, at = self.expect_int()
            if (den := self.to_int(text, at)) == 0:
                self.error("zero denominator", at)
        value = Fraction(sign * num, den)
        if self.backend != EXACT:
            try:
                float(value)
            except OverflowError:
                self.error(f"value too large for {F64}", first.start)
        return value

    def parse_values(self) -> Tuple[List[int], List[int]]:
        """A tensor's value list as signed int numerators and positive int
        denominators, in the terms written (2/4 stays 2 over 4), by one _LIST
        scan, str.split and int().  A list this refuses (an empty or malformed
        entry, a denominator below 1, a number over int()'s digit limit, or on
        f64 a value beyond the largest float) is read by the token methods
        from the refused entry, keeping those before it (from its start after
        a _DROP or an f64 overflow), to raise the error at its position."""
        m = _LIST.match(self.source, self.pos)
        text = m[0]
        if "#" in text or any(gap in text for gap in _SIGN_GAPS):
            text = _DROP.sub(r"\1", text)
        nums: List[int] = []
        dens: List[int] = []
        try:
            for entry in text.split(","):
                num, slash, den = entry.partition("/")
                nums.append(int(num))
                dens.append(int(den) if slash else 1)
            if min(dens) > 0:
                if self.backend != EXACT:
                    list(map(truediv, nums, dens))  # OverflowError past the largest float
                self.pos = m.end()
                return nums, dens
        except (ValueError, OverflowError):
            pass
        # the first denominator below 1, or else the entry int() refused
        kept = next((i for i, den in enumerate(dens) if den <= 0), len(dens))
        if text != m[0]:
            kept = 0
        elif self.backend != EXACT:
            try:
                list(map(truediv, nums[:kept], dens[:kept]))
            except OverflowError:
                kept = 0
        self.pos = m.end() - len(m[0].split(",", kept)[-1])
        values = [self.parse_rational()]
        while self.at_sym(","):
            self.next()
            values.append(self.parse_rational())
        return (nums[:kept] + [v.numerator for v in values],
                dens[:kept] + [v.denominator for v in values])

    # statements ----------------------------------------------------------

    def parse_document(self) -> DslDocument:
        while (tok := self.peek()).kind != "EOF":
            if tok.kind != "NAME":
                self.error(f"expected a statement, found {tok.text!r}", tok.start)
            read = {"tensor": self.parse_tensor_decl, "graph": self.parse_graph_decl,
                    "let": self.parse_expr_decl}.get(tok.text)
            if read is None:
                self.error(f"expected 'tensor', 'graph' or 'let', found {tok.text!r}", tok.start)
            read()
        return self.doc

    def parse_tensor_decl(self) -> None:
        self.next()  # 'tensor'
        if head := _HEADER.match(self.source, self.pos):
            name = self.declare(head[1], head.start(1))
            dims = [self.alphabet(d[1], d.start(1))
                    for d in _SIZE.finditer(self.source, head.start(2), head.end(2))]
            self.pos, eq_at = head.end(), head.end() - 1
        else:
            name_tok = self.expect("a tensor name")
            name = self.declare(name_tok.text, name_tok.start)
        if head or self.at_sym("["):
            if not head:
                self.next()
                dims = [] if self.at_sym("]") else [self.alphabet(*self.expect_int())]
                while dims and self.at_sym(","):
                    self.next()
                    dims.append(self.alphabet(*self.expect_int()))
                self.expect_sym("]")
                eq_at = self.expect_sym("=").start
            nums, dens = self.parse_values()
            tok = self.peek()
            if tok.kind not in ("NAME", "EOF"):
                self.error(f"expected ',' or the next statement, found {tok.text!r}", tok.start)
            if len(nums) != prod(dims):
                self.error(f"expected {prod(dims)} values for shape {dims}, got {len(nums)}",
                           eq_at)
            entries, denom = lowest_terms(nums, dens)
            decl = TensorDecl(name, dims, entries, denom)
            if self.backend == EXACT:
                tensor = Tensor(tuple(dims), EXACT, dense=entries, denom=denom)
            else:  # int / int is correctly rounded: float(Fraction) bit for bit
                tensor = Tensor(tuple(dims), F64, dense=[n / denom for n in entries])
        else:
            self.expect_sym("=")
            fn_tok = self.expect("a builtin name")
            self.expect_sym("(")
            fn = fn_tok.text
            if fn not in _BUILTIN_ARITY:
                self.error(f"unknown builtin {fn!r}", fn_tok.start)
            args, arg_at = [], self.peek().start
            for k in range(_BUILTIN_ARITY[fn]):
                if k:
                    self.expect_sym(",")
                args.append(self.to_int(*self.expect_int()))
            if fn == "eps":
                tensor = self.owned(arg_at, levi_civita, *args, self.backend)
            elif fn == "delta":
                tensor = self.owned(arg_at, delta2, *args, self.backend)
            else:  # e(i, n) is delta_point(n, i)
                tensor = self.owned(arg_at, delta_point, *args[::-1], self.backend)
            self.expect_sym(")")
            decl = f"tensor {name} = {fn}({','.join(map(str, args))})"
        self.doc.statements.append(decl)
        self.doc.tensors[name] = tensor

    def parse_port(self, graph: Nfg) -> Tuple[str, str]:
        """A port's vertex and slot text, checked as they are read."""
        vtok = self.expect("a vertex name")
        self.port(graph, vtok.text, vtok.start)
        self.expect_sym(".")
        slot, at = self.expect_int()
        self.port(graph, vtok.text, vtok.start, slot, at)
        return vtok.text, slot

    def read_item(self, graph: Nfg, lines: List[str]) -> bool:
        """Whether a pattern read the next graph item whole and made its checks,
        placed at the groups it read: an edge's ports only once the graph or
        int() refuses it, in the token reader's order and before its message."""
        at = self.source, self.pos
        m = _VERTEX.match(*at) or _EDGE.match(*at) or _DANGLING.match(*at)
        if not m:
            return False
        self.in_order(graph, m[1], m.start(1))
        if m[1] == "vertex":
            self.add_vertex(graph, lines, m[2], m[3], m.start(2), m.start(3))
        else:
            try:
                self.link(graph, lines, *m.groups()[1:])
            except ValueError as exc:
                for k in range(3, m.lastindex, 2):
                    self.port(graph, m[k], m.start(k), m[k + 1], m.start(k + 1))
                self.error(str(exc), m.start(2))
        self.pos = m.end()
        return True

    def parse_graph_decl(self) -> None:
        self.next()  # 'graph'
        name_tok = self.expect("a graph name")
        name = self.declare(name_tok.text, name_tok.start)
        self.expect_sym("{")
        graph = Nfg(self.backend)
        lines = [f"graph {name} {{"]  # the canonical block, an item a line
        self.interfaced = False  # the block has its interface
        while True:
            if self.read_item(graph, lines):
                continue
            tok = self.next()
            if tok.kind == "SYM" and tok.text == "}":
                break
            if tok.kind != "NAME":
                self.error(f"expected a graph item, found {tok.text or 'end of input'!r}",
                           tok.start)
            if tok.text not in _LATE:
                self.error(f"expected 'vertex', 'edge', 'dangling' or 'interface', "
                           f"found {tok.text!r}", tok.start)
            self.in_order(graph, tok.text, tok.start)
            if tok.text == "vertex":
                vtok = self.expect("a vertex name")
                self.expect_sym(":")
                ttok = self.expect("a tensor name")
                self.add_vertex(graph, lines, vtok.text, ttok.text, vtok.start, ttok.start)
            elif tok.text == "interface":
                self.expect_sym("(")
                order = []
                while True:
                    ntok = self.expect("a dangling edge name")
                    if ntok.text not in graph.dangling:
                        self.error(f"{ntok.text!r} is not a dangling edge", ntok.start)
                    order.append(ntok.text)
                    if not self.at_sym(","):
                        break
                    self.next()
                self.expect_sym(")")
                self.owned(tok.start, graph.set_interface, order)
                lines.append(f"  interface({', '.join(order)})")
                self.interfaced = True
            else:
                etok = self.expect("an edge name")
                self.expect_sym("(")
                ports = self.parse_port(graph)
                if tok.text == "edge":
                    self.expect_sym(",")
                    ports += self.parse_port(graph)
                self.expect_sym(")")
                self.owned(etok.start, self.link, graph, lines, etok.text, *ports)
        violations = graph.validate()
        if violations:
            self.error(f"invalid graph {name!r}: {violations[0]}", name_tok.start)
        self.doc.statements.append("\n".join(lines + ["}"]))
        self.doc.graphs[name] = graph.freeze()

    def _resolve_graph(self, tok: Token) -> CompoundNfg:
        if tok.text in self.doc.graphs:
            return as_compound(self.doc.graphs[tok.text])
        if tok.text in self.doc.compounds:
            return self.doc.compounds[tok.text]
        self.error(f"undefined graph {tok.text!r}", tok.start)

    def parse_expr_decl(self) -> None:
        self.next()  # 'let'
        name_tok = self.expect("an expression name")
        name = self.declare(name_tok.text, name_tok.start)
        self.expect_sym("=")
        text, sign = f"let {name} = ", 1
        terms: List[Tuple[Fraction, CompoundNfg]] = []  # coefficient, resolved graph
        while True:
            coef = Fraction(sign)
            tok = self.peek()
            if tok.kind == "NUMBER" or (tok.kind == "SYM" and tok.text == "-"):
                coef *= self.parse_rational()
                self.expect_sym("*")
            gtok = self.expect("a graph name")
            part = self._resolve_graph(gtok)
            if terms and terms[0][1].interface != part.interface:
                self.error(f"interface mismatch: {gtok.text!r} has {part.interface}", gtok.start)
            # canonical text: the first coefficient as is, a later one as its
            # sign and magnitude; a shown coefficient of 1 is left out
            op, shown = ("", coef) if not terms else (" - ", -coef) if coef < 0 else (" + ", coef)
            text += op + (gtok.text if shown == 1 else f"{shown}*{gtok.text}")
            terms.append((coef, part))
            if not (self.at_sym("+") or self.at_sym("-")):
                break
            sign = 1 if self.next().text == "+" else -1

        # scaled once the statement has parsed, so a syntax error in a later
        # term is still reported before a scaling error in an earlier one
        compound = None
        for coef, part in terms:
            part = scale_nfg(part, coef if self.backend == EXACT else float(coef))
            compound = part if compound is None else add_nfgs(compound, part)
        self.doc.statements.append(text)
        self.doc.compounds[name] = compound


def parse(source: str, backend: str = EXACT) -> DslDocument:
    """Parse and semantically elaborate a DSL document."""
    return _Parser(source, backend).parse_document()


# -- serialization ------------------------------------------------------------


def serialize(doc: DslDocument) -> str:
    """Canonical text: each statement on its line or lines, in source order,
    with normalized whitespace and value lists in lowest terms.

    parse(serialize(d)) has the same statements as d, and serialization is
    idempotent.
    """
    return "".join(f"{s}\n" for s in doc.statements)
