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
time, reads the rest and explains refusals: it reads again from its start a
statement that a check refuses, and a list from its refused entry.  Every
error, lexical, syntactic, or semantic, carries the 1-based line and column of
the offending token, and on f64 so does a value beyond the largest float.

``DslDocument.statements`` holds the statements in source order: a value
list as a ``TensorDecl``, and every other statement, a builtin tensor, a
whole graph block or a let line, as its canonical text, built as it is
parsed.  ``serialize`` writes str() of each on its own line.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_right
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
    line: int
    col: int


# The skip takes whitespace, and each comment with its newline; the end of
# input may follow a last comment that has none.  \w is str.isalnum() or "_",
# and \d is str.isdecimal(), the digits int() reads.  [^\W\d] also admits
# numerals such as '½', so the scanner checks that a NAME starts on
# str.isalpha() or "_".
_SKIP = r"(?:[ \t\r\n]|#[^\n]*\n)*"
_TOKEN = re.compile(_SKIP + r"(?:(?P<NAME>[^\W\d]\w*)|(?P<NUMBER>\d+)"
                    r"|(?P<SYM>[\[\]{}(),.:=+*/-])|(?P<EOF>(?=(?:#[^\n]*)?\Z))|(?P<BAD>.))")
# Statement patterns: a value list's head after 'tensor', and the graph items.
# A space stands for the skip, and NAME for a name that starts on an ASCII letter
# or "_"; one that starts elsewhere is left to the token methods, which check it.
_HEADER, _VERTEX, _EDGE, _DANGLING = (
    re.compile(template.replace(" ", _SKIP).replace("NAME", r"([A-Za-z_]\w*)"))
    for template in (r" NAME \[ ((?:\d+(?: , \d+)*)?) \] =", r" vertex\b NAME : NAME",
                     r" edge\b NAME \( NAME \. (\d+) , NAME \. (\d+) \)",
                     r" dangling\b NAME \( NAME \. (\d+) \)"))
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


class _Reread(Exception):
    """A check, given no token, refused what a statement pattern read."""


class _Parser:
    def __init__(self, source: str, backend: str):
        self.source = source
        self.pos = 0  # offset where the next token's scan starts
        self.tok: Optional[Token] = None  # the scanned token not yet consumed
        self.line_starts = [0] + [m.end() for m in re.finditer("\n", source)]
        self.backend = backend
        self.doc = DslDocument()
        self.patterns = True  # False while the token methods read a refused statement

    # token utilities, and the checks that both routes make ----------------

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

    def error(self, message: str, tok: Optional[Token]):
        if tok is None:  # a check refused what a statement pattern read
            raise _Reread
        raise DslError(message, tok.line, tok.col)

    def expect_sym(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind != "SYM" or tok.text != text:
            self.error(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok)
        return self.next()

    def expect_name(self, what: str = "a name") -> Token:
        tok = self.peek()
        if tok.kind != "NAME":
            self.error(f"expected {what}, found {tok.text or 'end of input'!r}", tok)
        return self.next()

    def expect_int(self) -> Tuple[int, Token]:
        tok = self.peek()
        if tok.kind != "NUMBER":
            self.error(f"expected an integer, found {tok.text or 'end of input'!r}", tok)
        return self.to_int(tok.text, tok), self.next()

    def owned(self, tok: Optional[Token], build, *args, **kwargs):
        """Call build(*args, **kwargs); the ValueError by which it refuses a
        graph or builtin rule, which the library owns, becomes a DslError at tok."""
        try:
            return build(*args, **kwargs)
        except ValueError as exc:
            self.error(str(exc), tok)

    def at_sym(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "SYM" and tok.text == text

    def to_int(self, text: str, tok: Optional[Token]) -> int:
        try:
            return int(text)
        except ValueError:  # longer than int()'s string limit
            self.error(f"integer of {len(text)} digits is over the limit of "
                       f"{sys.get_int_max_str_digits()}", tok)

    def alphabet(self, size: int, tok: Optional[Token]) -> int:
        if size <= 0:
            self.error("alphabet sizes must be positive", tok)
        return size

    def declare(self, name: str, tok: Optional[Token]) -> str:
        if name in self.doc.tensors or name in self.doc.graphs or name in self.doc.compounds:
            self.error(f"name {name!r} already defined", tok)
        return name

    def in_order(self, graph: Nfg, keyword: str, tok: Optional[Token]) -> None:
        if self.interfaced or keyword == "vertex" and graph.edges:
            self.error(_LATE[keyword], tok)

    def add_vertex(self, graph: Nfg, lines: List[str], name: str, tensor: str,
                   name_tok: Optional[Token], tensor_tok: Optional[Token]) -> None:
        if tensor not in self.doc.tensors:
            self.error(f"undefined tensor {tensor!r}", tensor_tok)
        self.owned(name_tok, graph.add_vertex, self.doc.tensors[tensor], name=name)
        lines.append(f"  vertex {name}: {tensor}")

    def link(self, graph: Nfg, lines: List[str], name: str, a: Tuple[str, int],
             b: Optional[Tuple[str, int]], tok: Optional[Token]) -> None:
        """An edge joining the (vertex, 1-based slot) ports a and b, or dangling from a."""
        if b is None:
            self.owned(tok, graph.add_dangling, (a[0], a[1] - 1), name=name)
            lines.append(f"  dangling {name}({a[0]}.{a[1]})")
        else:
            self.owned(tok, graph.connect, (a[0], a[1] - 1), (b[0], b[1] - 1), name=name)
            lines.append(f"  edge {name}({a[0]}.{a[1]}, {b[0]}.{b[1]})")

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
        while self.peek().kind != "EOF":
            tok, pos = self.peek(), self.pos
            if tok.kind != "NAME":
                self.error(f"expected a statement, found {tok.text!r}", tok)
            read = {"tensor": self.parse_tensor_decl, "graph": self.parse_graph_decl,
                    "let": self.parse_expr_decl}.get(tok.text)
            if read is None:
                self.error(f"expected 'tensor', 'graph' or 'let', found {tok.text!r}", tok)
            try:
                read()
            except _Reread:  # the token methods read the statement again
                self.pos, self.tok, self.patterns = pos, tok, False
                read()
                self.patterns = True
        return self.doc

    def parse_tensor_decl(self) -> None:
        self.next()  # 'tensor'
        if head := self.patterns and _HEADER.match(self.source, self.pos):
            name = self.declare(head[1], None)
            sizes = _DROP.sub("", head[2]).split(",")  # comments dropped
            dims = [self.alphabet(self.to_int(d, None), None) for d in sizes if d]
            self.pos, eq_tok = head.end(), None
        else:
            name_tok = self.expect_name("a tensor name")
            name = self.declare(name_tok.text, name_tok)
        if head or self.at_sym("["):
            if not head:
                self.next()
                dims = [] if self.at_sym("]") else [self.alphabet(*self.expect_int())]
                while dims and self.at_sym(","):
                    self.next()
                    dims.append(self.alphabet(*self.expect_int()))
                self.expect_sym("]")
                eq_tok = self.expect_sym("=")
            nums, dens = self.parse_values()
            tok = self.peek()
            if tok.kind not in ("NAME", "EOF"):
                self.error(f"expected ',' or the next statement, found {tok.text!r}", tok)
            if len(nums) != prod(dims):
                self.error(f"expected {prod(dims)} values for shape {dims}, got {len(nums)}",
                           eq_tok)
            entries, denom = lowest_terms(nums, dens)
            decl = TensorDecl(name, dims, entries, denom)
            if self.backend == EXACT:
                tensor = Tensor(tuple(dims), EXACT, dense=entries, denom=denom)
            else:  # int / int is correctly rounded: float(Fraction) bit for bit
                tensor = Tensor(tuple(dims), F64, dense=[n / denom for n in entries])
        else:
            self.expect_sym("=")
            fn_tok = self.expect_name("a builtin name")
            self.expect_sym("(")
            fn = fn_tok.text
            if fn not in _BUILTIN_ARITY:
                self.error(f"unknown builtin {fn!r}", fn_tok)
            args, arg_tok = [], self.peek()
            for k in range(_BUILTIN_ARITY[fn]):
                if k:
                    self.expect_sym(",")
                args.append(self.expect_int()[0])
            if fn == "eps":
                tensor = self.owned(arg_tok, levi_civita, *args, self.backend)
            elif fn == "delta":
                tensor = self.owned(arg_tok, delta2, *args, self.backend)
            else:  # e(i, n) is delta_point(n, i)
                tensor = self.owned(arg_tok, delta_point, *args[::-1], self.backend)
            self.expect_sym(")")
            decl = f"tensor {name} = {fn}({','.join(map(str, args))})"
        self.doc.statements.append(decl)
        self.doc.tensors[name] = tensor

    def parse_port(self, graph: Nfg) -> Tuple[str, int]:
        """(vertex, 1-based slot), checked to place an error (the graph checks it again)."""
        vtok = self.expect_name("a vertex name")
        if vtok.text not in graph.vertices:
            self.error(f"undefined vertex {vtok.text!r}", vtok)
        self.expect_sym(".")
        slot, stok = self.expect_int()
        if not (1 <= slot <= graph.vertices[vtok.text].tensor.rank):
            self.error("slot out of range", stok)
        return vtok.text, slot

    def read_item(self, graph: Nfg, lines: List[str]) -> bool:
        """Whether a pattern read the next graph item whole and made its checks;
        the graph alone refuses a vertex or slot here, as it does for the token methods."""
        at = self.source, self.pos
        if m := _VERTEX.match(*at):
            self.in_order(graph, "vertex", None)
            self.add_vertex(graph, lines, m[1], m[2], None, None)
        elif m := _EDGE.match(*at):
            self.in_order(graph, "edge", None)
            a, b = (m[2], self.to_int(m[3], None)), (m[4], self.to_int(m[5], None))
            self.link(graph, lines, m[1], a, b, None)
        elif m := _DANGLING.match(*at):
            self.in_order(graph, "dangling", None)
            self.link(graph, lines, m[1], (m[2], self.to_int(m[3], None)), None, None)
        else:
            return False
        self.pos = m.end()
        return True

    def parse_graph_decl(self) -> None:
        self.next()  # 'graph'
        name_tok = self.expect_name("a graph name")
        name = self.declare(name_tok.text, name_tok)
        self.expect_sym("{")
        graph = Nfg(self.backend)
        lines = [f"graph {name} {{"]  # the canonical block, an item a line
        self.interfaced = False  # the block has its interface
        while True:
            if self.patterns and self.read_item(graph, lines):
                continue
            tok = self.next()
            if tok.kind == "SYM" and tok.text == "}":
                break
            if tok.kind != "NAME":
                self.error(f"expected a graph item, found {tok.text or 'end of input'!r}", tok)
            if tok.text not in _LATE:
                self.error(f"expected 'vertex', 'edge', 'dangling' or 'interface', "
                           f"found {tok.text!r}", tok)
            self.in_order(graph, tok.text, tok)
            if tok.text == "vertex":
                vtok = self.expect_name("a vertex name")
                self.expect_sym(":")
                ttok = self.expect_name("a tensor name")
                self.add_vertex(graph, lines, vtok.text, ttok.text, vtok, ttok)
            elif tok.text == "interface":
                self.expect_sym("(")
                order = []
                while True:
                    ntok = self.expect_name("a dangling edge name")
                    if ntok.text not in graph.dangling:
                        self.error(f"{ntok.text!r} is not a dangling edge", ntok)
                    order.append(ntok.text)
                    if not self.at_sym(","):
                        break
                    self.next()
                self.expect_sym(")")
                self.owned(tok, graph.set_interface, order)
                lines.append(f"  interface({', '.join(order)})")
                self.interfaced = True
            else:
                etok = self.expect_name("an edge name")
                self.expect_sym("(")
                a, b = self.parse_port(graph), None
                if tok.text == "edge":
                    self.expect_sym(",")
                    b = self.parse_port(graph)
                self.expect_sym(")")
                self.link(graph, lines, etok.text, a, b, etok)
        violations = graph.validate()
        if violations:
            self.error(f"invalid graph {name!r}: {violations[0]}", name_tok)
        self.doc.statements.append("\n".join(lines + ["}"]))
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
        name = self.declare(name_tok.text, name_tok)
        self.expect_sym("=")
        text, sign = f"let {name} = ", 1
        terms: List[Tuple[Fraction, CompoundNfg]] = []  # coefficient, resolved graph
        while True:
            coef = Fraction(sign)
            tok = self.peek()
            if tok.kind == "NUMBER" or (tok.kind == "SYM" and tok.text == "-"):
                coef *= self.parse_rational()
                self.expect_sym("*")
            gtok = self.expect_name("a graph name")
            part = self._resolve_graph(gtok)
            if terms and terms[0][1].interface != part.interface:
                self.error(f"interface mismatch: {gtok.text!r} has {part.interface}", gtok)
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
