import pathlib
import random
import re
from fractions import Fraction
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from nfg import dsl
from nfg.algebra import eval_compound
from nfg.cli import EXIT_USAGE, main
from nfg.contraction import exterior_brute
from nfg.scalars import EXACT, F64, rat
from nfg.tensor import Tensor

CORPUS = pathlib.Path(__file__).parent / "corpus"
VALID = sorted(CORPUS.glob("v*.nfg"))
# "# expect exit 3: MESSAGE" heads a document that parses but is refused when
# contracted (tests/test_cli.py); every other error document fails to parse
REFUSED = [p for p in sorted(CORPUS.glob("e*.nfg"))
           if p.read_text(encoding="utf-8").startswith("# expect exit 3: ")]
ERRORS = [p for p in sorted(CORPUS.glob("e*.nfg")) if p not in REFUSED]

# "# expect on f64: ..." names the one backend where a file fails to parse
EXPECT_RE = re.compile(r"# expect(?: on (\w+))?: (\d+):(\d+) (.*)")


def values_of(decl):
    """The rationals of a value list, kept as int numerators over one denominator."""
    return [Fraction(n, decl.denom) for n in decl.numerators]


def _backend(src):
    return EXPECT_RE.match(src).group(1) or EXACT


def test_corpus_is_large_enough():
    assert len(VALID) + len(ERRORS) >= 15


@pytest.mark.parametrize("path", REFUSED, ids=lambda p: p.name)
def test_refused_documents_parse_on_both_backends(path):
    for backend in (EXACT, F64):
        assert dsl.parse(path.read_text(encoding="utf-8"), backend).graphs


@pytest.mark.parametrize("path", VALID, ids=lambda p: p.name)
def test_valid_round_trip(path):
    doc = dsl.parse(path.read_text())
    text = dsl.serialize(doc)
    again = dsl.parse(text)
    assert again.statements == doc.statements
    assert dsl.serialize(again) == text  # canonical form is a fixed point


@pytest.mark.parametrize("path", ERRORS, ids=lambda p: p.name)
def test_error_positions(path):
    src = path.read_text(encoding="utf-8")
    m = EXPECT_RE.match(src.splitlines()[0])
    assert m, f"{path.name} is missing its expect header"
    line, col, fragment = int(m.group(2)), int(m.group(3)), m.group(4)
    with pytest.raises(dsl.DslError) as exc:
        dsl.parse(src, _backend(src))
    err = exc.value
    assert (err.line, err.col) == (line, col)
    assert fragment in err.message
    assert str(err).startswith(f"{line}:{col}:")


# Full messages, recorded before the scanner replaced the per-character lexer;
# e14 was a ValueError from int('²') then, and e15 a ValueError from int() on
# a number over its string limit until that became a positioned error.  e16
# fails on f64 only, where it was an OverflowError until that became one too.
ERROR_MESSAGES = {
    "e01_lexical.nfg": "2:8: unexpected character '~'",
    "e02_syntax.nfg": "2:14: expected '=', found '1'",
    "e03_undef_tensor.nfg": "3:13: undefined tensor 'B'",
    "e04_undef_vertex.nfg": "5:15: undefined vertex 'b'",
    "e05_slot_range.nfg": "5:17: slot out of range",
    "e06_value_count.nfg": "2:16: expected 4 values for shape [2, 2], got 3",
    "e07_alphabet.nfg": "7:8: alphabet 2 does not match axis size 3 at ('b', 0)",
    "e08_port_reuse.nfg": "6:12: port ('a', 0) already in use",
    "e09_dup_name.nfg": "3:8: name 'A' already defined",
    "e10_interface.nfg": "6:13: 'm' is not a dangling edge",
    "e11_undef_graph.nfg": "2:9: undefined graph 'nowhere'",
    "e12_expr_iface.nfg": "12:14: interface mismatch: 'gw' has (2,)",
    "e13_decimal.nfg": "2:17: expected ',' or the next statement, found '.'",
    "e14_superscript.nfg": "2:11: unexpected character '²'",
    "e15_long_number.nfg": "2:16: integer of 5000 digits is over the limit of 4300",
    "e16_f64_overflow.nfg": "4:19: value too large for f64",
}


def test_error_messages_are_pinned():
    assert sorted(ERROR_MESSAGES) == [path.name for path in ERRORS]
    for path in ERRORS:
        src = path.read_text(encoding="utf-8")
        with pytest.raises(dsl.DslError) as exc:
            dsl.parse(src, _backend(src))
        assert str(exc.value) == ERROR_MESSAGES[path.name], path.name


MATRIX = "tensor A [2,2] = 1, 0, 0, 1\ngraph g {\n  vertex a: A\n"

# Rules the library owns (nfg.builtins, Nfg), raised by the owner and
# reported by the parser at the item's token: a builtin's first argument, a
# vertex or edge name, or the 'interface' keyword.
OWNED_RULES = [
    ("tensor E = eps(0)\n", "1:16: n must be positive"),
    ("tensor I = delta(0)\n", "1:18: size must be positive"),
    ("tensor x = e(4,3)\n", "1:14: i=4 out of range 1..3"),
    ("tensor E = eps(11)\n", "1:16: n=11 exceeds the Levi-Civita limit 10 (n! storage)"),
    (MATRIX + "  vertex a: A\n}\n", "4:10: duplicate vertex id 'a'"),
    (MATRIX + "  vertex b: A\n  edge m(a.1, b.1)\n  edge m(a.2, b.2)\n}\n",
     "6:8: duplicate edge id 'm'"),
    (MATRIX + "  dangling x(a.1)\n  dangling x(a.2)\n}\n", "5:12: duplicate edge id 'x'"),
    (MATRIX + "  edge l(a.1, a.1)\n}\n", "4:8: port ('a', 0) already in use"),
    (MATRIX + "  dangling x(a.1)\n  dangling y(a.2)\n  interface(x, x)\n}\n",
     "6:3: ['x', 'x'] is not a permutation of the dangling edges"),
    (MATRIX + "  dangling x(a.1)\n  dangling y(a.2)\n  interface(y)\n}\n",
     "6:3: ['y'] is not a permutation of the dangling edges"),
]


@pytest.mark.parametrize("source, expected", OWNED_RULES,
                         ids=["eps0", "delta0", "e4of3", "eps11", "vertex", "edge", "dangling",
                              "same port", "interface repeat", "interface subset"])
def test_owned_rules_are_positioned_at_the_item(source, expected, tmp_path, capsys):
    with pytest.raises(dsl.DslError) as exc:
        dsl.parse(source)
    assert str(exc.value) == expected
    path = tmp_path / "doc.nfg"
    path.write_text(source)
    assert main(["contract", str(path), "g"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"parse error: {expected}\n")


# Rules the parser owns, reported at the token that breaks them: a number, a
# name, the keyword of a graph item out of order, or the graph's name.
PARSER_RULES = [
    ("tensor u [0] = 1\n", "1:11: alphabet sizes must be positive"),
    ("tensor E = foo(3)\n", "1:12: unknown builtin 'foo'"),
    ("42\n", "1:1: expected a statement, found '42'"),
    ("tensor A [2] = 1, 2\ngraph g {\n  42\n}\n", "3:3: expected a graph item, found '42'"),
    (MATRIX + "  dangling x(a.1)\n  vertex b: A\n}\n",
     "5:3: vertex declarations must precede edges"),
    (MATRIX + "  dangling x(a.1)\n  dangling y(a.2)\n  interface(x, y)\n  dangling z(a.1)\n}\n",
     "7:3: dangling edges must precede the interface"),
    (MATRIX + "  dangling x(a.1)\n  interface(x)\n  edge m(a.2, a.2)\n}\n",
     "6:3: edges must precede the interface"),
    (MATRIX + "  dangling x(a.1)\n  dangling y(a.2)\n  interface(x, y)\n  interface(y, x)\n}\n",
     "7:3: duplicate interface"),
    (MATRIX + "}\n", "2:7: invalid graph 'g': uncovered port ('a', 0)"),
    ("tensor 7 [2] = 1, 2\n", "1:8: expected a tensor name, found '7'"),
    (MATRIX + "  wire m(a.1, a.2)\n}\n",
     "4:3: expected 'vertex', 'edge', 'dangling' or 'interface', found 'wire'"),
]


@pytest.mark.parametrize("source, expected", PARSER_RULES,
                         ids=["alphabet", "builtin", "statement", "graph item",
                              "vertex after edge", "dangling after interface",
                              "edge after interface", "interface twice", "unwired",
                              "name", "graph keyword"])
def test_parser_rules_are_positioned_errors(source, expected, tmp_path, capsys):
    with pytest.raises(dsl.DslError) as exc:
        dsl.parse(source)
    assert str(exc.value) == expected
    path = tmp_path / "doc.nfg"
    path.write_text(source)
    assert main(["contract", str(path), "g"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"parse error: {expected}\n")


@pytest.mark.parametrize("item, expected", [
    ("  vertex a: B\n", "4:13: undefined tensor 'B'"),
    ("  edge m(a.1, a.2)\n  edge m(a.1, b.2)\n", "5:15: undefined vertex 'b'"),
    ("  dangling x(a.1)\n  dangling x(a.9)\n", "5:16: slot out of range"),
], ids=["vertex", "edge", "dangling"])
def test_a_duplicate_id_is_reported_after_the_rest_of_its_item(item, expected):
    """The graph owns the duplicate-id rule, so the parser reads the whole
    item, and reports what it finds wrong there, before the graph is asked."""
    with pytest.raises(dsl.DslError) as exc:
        dsl.parse(MATRIX + item + "}\n")
    assert str(exc.value) == expected


def test_parsed_graphs_evaluate():
    doc = dsl.parse((CORPUS / "v05_selfloop.nfg").read_text())
    assert exterior_brute(doc.graphs["tr"]).get(()) == rat(9)
    doc = dsl.parse((CORPUS / "v06_cross.nfg").read_text())
    z = exterior_brute(doc.graphs["cx"])
    assert [z.get((i,)) for i in range(3)] == [rat(-3), rat(6), rat(-3)]


def test_let_expressions_evaluate():
    doc = dsl.parse((CORPUS / "v07_let.nfg").read_text())
    u = doc.tensors["u"]
    v = doc.tensors["v"]
    s = u.scale(rat(2)).add(v.scale(rat(2, 3)))  # 2u + v - v/3
    assert eval_compound(doc.compounds["s"]).equal(s)
    assert eval_compound(doc.compounds["t"]).equal(s.scale(-1).add(u))


def test_interface_statement_orders_axes():
    doc = dsl.parse((CORPUS / "v04_matmul.nfg").read_text())
    g = doc.graphs["ab"]
    assert g.dangling == ["c", "r"]
    z = exterior_brute(g)
    assert z.shape == (2, 2)


def test_builtin_tensors():
    doc = dsl.parse((CORPUS / "v03_builtins.nfg").read_text())
    assert doc.tensors["E"].shape == (3, 3, 3)
    assert doc.tensors["I"].get((2, 2)) == rat(1)
    assert doc.tensors["e2"].get((1,)) == rat(1)
    assert doc.tensors["e2"].get((0,)) == rat(0)


def test_float_backend_parse():
    doc = dsl.parse("tensor u [2] = 1/2, 3\n", backend=F64)
    t = doc.tensors["u"]
    assert t.backend == F64
    assert t.get((0,)) == 0.5


LONG = "1" * 5000


@pytest.mark.parametrize("source", [
    f"tensor u [{LONG}] = 1",
    f"tensor E = eps({LONG})",
    f"tensor u [2] = 1, -{LONG}",
    f"tensor u [2] = 1, 2/{LONG}",
    f"tensor u [1] = 1 graph g {{ vertex a: u dangling x(a.{LONG}) }}",
], ids=["dim", "builtin", "numerator", "denominator", "slot"])
def test_numbers_over_the_int_digit_limit_are_positioned_errors(source):
    with pytest.raises(dsl.DslError) as exc:
        dsl.parse(source)
    assert (exc.value.line, exc.value.col) == (1, source.index(LONG) + 1)
    assert exc.value.message.startswith("integer of 5000 digits is over the limit")


def test_frozen_after_parse():
    from nfg.graph import FrozenNfgError

    doc = dsl.parse((CORPUS / "v05_selfloop.nfg").read_text())
    with pytest.raises(FrozenNfgError):
        doc.graphs["tr"].add_vertex(Tensor.from_values((2,), [1, 0]), "z")


def test_serializer_folds_negative_coefficients():
    doc = dsl.parse((CORPUS / "v07_let.nfg").read_text())
    text = dsl.serialize(doc)
    assert "let s = 2*gu + gv - 1/3*gv" in text


# One document in every statement form, and its canonical text byte for byte:
# a round trip or a fixed point would not notice the form drifting (say "g"
# becoming "1*g") as long as the parser still read it.
EVERY_FORM = """\
tensor A [2,2] = 2/4, -3, 0 , 6/4   # an unreduced value and a negative one
tensor s[]=5
tensor E = eps( 3 )
tensor I = delta(3)
tensor p = e(2, 3)
graph cx { vertex e: E  vertex u: p edge x(e.2, u.1)
  dangling out(e.1) dangling rest(e.3) interface(rest, out) }
graph z {}
graph sv { vertex c: s }
let a = 1*cx - 1*cx + 2/6*cx
let b = -1*cx + -1*cx - 3/2*cx
let c = -4/6*a - -1*b + 1 * b
"""
EVERY_FORM_CANONICAL = """\
tensor A [2,2] = 1/2, -3, 0, 3/2
tensor s [] = 5
tensor E = eps(3)
tensor I = delta(3)
tensor p = e(2,3)
graph cx {
  vertex e: E
  vertex u: p
  edge x(e.2, u.1)
  dangling out(e.1)
  dangling rest(e.3)
  interface(rest, out)
}
graph z {
}
graph sv {
  vertex c: s
}
let a = cx - cx + 1/3*cx
let b = -1*cx - cx - 3/2*cx
let c = -2/3*a + b + b
"""


@pytest.mark.parametrize("backend", [EXACT, F64])
def test_canonical_text_of_every_statement_form(backend):
    assert dsl.serialize(dsl.parse(EVERY_FORM, backend)) == EVERY_FORM_CANONICAL
    assert dsl.serialize(dsl.parse("", backend)) == ""


def test_values_and_coefficients_are_parsed_rationals():
    doc = dsl.parse(
        "tensor u [2] = 2/4, -3\n"
        "graph g { vertex a: u dangling x(a.1) }\n"
        "let s = -6/4*g + g\n"
    )
    decl = doc.statements[0]
    coefs = [coef for coef, _ in doc.compounds["s"].terms]
    assert values_of(decl) == [rat(1, 2), rat(-3)]
    assert coefs == [rat(-3, 2), rat(1)]
    assert all(isinstance(v, Fraction) for v in values_of(decl) + coefs)
    assert dsl.serialize(doc).splitlines()[0] == "tensor u [2] = 1/2, -3"
    assert dsl.serialize(doc).splitlines()[-1] == "let s = -3/2*g + g"


# -- value lists --------------------------------------------------------------

# Values or str(err), recorded before value lists were read in bulk.
VALUE_LISTS = [
    ("tensor u [1] = - 3\n", EXACT, [rat(-3)]),
    ("tensor u [1] = 1 / 2\n", EXACT, [rat(1, 2)]),
    ("tensor u [3] = 1, # one\n  2\n  ,3 # three\n", EXACT, [rat(1), rat(2), rat(3)]),
    ("tensor u [3] = -\n# c\n 1 # c\n / # c\n 2, 3, 4", EXACT, [rat(-1, 2), rat(3), rat(4)]),
    ("tensor u [1] = 2/4", EXACT, [rat(1, 2)]),
    ("tensor u [1] = \u0661\u0662/\u0663\n", EXACT, [rat(4)]),  # Arabic-Indic 12/3
    ("tensor u [2] = 1/2, -3\n", F64, [rat(1, 2), rat(-3)]),
    ("tensor u [2] = 1/0, 2\n", EXACT, "1:18: zero denominator"),
    ("tensor u [2] = 1, 1/00\n", EXACT, "1:21: zero denominator"),
    ("tensor u [2] = 1, 2,\n", EXACT, "2:1: expected an integer, found 'end of input'"),
    ("tensor u [2] = 1, 2, # end", EXACT, "1:22: expected an integer, found 'end of input'"),
    ("tensor u [2] = 1, 2,\ntensor v [1] = 3\n", EXACT, "2:1: expected an integer, found 'tensor'"),
    ("tensor u [2] = 1 2\n", EXACT, "1:18: expected ',' or the next statement, found '2'"),
    ("tensor u [2] = 1.5, 2\n", EXACT, "1:17: expected ',' or the next statement, found '.'"),
    ("tensor u [2] = 1/x, 2\n", EXACT, "1:18: expected an integer, found 'x'"),
    ("tensor u [2] = 1/-2, 2\n", EXACT, "1:18: expected an integer, found '-'"),
    ("tensor u [2] = - - 2, 2\n", EXACT, "1:18: expected an integer, found '-'"),
    ("tensor u [2] = 1, x\n", EXACT, "1:19: expected an integer, found 'x'"),
    ("tensor u [2] = 1, 2 }\n", EXACT, "1:21: expected ',' or the next statement, found '}'"),
    ("tensor u [2] =", EXACT, "1:15: expected an integer, found 'end of input'"),
]
# 50,000 values whose last is in error: read in bulk up to it, and refused
# where the token methods place it, at the error's column past HEAD.
HEAD = "tensor u [50000] = " + "1, " * 49999
VALUE_LISTS += [
    pytest.param(HEAD + last, backend, f"1:{len(HEAD) + col}: {message}",
                 id=f"50000 values, last {last[:4]}, {backend}")
    for last, col, message in [
        ("1/0", 3, "zero denominator"),
        ("1/-2", 3, "expected an integer, found '-'"),
        ("1.5", 2, "expected ',' or the next statement, found '.'"),
        (LONG, 1, "integer of 5000 digits is over the limit of 4300"),
    ]
    for backend in (EXACT, F64)
]


@pytest.mark.parametrize("source,backend,expected", VALUE_LISTS, ids=repr)
def test_value_lists(source, backend, expected):
    if isinstance(expected, str):
        with pytest.raises(dsl.DslError) as exc:
            dsl.parse(source, backend)
        assert str(exc.value) == expected
        return
    doc = dsl.parse(source, backend)
    assert values_of(doc.statements[0]) == expected
    assert all(isinstance(v, Fraction) for v in values_of(doc.statements[0]))
    cast = float if backend == F64 else rat
    assert doc.tensors["u"].values() == [cast(v) for v in expected]


PARSE_RATIONAL = dsl._Parser.parse_rational


def _outcome(source, backend=EXACT):
    try:
        return values_of(dsl.parse(source, backend).statements[0])
    except dsl.DslError as err:
        return str(err)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["-", "/", ",", " ", "\n", "# c\n", "0", "1", "12",
                                 "\u0663", ".", "x", "}", "\u00b2",
                                 # what int() reads but the grammar refuses
                                 "+", "_", "\u00a0", "\x0b", "\x0c",
                                 "1/-2", "1/2/3", "- 3"]), max_size=12).map("".join),
       st.sampled_from(["", "\ntensor v [1] = 5", " # end", "\n}"]))
@example("0# c\n/", "")  # a comment before '/' must not end the list as EOF would
@example("- 3,-\n1/ 2", "")  # blanks after a sign, and no comment
def test_value_lists_read_in_bulk_as_by_the_token_methods(body, tail):
    """Every list the token methods accept is read in bulk alone, and every
    other gives the error the token methods give."""
    source = f"tensor u [{body.count(',') + 1}] = {body}{tail}"
    token_reads = []

    def parse_rational(parser):
        token_reads.append(parser.pos)
        return PARSE_RATIONAL(parser)

    with mock.patch.object(dsl._Parser, "parse_rational", parse_rational):
        bulk = _outcome(source)
    with mock.patch.object(dsl, "_LIST", re.compile("")):  # an empty extent reads nothing
        assert bulk == _outcome(source)
    if not isinstance(bulk, str):
        assert token_reads == []


BIG = "9" * 400  # beyond the largest float


@pytest.mark.parametrize("backend", [EXACT, F64])
@pytest.mark.parametrize("body", [
    f"1, {BIG}, 1/0", f"1, {BIG}, x", f"{BIG}, 1/-2", f"1, 2/{LONG}, {BIG}", f"1, {BIG}",
    f"{BIG}, 1.5", "1, # c\n 2, 1/0", "- 1, 2, 1 2", f"- {BIG}, 1/0", "1/0, x",
])
def test_refused_lists_give_the_token_methods_error_on_either_backend(body, backend):
    """The token methods start at the refused entry only where that gives
    their error: an f64 overflow before it, or a dropped comment or sign gap,
    sends them back to the list's start."""
    source = f"tensor u [{body.count(',') + 1}] = {body}\n"
    bulk = _outcome(source, backend)
    with mock.patch.object(dsl, "_LIST", re.compile("")):
        assert bulk == _outcome(source, backend)


@pytest.mark.parametrize("backend", [EXACT, F64])
@pytest.mark.parametrize("last", ["1/0", "1/-2", LONG])
def test_a_refused_list_is_read_by_the_token_methods_from_the_refused_entry(backend, last):
    """The entries before it are kept from the bulk pass, not read again."""
    token_reads = []

    def parse_rational(parser):
        token_reads.append(parser.pos)
        return PARSE_RATIONAL(parser)

    with mock.patch.object(dsl._Parser, "parse_rational", parse_rational):
        with pytest.raises(dsl.DslError):
            dsl.parse(HEAD + last, backend)
        assert token_reads == [len(HEAD) - 1]  # just after the last comma
        with pytest.raises(dsl.DslError, match="zero denominator"):
            dsl.parse("tensor u [3] = 1, # one\n2, 1/0", backend)
        assert token_reads[1:] == [14, 17, 26]  # from the start: a comment was dropped


# -- scanner against the reference lexer ---------------------------------------

_SYMBOLS = set("[]{}(),.:=+-*/")


class Lexeme(NamedTuple):
    """A token with the 1-based line and column that the scanner places it at."""
    kind: str
    text: str
    line: int
    col: int


def reference_tokenize(source):
    """The per-character lexer that the scanner replaced, kept as its reference."""
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            text = source[start:i]
            tokens.append(Lexeme("NAME", text, line, col))
            col += len(text)
            continue
        if ch.isdigit():
            start = i
            while i < n and source[i].isdigit():
                i += 1
            text = source[start:i]
            tokens.append(Lexeme("NUMBER", text, line, col))
            col += len(text)
            continue
        if ch in _SYMBOLS:
            tokens.append(Lexeme("SYM", ch, line, col))
            i += 1
            col += 1
            continue
        raise dsl.DslError(f"unexpected character {ch!r}", line, col)
    tokens.append(Lexeme("EOF", "", line, col))
    return tokens


def reference_tokens(source):
    """The reference's tokens up to its error, and the error or None.  Where the
    reference lexes a NUMBER that int() cannot read, such as '²', the scanner
    stops at its first non-decimal character as an unexpected character."""
    try:
        tokens, error = reference_tokenize(source), None
    except dsl.DslError as err:
        line_starts = [0] + [i + 1 for i, ch in enumerate(source) if ch == "\n"]
        tokens = reference_tokenize(source[:line_starts[err.line - 1] + err.col - 1])[:-1]
        error = (err.line, err.col, err.message)
    for k, tok in enumerate(tokens):
        if tok.kind == "NUMBER" and not tok.text.isdecimal():
            i = next(i for i, ch in enumerate(tok.text) if not ch.isdecimal())
            head = [tok._replace(text=tok.text[:i])] if i else []
            return tokens[:k] + head, (tok.line, tok.col + i, f"unexpected character {tok.text[i]!r}")
    return tokens, error


def scanner_tokens(source):
    """The parser's tokens up to EOF or its error, each placed at the line and
    column of its start offset, and the error or None."""
    parser, tokens = dsl._Parser(source, EXACT), []

    def lexeme(tok):
        line = source.count("\n", 0, tok.start) + 1
        return Lexeme(tok.kind, tok.text, line, tok.start - source.rfind("\n", 0, tok.start))

    try:
        while not tokens or tokens[-1].kind != "EOF":
            tokens.append(lexeme(parser.next()))
    except dsl.DslError as err:
        return tokens, (err.line, err.col, err.message)
    return tokens, None


LEXER_ALPHABET = (
    "abZ_09[]{}(),.:=+-*/~ \t\r\n#"
    "\u00a0\u00e9\u00bd\u00b2\u216b\u0661"  # no-break space, é, ½, ², Ⅻ, Arabic-Indic 1
)


@settings(max_examples=500, deadline=None)
@given(st.text(LEXER_ALPHABET, max_size=40))
@example("a\tb\r c\n# c\nd # c")  # a tab or CR is one column; EOF at a final comment
@example("\u00e92_\u00bd \u0661\u0662 1\u00b2")  # numerals in a NAME; '²' after digits
@example("\u00bd")
def test_scanner_matches_reference_lexer(source):
    assert scanner_tokens(source) == reference_tokens(source)


# -- values straight to int numerators over one denominator --------------------

NINES = "9" * 400


@pytest.mark.parametrize("source, position", [
    (f"tensor u [2] = 1, -{NINES}", (1, 19)),
    (f"tensor u [2] = 1,\n  {NINES}/3", (2, 3)),
    (f"tensor u [1] = 1 graph g {{ vertex a: u dangling x(a.1) }} let h = g + {NINES}*g",
     (1, 70)),
    (f"tensor u [1] = 1 graph g {{ vertex a: u dangling x(a.1) }} let h = -{NINES}/7*g",
     (1, 66)),
], ids=["value", "second line", "coefficient", "negative coefficient"])
def test_values_beyond_the_largest_float_are_positioned_errors_on_f64(source, position):
    with pytest.raises(dsl.DslError) as exc:
        dsl.parse(source, F64)
    assert (exc.value.line, exc.value.col, exc.value.message) == (
        *position, "value too large for f64")
    dsl.parse(source, EXACT)  # exact holds them


@st.composite
def written_values(draw):
    """A value as the DSL reads it, in any terms, signed zeros and numerators
    around and above 2**63 included."""
    num = draw(st.one_of(st.integers(0, 12), st.integers(2**62, 2**66), st.integers(0, 2**130)))
    text = draw(st.sampled_from(["", "-"])) + str(num)
    if draw(st.booleans()):
        text += "/" + str(draw(st.one_of(st.integers(1, 12), st.integers(1, 2**70))))
    return text


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(written_values(), st.sampled_from(["2/4", "-0", "0/7", "-6/4"])),
                min_size=1, max_size=12))
def test_values_read_as_from_values_reads_their_rationals(texts):
    """The parsed tensor is what Tensor.from_values makes of the same
    rationals: the same entries and denominator on exact, and floats bit for
    bit on f64; and the canonical text parses back to the same statements."""
    source = f"tensor u [{len(texts)}] = " + ", ".join(texts) + "\n"
    rationals = [Fraction(t) for t in texts]
    exact = dsl.parse(source, EXACT)
    expected = Tensor.from_values((len(texts),), rationals, EXACT)
    assert (exact.tensors["u"].dense, exact.tensors["u"].denom) == (expected.dense, expected.denom)
    assert values_of(exact.statements[0]) == rationals
    floats = dsl.parse(source, F64).tensors["u"].dense
    assert [x.hex() for x in floats] == [float(r).hex() for r in rationals]
    assert dsl.parse(dsl.serialize(exact)).statements == exact.statements


def test_parsing_values_builds_no_fraction_per_value(monkeypatch):
    """2,048 exact values, in every form a value list admits, are read
    without a single Fraction, on either backend."""
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    rng = random.Random(12)
    values = [f"{rng.choice(['', '-'])}{rng.randint(0, 99)}{rng.choice(['', '/7', '/12'])}"
              for _ in range(2047)]
    source = ("tensor A [8,16,16] = " + ", ".join(values) + ",  # last\n - 1 / 2\n"
              "graph g { vertex a: A dangling x(a.1) dangling y(a.2) dangling z(a.3) }\n")
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for backend in (EXACT, F64):
        assert dsl.parse(source, backend).tensors["A"].shape == (8, 16, 16)
        assert made == [], backend
    # the counter does see Fractions: those that values_of forms
    assert len(values_of(dsl.parse(source).statements[0])) == len(made) == 2048
