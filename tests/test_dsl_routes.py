"""The DSL parser's two routes agree.

Statement patterns read a value list's head and each vertex, edge and
dangling item whole; the token methods read the rest.  Each check takes the
source offset of what it checks, a pattern group's or a token's, so every
statement is read once.  With the patterns made never to match, the token
methods read everything, so a document must give the same canonical text, or
the same positioned error, either way.
"""

import pathlib
import re
from math import prod
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from nfg import dsl
from nfg.scalars import EXACT, F64

CORPUS = pathlib.Path(__file__).parent / "corpus"
VALID = sorted(CORPUS.glob("v*.nfg"))
NEVER = re.compile(r"(?!)")  # matches nowhere
PATTERNS = ("_HEADER", "_VERTEX", "_EDGE", "_DANGLING")


def outcome(source, backend=EXACT):
    try:
        return dsl.serialize(dsl.parse(source, backend))
    except dsl.DslError as err:
        return (err.line, err.col, err.message)


def token_outcome(source, backend=EXACT):
    """The outcome when the token methods read every statement."""
    with mock.patch.multiple(dsl, **dict.fromkeys(PATTERNS, NEVER)):
        return outcome(source, backend)


# -- documents from README's grammar ---------------------------------------------

def spell(draw, n):
    """A spelling of n that int() reads: plain, with a leading zero, or in
    Arabic-Indic digits."""
    arabic = "".join(chr(0x660 + int(d)) for d in str(n))
    return draw(st.sampled_from([str(n), "0" + str(n), arabic]))


@st.composite
def documents(draw):
    """A document's tokens: value lists and builtins, graphs whose every port
    is wired, and let lines over one graph; and whether it is valid, as it is
    unless a vertex or the interface was put out of order."""
    toks, shapes, valid = [], {}, True
    for i in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(["t", "vertex", "é", "_T"])) + str(i)
        kind = draw(st.sampled_from(["list", "list", "eps", "delta", "e"]))
        if kind == "list":
            shape = draw(st.lists(st.integers(1, 3), max_size=3))
            toks += ["tensor", name, "["]
            for k, size in enumerate(shape):
                toks += [","] * bool(k) + [spell(draw, size)]
            toks += ["]", "="]
            for k in range(prod(shape)):
                toks += [","] * bool(k) + ["-"] * draw(st.booleans())
                toks.append(spell(draw, draw(st.integers(0, 12))))
                if draw(st.booleans()):
                    toks += ["/", spell(draw, draw(st.integers(1, 9)))]
        else:
            n = draw(st.integers(1, 3))
            shape = [n] * (n if kind == "eps" else 2 if kind == "delta" else 1)
            args = [str(draw(st.integers(1, n))), ",", str(n)] if kind == "e" else [str(n)]
            toks += ["tensor", name, "=", kind, "(", *args, ")"]
        shapes[name] = shape
    graphs = []
    for gi in range(draw(st.integers(0, 2))):
        graphs.append(f"g{gi}")
        toks += ["graph", graphs[-1], "{"]
        ports = []
        for vi in range(draw(st.integers(0, 4))):
            vname = draw(st.sampled_from(["v", "edge", "dangling_", "é"])) + str(vi)
            tname = draw(st.sampled_from(sorted(shapes)))
            toks += ["vertex", vname, ":", tname]
            ports += [(vname, slot, size) for slot, size in enumerate(shapes[tname], start=1)]
        ports = draw(st.permutations(ports))
        items, dangling = [], []
        while ports:
            v, slot, size = ports.pop()
            port = [v, ".", spell(draw, slot)]
            partner = next((p for p in ports if p[2] == size), None)
            if partner and draw(st.booleans()):
                ports.remove(partner)
                end = [partner[0], ".", spell(draw, partner[1])]
                items.append(["edge", f"e{len(items)}", "(", *port, ",", *end, ")"])
            else:
                dangling.append(f"d{len(items)}")
                items.append(["dangling", dangling[-1], "(", *port, ")"])
        if dangling and draw(st.booleans()):
            order = draw(st.permutations(dangling))
            items.append(["interface", "(", *sum(([",", name] for name in order), [])[1:], ")"])
        late = bool(items) and draw(st.sampled_from([False] * 4 + [True]))
        edges = [k for k, item in enumerate(items) if item[0] == "edge"]
        if late and items[-1][0] == "interface" and edges:
            items.insert(edges[-1], items.pop())  # the interface before an edge
        elif late:
            items.insert(1, ["vertex", "late", ":", tname])  # a vertex after an edge
        valid = valid and not late
        for item in items:
            toks += item
        toks += ["}"]
    for li in range(draw(st.integers(0, 2)) if graphs else 0):
        toks += ["let", f"L{li}", "="]
        for k in range(draw(st.integers(1, 3))):
            toks += [draw(st.sampled_from(["+", "-"]))] * bool(k)
            if draw(st.booleans()):
                toks += ["-"] * draw(st.booleans()) + [str(draw(st.integers(0, 5)))]
                toks += ["/", str(draw(st.integers(1, 5)))] * draw(st.booleans()) + ["*"]
            toks += [graphs[0]]
    return toks, valid


SEPARATORS = ["", " ", "  ", "\t", "\n", "\r\n", " # note\n", "#1, 2 ] edge\n", "\n\n  "]
MUTANTS = ["", "vertexa", "½", "0", "01", "9" * 5000, "x", "é", "(", ")", ",", ".",
           ":", "=", "{", "}", "[", "]", "-", "/", "*", "tensor", "graph", "vertex", "edge",
           "dangling", "interface", "let", "²", "1.5", "~"]


def _wordy(ch):
    return ch.isalnum() or ch == "_"


@st.composite
def sources(draw):
    """A document's text, with any whitespace, CR LF and comments between its
    tokens, one token replaced in some; and whether it may be refused."""
    toks, valid = draw(documents())
    mutated = bool(toks) and draw(st.booleans())
    if mutated:
        k = draw(st.integers(0, len(toks) - 1))
        toks[k] = draw(st.sampled_from(MUTANTS + toks))
    text = ""
    for tok in toks:
        gap = draw(st.sampled_from(SEPARATORS))
        if not gap and text and tok and _wordy(text[-1]) and _wordy(tok[0]):
            gap = " "
        text += gap + tok
    return text + draw(st.sampled_from(["", "\n", "# end", "\r\n# end\n"])), mutated or not valid


@settings(max_examples=120, deadline=None)
@given(sources(), st.sampled_from([EXACT, F64]))
@example(("tensor A [2] = 1, 2 graph g { vertex a: A edge m(a.1, a.2) edge m(a.1, a.2) }",
          True), EXACT)
@example(("tensor t [1] = 1 graph g { dangling x(a.1) vertex a: t }", True), F64)
def test_both_routes_read_a_document_alike(case, backend):
    source, may_fail = case
    result = outcome(source, backend)
    assert result == token_outcome(source, backend)
    if not may_fail:
        assert isinstance(result, str), result


@pytest.mark.parametrize("backend", [EXACT, F64])
@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.nfg")), ids=lambda p: p.name)
def test_both_routes_read_the_corpus_alike(path, backend):
    source = path.read_text(encoding="utf-8")
    assert outcome(source, backend) == token_outcome(source, backend)


# -- where the two routes could part ---------------------------------------------

MATRIX = "tensor A [2,2] = 1, 0, 0, 1\ngraph g {\n  vertex a: A\n"
LONG = "1" * 5000


def _corpus_case(name):
    """A corpus document, and the error its header expects, as (line, col, fragment)."""
    source = (CORPUS / name).read_text(encoding="utf-8")
    line, col, fragment = re.match(r"# expect: (\d+):(\d+) (.*)", source).groups()
    return source, (int(line), int(col), fragment)


DIVERGENCES = [
    ("keyword-prefixed name", MATRIX + "  vertexa: A\n}\n",
     (4, 3, "expected 'vertex', 'edge', 'dangling' or 'interface', found 'vertexa'")),
    ("name starting with a numeral", MATRIX + "  vertex ½: A\n}\n",
     (4, 10, "unexpected character '½'")),
    ("unicode digits and leading zeros in slots",
     MATRIX + "  dangling x(a.01)\n  dangling y(a.٢)\n}\n",
     "tensor A [2,2] = 1, 0, 0, 1\ngraph g {\n  vertex a: A\n"
     "  dangling x(a.1)\n  dangling y(a.2)\n}\n"),
    ("slot over the int digit limit",
     f"tensor u [1] = 1\ngraph g {{ vertex a: u dangling x(a.{LONG}) }}\n",
     (2, 36, "integer of 5000 digits is over the limit of 4300")),
    ("zero alphabet before a bad value", "tensor u [2, 0] = x\n",
     (1, 14, "alphabet sizes must be positive")),
    ("rank 0", "tensor t [] = 5\ngraph g { vertex a: t }\n",
     "tensor t [] = 5\ngraph g {\n  vertex a: t\n}\n"),
    ("no space before a statement", "tensor u [1,2] = 1,2graph g { vertex a: u"
     " dangling x(a.1) dangling y(a.2) }",
     "tensor u [1,2] = 1, 2\ngraph g {\n  vertex a: u\n  dangling x(a.1)\n  dangling y(a.2)\n}\n"),
    ("comment with no newline at the end", "tensor u [1] = 1 # one\ngraph g {\n"
     "  vertex a: u\n  dangling x(a.1) # last\n} # end",
     "tensor u [1] = 1\ngraph g {\n  vertex a: u\n  dangling x(a.1)\n}\n"),
    ("comment with no newline inside an item", MATRIX + "  dangling x(a.1 # end",
     (4, 18, "expected ')', found 'end of input'")),
    ("vertex after an edge", MATRIX + "  dangling x(a.1)\n  vertex b: A\n}\n",
     (5, 3, "vertex declarations must precede edges")),
    ("edge after the interface", MATRIX + "  vertex b: A\n  dangling x(a.1)\n  dangling y(b.2)\n"
     "  interface(y, x)\n  edge m(a.2, b.1)\n}\n", (8, 3, "edges must precede the interface")),
    ("dangling edge after the interface", MATRIX + "  dangling x(a.1)\n  interface(x)\n"
     "  dangling y(a.2)\n}\n", (6, 3, "dangling edges must precede the interface")),
    ("duplicate vertex name", MATRIX + "  vertex a: A\n}\n", (4, 10, "duplicate vertex id 'a'")),
    ("reused port", *_corpus_case("e08_port_reuse.nfg")),
    ("undefined tensor", *_corpus_case("e03_undef_tensor.nfg")),
]


@pytest.mark.parametrize("backend", [EXACT, F64])
@pytest.mark.parametrize("source, expected", [case[1:] for case in DIVERGENCES],
                         ids=[case[0] for case in DIVERGENCES])
def test_where_the_routes_could_part_they_agree(source, expected, backend):
    result = outcome(source, backend)
    assert result == token_outcome(source, backend)
    if isinstance(expected, str):
        assert result == expected
    else:
        assert result[:2] == expected[:2] and expected[2] in result[2], result


NINES = "9" * 5000  # over int()'s digit limit
PAIR = "tensor t [2,2] = 1, 0, 0, 1\ngraph g { vertex a: t vertex b: t "

# A refused item or head is placed where the token reader places it, checks
# run in its order: a port's vertex, its slot's digit limit, its slot's range,
# and only then the graph's own message; a head's sizes one by one.
PLACED = [
    ("undefined vertex before a long slot", PAIR + f"edge f(zz.{NINES}, b.1) }}\n",
     "2:42: undefined vertex 'zz'"),
    ("undefined dangling vertex before a long slot",
     f"tensor t [2] = 1, 0\ngraph g {{ vertex b: t dangling f(zz.{NINES}) }}\n",
     "2:34: undefined vertex 'zz'"),
    ("undefined vertex in a duplicate edge", PAIR + "edge f(a.1, b.1) edge f(zz.1, a.2) }\n",
     "2:59: undefined vertex 'zz'"),
    ("long slot on a defined vertex", PAIR + f"edge f(a.{NINES}, b.1) }}\n",
     "2:44: integer of 5000 digits is over the limit of 4300"),
    ("size after a comment with digits", "tensor t [2, # 30\n 0] = 1\n",
     "2:2: alphabet sizes must be positive"),
    ("size after a comment with a zero", "tensor t [2, # 0\n 0] = 1\n",
     "2:2: alphabet sizes must be positive"),
    ("long size", f"tensor t [1, {NINES}] = 1\n",
     "1:14: integer of 5000 digits is over the limit of 4300"),
]


@pytest.mark.parametrize("backend", [EXACT, F64])
@pytest.mark.parametrize("source, expected", [case[1:] for case in PLACED],
                         ids=[case[0] for case in PLACED])
def test_a_refusal_is_placed_as_the_token_reader_places_it(source, expected, backend):
    result = outcome(source, backend)
    assert result == token_outcome(source, backend)
    assert "{}:{}: {}".format(*result) == expected


# -- the patterns read every item ------------------------------------------------


TOKEN = dsl._TOKEN


class CountingScans:
    """Stands in for dsl._TOKEN, counting its scans."""

    def __init__(self):
        self.scans = 0

    def match(self, *args):
        self.scans += 1
        return TOKEN.match(*args)


def token_scans(source, patterns=True):
    counter = CountingScans()
    with mock.patch.object(dsl, "_TOKEN", counter):
        if patterns:
            doc = dsl.parse(source)
        else:
            with mock.patch.multiple(dsl, **dict.fromkeys(PATTERNS, NEVER)):
                doc = dsl.parse(source)
    return counter.scans, doc


def scan_bound(doc):
    """Ten token scans a statement and a graph block: the token methods read
    a statement's keyword, a builtin, a let line, a graph's head, interface
    and '}', but no vertex, edge or dangling item and no value list."""
    return 10 * (len(doc.statements) + len(doc.graphs))


@pytest.mark.parametrize("path", VALID, ids=lambda p: p.name)
def test_the_token_methods_read_no_item_of_the_corpus(path):
    scans, doc = token_scans(path.read_text(encoding="utf-8"))
    assert scans <= scan_bound(doc)


def ladder(rungs):
    """A closed ladder of 2 * rungs rank-3 vertices over one tensor."""
    lines = ["tensor T [2,2,2] = 1, -2, 3/4, 0, 5, 6, -7/8, 9", "graph ladder {"]
    lines += [f"  vertex {rail}{i}: T" for i in range(rungs) for rail in "tb"]
    for i in range(rungs):
        lines += [f"  edge {rail}e{i}({rail}{i}.2, {rail}{(i + 1) % rungs}.1)" for rail in "tb"]
        lines.append(f"  edge r{i}(t{i}.3, b{i}.3)")
    return "\n".join(lines + ["}", ""])


def test_a_ladder_costs_the_same_token_scans_at_any_size():
    counts = [token_scans(ladder(rungs))[0] for rungs in (2, 4, 8)]  # 4 to 16 vertices
    scans, doc = token_scans(ladder(8))
    assert counts == [scans] * 3 and scans <= scan_bound(doc)
    # read by the token methods alone, its items alone take far more
    assert token_scans(ladder(8), patterns=False)[0] > 10 * scan_bound(doc)
    assert outcome(ladder(8)) == token_outcome(ladder(8))
