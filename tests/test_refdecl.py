"""The declaration reader of ``ssi.ctype``, whose declarators derive C's
types, against the reader that copied five type fields by hand
(``tests/refdecl.py``).

Both read the same token soups, with the same typedef names bound in each
world to the same types. For every start index and for ``member`` both
true and false, they must read the same declarators, each with the same
type and ``typedef`` flag, stop at the same index, or raise the same
exception. A type is compared as the old reader held it: the bounds of its
outer arrays, whether it is a function, and its pointer levels over a
base's width, tag, sign and ``_Bool``.

Only soups the old reader read right are compared: none with a
parenthesized declarator, ``(*…)``, followed by ``[`` or ``(`` or holding a
``(``, which it read as a plain pointer; none with an array typedef; and
none with a type keyword or tag after a pointer typedef's name, which C
forbids (C11 6.7.2p2) and the old reader took as a new base under it.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

import refdecl
from ssi import ctype
from ssi import tokens as tk
from ssi.ctype import ARRAY, FUNCTION, POINTER, CType

# (width, tag, unsigned, stars, boolean) of each typedef name.
TYPEDEFS = {
    "T": (4, "s", False, 0, False),
    "sp": (4, "s", False, 1, False),
    "reg_p": (2, None, True, 1, False),
    "flag": (1, None, True, 0, True),
    "cb": (4, None, False, 1, False),
}
REF_TYPEDEFS = {name: refdecl.TypeInfo(*fields) for name, fields in TYPEDEFS.items()}
POINTER_TYPEDEFS = {name for name, fields in TYPEDEFS.items() if fields[3]}


def _typedef(width, tag, unsigned, stars, boolean):
    t = CType(width, tag, unsigned, boolean)
    for _ in range(stars):
        t = CType(kind=POINTER, of=t)
    return t


NEW_TYPEDEFS = {name: _typedef(*fields) for name, fields in TYPEDEFS.items()}

# Token soup: specifiers, typedef and built-in names, declarator pieces and
# attribute identifiers, in whole declarations and single tokens.
SOUP = [
    "const", "volatile", "static", "extern", "inline", "typedef",
    "void", "char", "short", "int", "long", "float", "double", "signed",
    "unsigned", "_Bool",
    "struct", "union", "enum", "struct u", "union v", "enum e", "struct s",
    "struct u { int a; char b; }", "struct { long c; }", "enum { A, B }",
    *TYPEDEFS, "u8", "s16", "uint32_t", "int64_t", "size_t", "ulong", "bool",
    "*", "*", "(", ")", "(int)", "[4]", "[N + 1]", "[]", ",", "= 3", "= a + b",
    "= { 1, 2 }", "x", "y", "__iomem", "__aligned(4)", "__packed", ";",
    "unsigned long *p, q[2]", "int (*fp)(int a)", "T struct u x",
]

soups = st.lists(st.sampled_from(SOUP), max_size=14).map(" ".join)


def texts(run):
    return None if run is None else " ".join(t.text for t in run)


def outcome(read):
    try:
        return read()
    except Exception as e:  # the same failure in both worlds is agreement
        return type(e).__name__


def reference_view(toks, i, member):
    """The reference's reading; an empty bound, which the new reader counts
    as 0 (a flexible array member), reads as ``0``."""
    info, decls, j = refdecl._declarations(toks, i, REF_TYPEDEFS, member)
    return (j, [(d.name, (d.width, d.tag, d.unsigned, d.stars, d.boolean),
                 [texts(b) or "0" for b in d.dims], texts(d.init), d.function,
                 info.is_typedef)
                for d in decls])


def old_fields(t):
    """((width, tag, unsigned, stars, boolean), bounds, function) of ``t``
    as the old reader held it; a counted bound reads as its number."""
    bounds = []
    while t.kind is ARRAY:
        bounds.append(str(t.count) if t.count.__class__ is int else texts(t.count))
        t = t.of
    function = t.kind is FUNCTION
    t = t.of if function else t
    stars = 0
    while t.pointer:
        stars, t = stars + 1, t.of
    assert t.of is None, "a type the old reader could not hold"
    return (t.width, t.tag, t.unsigned, stars, t.boolean), bounds, function


def new_view(toks, i, member):
    decls, j = ctype._declarations(toks, i, NEW_TYPEDEFS, member)
    return (j, [(d.name, fields, bounds, texts(d.init), function, d.typedef)
                for d in decls for fields, bounds, function in [old_fields(d.type)]])


def old_reader_holds(toks):
    """Whether no ``(*…)`` in ``toks`` is followed by ``[`` or ``(`` or
    holds a ``(``, and no pointer typedef's name is followed, past
    qualifiers, by a type keyword or tag."""
    n = len(toks)
    for j in range(n - 1):
        if toks[j].text == "(" and toks[j + 1].text == "*":
            close = tk.closing(toks, j, n)
            if close + 1 < n and toks[close + 1].text in ("[", "(") \
                    or any(t.text == "(" for t in toks[j + 1 : close]):
                return False
        if toks[j].text in POINTER_TYPEDEFS:
            k = j + 1
            while k < n and toks[k].text in tk.QUALIFIER_KEYWORDS | {"typedef"}:
                k += 1
            if k < n and toks[k].text in tk.BASE_TYPE_KEYWORDS | {"struct", "union", "enum"}:
                return False
    return True


def assert_readers_agree(source):
    toks = [t for t in tk.tokenize(source) if t.kind not in tk.TRIVIA]
    if not old_reader_holds(toks):
        return
    for member in (False, True):
        for i in range(len(toks) + 1):
            assert outcome(lambda: new_view(toks, i, member)) == \
                outcome(lambda: reference_view(toks, i, member)), (i, member)


@settings(max_examples=1500)
@given(soups)
@example("T struct u x;")
@example("T long x;")
@example("sp *q;")
@example("unsigned (*fp) = 0, q[2]")
@example("flag unsigned long b, *c[3] = 0;")
@example("typedef T struct { char c; } *P;")
def test_declaration_readers_agree_on_token_soup(source):
    assert_readers_agree(source)

