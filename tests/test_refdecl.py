"""The declaration reader, whose types are ``memory.CType``s, against the
reader that copied five type fields by hand (``tests/refdecl.py``).

Both read the same token soups, with the same typedef names bound in each
world to the same fields. For every start index and for ``member`` both
true and false, they must read the same declarators with the same types,
stop at the same index, or raise the same exception.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

import refdecl
from ssi import interp
from ssi import tokens as tk
from ssi.memory import CType

# (width, tag, unsigned, stars, boolean) of each typedef name.
TYPEDEFS = {
    "T": (4, "s", False, 0, False),
    "sp": (4, "s", False, 1, False),
    "reg_p": (2, None, True, 1, False),
    "flag": (1, None, True, 0, True),
    "cb": (4, None, False, 1, False),
}
REF_TYPEDEFS = {name: refdecl.TypeInfo(*fields) for name, fields in TYPEDEFS.items()}
NEW_TYPEDEFS = {name: CType(w, tag, u, stars, (), b)
                for name, (w, tag, u, stars, b) in TYPEDEFS.items()}

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
    info, decls, j = refdecl._declarations(toks, i, REF_TYPEDEFS, member)
    fields = (info.width, info.tag, info.unsigned, info.stars, info.boolean)
    return (info.saw_type, fields if info.saw_type else None, info.is_typedef, j,
            [(d.name, (d.width, d.tag, d.unsigned, d.stars, d.boolean),
              [texts(b) for b in d.dims], texts(d.init), d.function) for d in decls])


def new_view(toks, i, member):
    info, decls, j = interp._declarations(toks, i, NEW_TYPEDEFS, member)
    t = info.type
    fields = t and (t.width, t.tag, t.unsigned, t.stars, t.boolean)
    assert t is None or t.dims == ()
    assert all(d.type.dims == () for d in decls)
    return (t is not None, fields, info.is_typedef, j,
            [(d.name, (d.type.width, d.type.tag, d.type.unsigned, d.type.stars,
                       d.type.boolean),
              [texts(b) for b in d.dims], texts(d.init), d.function) for d in decls])


def assert_readers_agree(source):
    toks = [t for t in tk.tokenize(source) if t.kind not in tk.TRIVIA]
    for member in (False, True):
        for i in range(len(toks) + 1):
            assert outcome(lambda: new_view(toks, i, member)) == \
                outcome(lambda: reference_view(toks, i, member)), (i, member)


@settings(max_examples=1500)
@given(soups)
@example("T struct u x;")
@example("T long x;")
@example("sp *q;")
@example("unsigned (*fp)(int)")
@example("flag unsigned long b, *c[3] = 0;")
@example("typedef T struct { char c; } *P;")
def test_declaration_readers_agree_on_token_soup(source):
    assert_readers_agree(source)

