"""C types (``CType``, the one type record: a declaration, a typedef name, a
place, a cast and a pointer value each hold one), and the one reader of
declarations, casts, ``sizeof (type)``, struct members and parameters:
``parse_type_prefix`` reads the specifiers, then one recursive reader each
declarator (C11 6.7.6), deriving its type inside out from its pointers,
parenthesized declarator and ``[…]`` and ``(…)`` suffixes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import tokens as tk
from .values import Record

BASE, VOID, POINTER, ARRAY, FUNCTION = "base", "void", "pointer", "array", "function"


class CType(Record):
    """A C type (C11 6.2.5p20): a ``BASE`` of ``width`` bytes (an integer,
    ``boolean`` for ``_Bool``, or a struct or union ``tag``) or ``VOID``, or
    a ``POINTER`` to, an ``ARRAY`` of ``count`` of (a number, or its bound's
    token run while unread) or a ``FUNCTION`` returning the type ``of``,
    whose ``width`` is 8, its element's, or 1. Loads, stores, ``[]`` and
    ``->`` read slots set here: ``pointer``; ``elem``, what ``*`` and ``[]``
    reach (None but for a pointer or an array); ``narrow``, the sign a store
    wraps to (None but for an integer narrower than int); ``converts``, for
    a narrow or unsigned integer; ``fixed``, every array bound counted."""

    __slots__ = ("kind", "of", "count", "width", "tag", "unsigned", "boolean",
                 "pointer", "elem", "narrow", "converts", "fixed")

    def __init__(self, width: int = 4, tag: str | None = None, unsigned: bool = False,
                 boolean: bool = False, kind: str = BASE, of: CType | None = None,
                 count=None):
        if of is not None:
            width = 8 if kind is POINTER else of.width if kind is ARRAY else 1
        self.kind, self.of, self.count = kind, of, count
        self.width, self.tag, self.unsigned, self.boolean = width, tag, unsigned, boolean
        self.pointer = kind is POINTER
        self.elem = of if kind is POINTER or kind is ARRAY else None
        self.narrow = None if width >= 4 or tag or kind is not BASE else not unsigned
        self.converts = self.narrow is not None or unsigned and not tag and kind is BASE
        self.fixed = of is None or of.fixed and count.__class__ is not tuple


INT = CType()


def _type_names() -> dict[str, CType]:
    """The type names a module may use without a typedef: the kernel's,
    ``<stdint.h>``'s and a few more, each with the type it stands for."""
    names = {"bool": CType(1, unsigned=True, boolean=True)}
    for width, signed, unsigned in (
        (1, "s8 int8_t", "u8 uint8_t uchar"),
        (2, "s16 int16_t", "u16 uint16_t ushort"),
        (4, "s32 int32_t", "u32 uint32_t uint"),
        (8, "s64 int64_t ssize_t intptr_t ptrdiff_t", "u64 uint64_t size_t uintptr_t ulong"),
    ):
        names.update(dict.fromkeys(signed.split(), CType(width)))
        names.update(dict.fromkeys(unsigned.split(), CType(width, unsigned=True)))
    return names


TYPE_NAMES = _type_names()


@dataclass
class Decl:
    """One declarator read with its type: what a declaration says a name is."""

    name: str | None   # None for an abstract declarator, as in a cast
    type: CType        # a function's is a declarator of function type
    init: list | None  # the initializer's token run
    typedef: bool      # declared with ``typedef``: a type name
    file_id: str = "<none>"  # where a file-scope declaration is, for messages
    line: int = 0
    # (macro, line) left unexpanded in a global's item, for its first use
    unexpanded: list | tuple = field(default=(), compare=False, repr=False)


def _punct_at(toks, i, text) -> bool:
    return i < len(toks) and toks[i].text == text and toks[i].kind == tk.PUNCT


def _starts_declaration(t, typedefs) -> bool:
    if t.kind == tk.KEYWORD:
        return t.text in tk.DECL_KEYWORDS
    return t.kind == tk.IDENTIFIER and (t.text in TYPE_NAMES or t.text in typedefs)


def parse_int_literal(text: str) -> tuple[int, int, bool]:
    """(value, width in bits, signed) for a C integer literal, in the first
    type that holds the value (C11 6.4.4.1p5): int, unsigned int (not for a
    decimal without ``u``), long, unsigned long; ``u`` skips the signed ones
    and ``l`` the 32-bit ones."""
    if text.isdigit() and (text[0] != "0" or len(text) == 1) and len(text) < 10:
        return int(text), 32, True  # decimal, below 2**31
    s = text.lower().rstrip("ul")
    suffix = text[len(s):].lower()
    base = 16 if s[:2] == "0x" else 2 if s[:2] == "0b" else \
        8 if s[:1] == "0" and s.isdigit() else 10
    value, unsigned = int(s, base), "u" in suffix
    if "l" not in suffix:
        if value < (1 << 31) and not unsigned:
            return value, 32, True
        if value < (1 << 32) and (unsigned or base != 10):
            return value, 32, False
    if value < (1 << 63) and not unsigned:
        return value, 64, True
    return value, 64, False


def count_of(run):
    """The count of an array bound, given as its token run: the value of a
    lone integer literal, 0 for none (a flexible array member's, C11
    6.7.2.1p18), else the run itself, as a tuple."""
    if not run:
        return 0
    if len(run) == 1 and run[0].kind == tk.NUMBER:
        try:
            return parse_int_literal(run[0].text)[0]
        except ValueError:
            pass
    return tuple(run)


def parse_type_prefix(toks, i, typedefs) -> tuple[int, CType | None, bool]:
    """(index after, type or None, whether ``typedef`` is one) of the
    specifiers at ``toks[i]``. A typedef or built-in name gives its whole
    type; a base type keyword or ``struct tag`` after one of a base type
    replaces that part of it (after one of a derived type, which C forbids,
    it changes nothing). A ``struct`` or ``union`` body with no tag is
    tagged with its tokens' texts."""
    typedef = False
    base = None  # the type a name gives; INT once a keyword starts the type
    tag = None   # the tag a ``struct``, ``union`` or ``enum`` names
    words: list[str] = []
    n = len(toks)
    while i < n:
        t = toks[i]
        keyword = t.kind == tk.KEYWORD
        if keyword and t.text in ("struct", "union", "enum"):
            base = base or INT
            i += 1
            if i < n and toks[i].kind == tk.IDENTIFIER:
                tag = toks[i].text
                i += 1
            if i < n and tk.is_punct(toks[i], "{"):
                j = tk.closing(toks, i, n)
                if tag is None and base.tag is None and t.text != "enum":
                    tag = " ".join(x.text for x in toks[i + 1 : j])
                i = j + 1
            continue
        if keyword and t.text in tk.BASE_TYPE_KEYWORDS:
            base = base or INT
            words.append(t.text)
        elif keyword and t.text == "typedef":
            typedef = True
        elif t.kind == tk.IDENTIFIER and base is None and _starts_declaration(t, typedefs):
            base = typedefs.get(t.text) or TYPE_NAMES[t.text]
        elif not (keyword and t.text in tk.QUALIFIER_KEYWORDS):
            break
        i += 1
    if base is None or not words and tag is None or base.of is not None:
        return i, base, typedef
    width, unsigned, boolean, kind = base.width, base.unsigned, base.boolean, base.kind
    if words:
        width = (1 if "char" in words or "void" in words or "_Bool" in words else
                 2 if "short" in words else 8 if "long" in words or "double" in words else 4)
        boolean = "_Bool" in words
        unsigned = unsigned or "unsigned" in words or boolean
        kind = VOID if "void" in words else BASE
    return i, CType(width, tag or base.tag, unsigned, boolean, kind), typedef


def _declarations(toks, i, typedefs, member=False) -> tuple[list[Decl], int]:
    """The declarators of the declaration at ``toks[i]`` (at top-level
    commas; a function's ends it unless a comma follows), and the index
    after the last one. With ``member`` (struct members and parameters), an
    unknown identifier in type position is a 4-byte type. A type that is
    not read gives no declarators."""
    j, base, typedef = parse_type_prefix(toks, i, typedefs)
    n = len(toks)
    if member and base is None and j < n and toks[j].kind == tk.IDENTIFIER:
        base = INT
        j += 1
    decls: list[Decl] = []
    if base is None:
        return decls, j
    while True:
        name, t, j = _declarator(toks, j, base)
        init = None
        if t.kind is not FUNCTION and _punct_at(toks, j, "="):
            k = tk.top_level(toks, j + 1, n, (",", ";"))
            init, j = toks[j + 1 : k], k
        decls.append(Decl(name and name.text, t, init, typedef))
        if not _punct_at(toks, j, ","):
            return decls, j
        j += 1


def _declarator(toks, j, t: CType):
    """(name token or None, type, index after) of the declarator at
    ``toks[j]`` over ``t``: its pointers (skipping qualifiers and an
    attribute macro before a ``*``, ``__iomem *p``), then a parameter list
    right after its name or ``(*…)``, or each ``[…]``, the first outermost,
    and an attribute macro with its group after a name (``__aligned(4)``).
    A ``(*…)`` is read last, over the type the suffixes after it give."""
    n = len(toks)
    while j < n:
        tok = toks[j]
        if tok.kind == tk.PUNCT and tok.text == "*":
            t = CType(kind=POINTER, of=t)
        elif not (tok.kind == tk.KEYWORD and tok.text in tk.QUALIFIER_KEYWORDS
                  or tok.kind == tk.IDENTIFIER and _punct_at(toks, j + 1, "*")):
            break
        j += 1
    inner = name = None
    if _punct_at(toks, j, "(") and _punct_at(toks, j + 1, "*"):
        inner, j = j + 1, tk.closing(toks, j, n) + 1
    elif j < n and toks[j].kind == tk.IDENTIFIER:
        name, j = toks[j], j + 1
    if (inner or name) and _punct_at(toks, j, "("):
        t, j = CType(kind=FUNCTION, of=t), tk.closing(toks, j, n) + 1
    else:
        counts = []
        while j < n:
            if _punct_at(toks, j, "["):
                k = tk.closing(toks, j, n)
                counts.append(count_of(toks[j + 1 : k]))
                j = k + 1
            elif name and toks[j].kind == tk.IDENTIFIER:
                j += 1
                if _punct_at(toks, j, "("):
                    j = tk.closing(toks, j, n) + 1
            else:
                break
        for count in reversed(counts):
            t = CType(kind=ARRAY, of=t, count=count)
    if inner:
        name, t, _ = _declarator(toks, inner, t)
    return name, t, j
