"""Reference declaration reader: five type fields copied by hand.

This is the reader ``ssi.interp`` had before a declaration held one
``memory.CType``, kept as the differential reference for it
(``tests/test_refdecl.py``). ``TypeInfo``, ``Decl``, the two name tables,
``parse_type_prefix`` and ``_declarations`` are unchanged; the helpers that
did not change are imported from ``ssi.interp``.
"""

from dataclasses import dataclass

from ssi import tokens as tk
from ssi.interp import _pointers, _punct_at

TYPE_WIDTH_BYTES = {
    "void": 1, "char": 1, "_Bool": 1, "bool": 1, "short": 2, "int": 4,
    "long": 8, "float": 4, "double": 8,
    "u8": 1, "u16": 2, "u32": 4, "u64": 8,
    "s8": 1, "s16": 2, "s32": 4, "s64": 8,
    "uint8_t": 1, "uint16_t": 2, "uint32_t": 4, "uint64_t": 8,
    "int8_t": 1, "int16_t": 2, "int32_t": 4, "int64_t": 8,
    "size_t": 8, "ssize_t": 8, "uintptr_t": 8, "intptr_t": 8, "ptrdiff_t": 8,
    "uint": 4, "ushort": 2, "uchar": 1, "ulong": 8,
}
UNSIGNED_TYPE_NAMES = frozenset(
    ["u8", "u16", "u32", "u64", "uint8_t", "uint16_t", "uint32_t", "uint64_t",
     "size_t", "uintptr_t", "uint", "ushort", "uchar", "ulong", "bool", "_Bool"]
)


@dataclass
class TypeInfo:
    width: int = 4
    tag: str | None = None
    unsigned: bool = False
    stars: int = 0  # pointer levels a typedef name carries
    boolean: bool = False  # ``_Bool``: a store holds 0 or 1
    is_typedef: bool = False
    saw_type: bool = False
    inline_body: tuple | None = None  # (start, end) within the local token list


@dataclass
class Decl:
    """One declarator read with its type: what a declaration says a name is."""

    name: str | None   # None for an abstract declarator, as in a cast
    stars: int         # pointer depth, a typedef name's own included
    tag: str | None
    width: int         # of the type the pointer levels apply to
    unsigned: bool
    dims: list         # the token run of each array bound
    init: list | None  # the initializer's token run
    function: bool     # a name followed by its parameter list
    boolean: bool = False
    file_id: str = "<none>"  # where a file-scope declaration is, for messages
    line: int = 0


def parse_type_prefix(toks, i, typedefs) -> tuple[int, TypeInfo]:
    info = TypeInfo()
    words: list[str] = []
    n = len(toks)
    while i < n:
        t = toks[i]
        if t.kind == tk.KEYWORD:
            if t.text in tk.QUALIFIER_KEYWORDS:
                i += 1
                continue
            if t.text == "typedef":
                info.is_typedef = True
                i += 1
                continue
            if t.text in ("struct", "union", "enum"):
                info.saw_type = True
                i += 1
                if i < n and toks[i].kind == tk.IDENTIFIER:
                    info.tag = toks[i].text
                    i += 1
                if i < n and tk.is_punct(toks[i], "{"):
                    j = tk.closing(toks, i, n)
                    info.inline_body = (i + 1, j)
                    i = j + 1
                continue
            if t.text in tk.BASE_TYPE_KEYWORDS:
                info.saw_type = True
                words.append(t.text)
                i += 1
                continue
            break
        if (
            t.kind == tk.IDENTIFIER
            and not words
            and info.tag is None
            and not info.saw_type
        ):
            named = typedefs.get(t.text)
            if named is not None:
                info.width, info.tag = named.width, named.tag
                info.unsigned, info.stars = named.unsigned, named.stars
                info.boolean = named.boolean
            elif t.text in TYPE_WIDTH_BYTES:
                info.width = TYPE_WIDTH_BYTES[t.text]
                info.unsigned = t.text in UNSIGNED_TYPE_NAMES
                info.boolean = t.text == "bool"
            else:
                break
            info.saw_type = True
            i += 1
            continue
        break
    if words:
        if "char" in words or "void" in words or "_Bool" in words:
            info.width = 1
        elif "short" in words:
            info.width = 2
        elif "long" in words or "double" in words:
            info.width = 8
        else:
            info.width = 4
        info.boolean = "_Bool" in words
        if "unsigned" in words or info.boolean:
            info.unsigned = True
    return i, info


def _declarations(toks, i, typedefs, member=False) -> tuple[TypeInfo, list[Decl], int]:
    """The declaration at ``toks[i]``: its type, its declarators, and the
    index after the last one.

    Declarators follow each other at top-level commas. ``(*name)(...)`` is a
    pointer named ``name``; a name followed by ``(`` is a function, and the
    declaration ends after its parameter list unless a comma follows. With
    ``member`` (struct members and parameters), an unknown identifier in
    type position is a 4-byte type. A type that is not read gives no
    declarators.
    """
    j, info = parse_type_prefix(toks, i, typedefs)
    n = len(toks)
    if member and not info.saw_type and j < n and toks[j].kind == tk.IDENTIFIER:
        info.saw_type = True
        j += 1
    decls: list[Decl] = []
    if not info.saw_type:
        return info, decls, j
    while True:
        stars, j = _pointers(toks, j, n)
        close = None
        if _punct_at(toks, j, "(") and _punct_at(toks, j + 1, "*"):
            close = tk.closing(toks, j, n)
            inner, j = _pointers(toks, j + 1, close)
            stars += inner
        name = toks[j] if j < n and toks[j].kind == tk.IDENTIFIER else None
        j += name is not None
        function = close is None and name is not None and _punct_at(toks, j, "(")
        dims = []
        while not function and j < n:
            if _punct_at(toks, j, "["):
                k = tk.closing(toks, j, n)
                dims.append(toks[j + 1 : k])
                j = k + 1
            elif name is not None and toks[j].kind == tk.IDENTIFIER:
                j += 1  # an attribute macro after the name: ``__aligned(4)``
                if _punct_at(toks, j, "("):
                    j = tk.closing(toks, j, n) + 1
            else:
                break
        if close is not None:  # past ``)``, its parameters and the pointee's bounds
            j = close + 1
            while j < n and toks[j].kind == tk.PUNCT and toks[j].text in ("(", "["):
                j = tk.closing(toks, j, n) + 1
        elif function:
            j = tk.closing(toks, j, n) + 1
        init = None
        if not function and _punct_at(toks, j, "="):
            k = tk.top_level(toks, j + 1, n, (",", ";"))
            init, j = toks[j + 1 : k], k
        decls.append(Decl(name and name.text, info.stars + stars, info.tag, info.width,
                          info.unsigned, dims, init, function, info.boolean))
        if not _punct_at(toks, j, ","):
            return info, decls, j
        j += 1
