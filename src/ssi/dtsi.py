"""Minimal device-tree source reader.

Parses just enough of the DTS grammar to find a node by its ``compatible``
string and read the ``reg`` base/size cells. Unknown constructs (includes,
phandle references, directives) are skipped; only delimiter imbalance is an
error. Fragments are accepted: nodes may appear at top level without a
surrounding ``/ { ... };``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import DtsiNotFound, UnbalancedDelimiter


@dataclass
class DtNode:
    label: str | None
    name: str
    properties: dict[str, object] = field(default_factory=dict)
    children: list["DtNode"] = field(default_factory=list)
    parent: "DtNode | None" = field(default=None, repr=False, compare=False)

    def walk(self):
        """This node and every node under it, in document order, read with a
        stack of its own: a tree of any depth walks."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def compatibles(self) -> list[str]:
        val = self.properties.get("compatible")
        if isinstance(val, list) and all(isinstance(x, str) for x in val):
            return val
        return []


_NOT_WORD = '"{}<>=;,:[]'  # the first character of a string or a delimiter

# One token per match; whitespace and comments match with both groups empty.
# A comment separates tokens, as one space would (C11 5.1.1.2 phase 3).
_TOKEN = re.compile(r"""
    \s+ | //[^\n]* | /\*[\s\S]*?(?:\*/|\Z)
  | ("[^"\\]*(?:\\[\s\S]?[^"\\]*)*)"?             # a string, unterminated too
  | ([{}<>=;,:\[\]] | (?:[^\s{}<>=;,:\[\]"/] | /(?![/*]))+)  # a delimiter or a word
""", re.VERBOSE)


def _tokens(text: str) -> list[str]:
    """The tokens of ``text``. A string token is its opening quote and its
    contents, escapes as written, without the closing quote; a delimiter is
    its one character; anything else is a word."""
    return [s or t for s, t in _TOKEN.findall(text) if s or t]


def _value(toks: list[str], i: int) -> tuple[list, int]:
    """The value of the property whose ``=`` precedes ``toks[i]``, and the
    index after its ``;``: its strings if it has any, else its ``<cell>``
    numbers. Phandles, byte strings and arithmetic are skipped."""
    strings: list[str] = []
    cells: list[int] = []
    n = len(toks)
    while i < n:
        tok = toks[i]
        i += 1
        if tok == ";":
            break
        if tok[0] == '"':
            strings.append(tok[1:])
        elif tok == "<":
            while i < n and toks[i] != ">":
                try:
                    cells.append(int(toks[i], 0))
                except ValueError:
                    pass
                i += 1
            if i == n:
                raise UnbalancedDelimiter("unbalanced '<' in property value")
            i += 1
    return strings or cells, i


def parse_dtsi(path) -> DtNode:
    """Parse a .dts/.dtsi file into a node tree rooted at a synthetic node."""
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        text = f.read()
    return parse_dtsi_text(text)


def parse_dtsi_text(text: str) -> DtNode:
    """Parse DTS text as ``parse_dtsi`` does. One loop reads the items of
    every node, with the open nodes on a stack, so nesting depth is not
    bounded by Python's recursion limit; each node's ``parent`` is the node
    open around it."""
    root = DtNode(None, "/")
    open_nodes = [root]
    toks = _tokens(text)
    i, n = 0, len(toks)
    while i < n:
        first = toks[i]
        i += 1
        if first[0] in _NOT_WORD or first[0] == "/":
            # A '}' closes the innermost open node (one at top level is
            # stray). Directives such as /dts-v1/ and /include/, and any
            # other delimiter or string out of place, are skipped.
            if first == "}" and len(open_nodes) > 1:
                open_nodes.pop()
            continue
        label = None
        if i < n and toks[i] == ":":
            label = first
            i += 1
            if i == n or toks[i][0] in _NOT_WORD:
                continue
            first = toks[i]
            i += 1
        after = toks[i] if i < n else None
        if after == "{":
            child = DtNode(label, first, parent=open_nodes[-1])
            open_nodes[-1].children.append(child)
            open_nodes.append(child)
            i += 1
        elif after == "=":
            open_nodes[-1].properties[first], i = _value(toks, i + 1)
        elif after == ";":
            open_nodes[-1].properties[first] = None  # boolean property
            i += 1
        else:
            # Unknown construct: skip through the next ';', but never
            # across node structure.
            while i < n and toks[i] != "{" and toks[i] != "}":
                i += 1
                if toks[i - 1] == ";":
                    break
    if len(open_nodes) > 1:
        raise UnbalancedDelimiter(f"unbalanced '{{' in node {open_nodes[-1].name!r}")
    return root


def _cells_count(parent: DtNode | None, prop: str, default: int = 1) -> int:
    if parent is not None:
        val = parent.properties.get(prop)
        if isinstance(val, list) and len(val) == 1 and isinstance(val[0], int):
            return val[0]
    return default


def _combine(cells: list[int]) -> int:
    out = 0
    for c in cells:
        out = (out << 32) | c
    return out


def dtsi_find(path, compatible: str) -> tuple[int, int]:
    """(base address, size) of the first ``reg`` pair of the first node whose
    compatible list contains ``compatible``."""
    for node in parse_dtsi(path).walk():
        if compatible in node.compatibles():
            reg = node.properties.get("reg")
            if not isinstance(reg, list) or not reg:
                continue
            ac = _cells_count(node.parent, "#address-cells", 1)
            sc = _cells_count(node.parent, "#size-cells", 1)
            if len(reg) < ac + sc:
                ac, sc = 1, 1
            base = _combine([c for c in reg[:ac] if isinstance(c, int)])
            size = _combine([c for c in reg[ac : ac + sc] if isinstance(c, int)])
            return base, size
    raise DtsiNotFound(f"no node with compatible {compatible!r} in {path}")


def list_compatibles(path) -> list[str]:
    """Unique compatible strings in document order (first position kept)."""
    return list(dict.fromkeys(c for node in parse_dtsi(path).walk() for c in node.compatibles()))
