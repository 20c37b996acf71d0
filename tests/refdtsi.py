"""The device-tree reader as it was before the one-pass tokenizer, kept as the
reference that ``tests/test_dtsi.py`` compares ``ssi.dtsi`` with.

It differs from that reader in one place only: ``_strip_comments`` replaces
each comment with one space, as C translation phase 3 does, where the old
reader dropped it and so glued ``re/*c*/g`` into ``reg``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ssi.errors import DtsiNotFound, UnbalancedDelimiter


@dataclass
class DtNode:
    label: str | None
    name: str
    properties: dict[str, object] = field(default_factory=dict)
    children: list["DtNode"] = field(default_factory=list)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def compatibles(self) -> list[str]:
        val = self.properties.get("compatible")
        if isinstance(val, list) and all(isinstance(x, str) for x in val):
            return val
        return []


def _strip_comments(text: str) -> str:
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            out.append(text[i : min(j + 1, n)])
            i = j + 1
        elif text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            out.append(" ")
        elif text.startswith("/*", i):
            end = text.find("*/", i + 2)
            i = n if end < 0 else end + 2
            out.append(" ")
        else:
            out.append(c)
            i += 1
    return "".join(out)


_DELIMS = set("{}<>=;,:[]")


def _lex(text: str) -> list[tuple[str, object]]:
    toks: list[tuple[str, object]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            toks.append(("str", text[i + 1 : j]))
            i = j + 1
        elif c in _DELIMS:
            toks.append(("punct", c))
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in _DELIMS and text[j] != '"':
                j += 1
            toks.append(("word", text[i:j]))
            i = j
    return toks


def _cell_value(word: str) -> int | None:
    try:
        return int(word, 0)
    except ValueError:
        return None


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def at_end(self):
        return self.i >= len(self.toks)

    def peek(self, ahead=0):
        j = self.i + ahead
        return self.toks[j] if j < len(self.toks) else (None, None)

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def parse_items(self, node: DtNode, depth: int):
        while not self.at_end():
            kind, text = self.peek()
            if kind == "punct" and text == "}":
                if depth == 0:
                    self.next()  # stray close; skip tolerantly
                    continue
                return
            if kind != "word":
                self.next()
                continue
            self._parse_item(node, depth)

    def _parse_item(self, node: DtNode, depth: int):
        _, first = self.next()
        if first.startswith("/"):
            # Directives such as /dts-v1/; or /include/ "file": skip whole.
            if self.peek()[0] == "str":
                self.next()
            if self.peek() == ("punct", ";"):
                self.next()
            return
        label = None
        if self.peek() == ("punct", ":"):
            self.next()
            label = first
            kind, text = self.peek()
            if kind != "word":
                return
            _, first = self.next()
        kind, text = self.peek()
        if kind == "punct" and text == "{":
            open_i = self.i
            self.next()
            child = DtNode(label, first)
            self.parse_items(child, depth + 1)
            if self.at_end():
                raise UnbalancedDelimiter(f"unbalanced '{{' in node {first!r}")
            self.next()  # '}'
            if self.peek() == ("punct", ";"):
                self.next()
            node.children.append(child)
            return
        if kind == "punct" and text == "=":
            self.next()
            node.properties[first] = self._parse_value()
            return
        if kind == "punct" and text == ";":
            self.next()
            node.properties[first] = None  # boolean property
            return
        # Unknown construct: skip to the next ';', but never across node
        # structure.
        while not self.at_end():
            k, t = self.peek()
            if (k, t) == ("punct", ";"):
                self.next()
                return
            if k == "punct" and t in ("{", "}"):
                return
            self.next()

    def _parse_value(self):
        strings: list[str] = []
        cells: list[int] = []
        while not self.at_end():
            kind, text = self.peek()
            if kind == "punct" and text == ";":
                self.next()
                break
            if kind == "punct" and text == ",":
                self.next()
                continue
            if kind == "str":
                self.next()
                strings.append(text)
                continue
            if kind == "punct" and text == "<":
                self.next()
                while not self.at_end() and self.peek() != ("punct", ">"):
                    k, t = self.next()
                    if k == "word":
                        v = _cell_value(t)
                        if v is not None:
                            cells.append(v)
                if self.at_end():
                    raise UnbalancedDelimiter("unbalanced '<' in property value")
                self.next()  # '>'
                continue
            self.next()  # phandles, byte strings, arithmetic: skipped
        if strings:
            return strings
        return cells


def parse_dtsi(path) -> DtNode:
    """Parse a .dts/.dtsi file into a node tree rooted at a synthetic node."""
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        text = f.read()
    return parse_dtsi_text(text)


def parse_dtsi_text(text: str) -> DtNode:
    root = DtNode(None, "/")
    parser = _Parser(_lex(_strip_comments(text)))
    parser.parse_items(root, 0)
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
    root = parse_dtsi(path)
    parents: dict[int, DtNode | None] = {id(root): None}
    for node in root.walk():
        for child in node.children:
            parents[id(child)] = node
    for node in root.walk():
        if compatible in node.compatibles():
            reg = node.properties.get("reg")
            if not isinstance(reg, list) or not reg:
                continue
            parent = parents.get(id(node))
            ac = _cells_count(parent, "#address-cells", 1)
            sc = _cells_count(parent, "#size-cells", 1)
            if len(reg) < ac + sc:
                ac, sc = 1, 1
            base = _combine([c for c in reg[:ac] if isinstance(c, int)])
            size = _combine([c for c in reg[ac : ac + sc] if isinstance(c, int)])
            return base, size
    raise DtsiNotFound(f"no node with compatible {compatible!r} in {path}")


def list_compatibles(path) -> list[str]:
    """Unique compatible strings in document order (first position kept)."""
    root = parse_dtsi(path)
    out: list[str] = []
    seen = set()
    for node in root.walk():
        for c in node.compatibles():
            if c not in seen:
                seen.add(c)
                out.append(c)
    return out
