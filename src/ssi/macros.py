"""Token-level handling of simple object-like and function-like ``#define``s.

A preprocessor line is one ``directive`` token, kept beside a file's code
(``FileTokens.directives``). Loading a file reads each ``#define``'s name
from its token's text with one pattern; the parameters and body are
tokenized the first time ``expand`` needs them. Macros are substituted
textually just before an expression or statement is evaluated. Conditional
inclusion, stringizing and token pasting are out of scope; a macro that
cannot be expanded is left in place and reported through the
``on_unexpanded`` callback.
"""

from __future__ import annotations

import re

from . import tokens as tk

MAX_EXPANSION_DEPTH = 16

# Blanks and comments, the trivia a directive's words may be split by.
_GAP = r"(?:[ \t\r\f\v]|//[^\n]*|/\*(?>.*?\*/|.*))*+"
# ``#define``, its name, and the ``(`` glued to the name, if there is one.
_DEFINE = re.compile(
    rf"#{_GAP}define(?![A-Za-z0-9_]){_GAP}([A-Za-z_][A-Za-z0-9_]*)(\(?)", re.S)


class MacroDef:
    """One ``#define``: its name, whether a ``(`` is glued to the name
    (``function_like``), and the file and line of the name. ``params`` (None
    for an object-like macro) and ``body`` (trivia and backslashes left out)
    are tokenized from the rest of the directive the first time either is
    read."""

    __slots__ = ("name", "function_like", "file_id", "_directive", "_rest", "_params",
                 "_body")

    def __init__(self, name: str, function_like: bool, file_id: str,
                 directive: tk.Token, rest: int):
        self.name, self.function_like, self.file_id = name, function_like, file_id
        # ``rest`` indexes the directive's text just after the name.
        self._directive, self._rest, self._body = directive, rest, None

    @property
    def line(self) -> int:
        return self._directive.line + self._directive.text.count("\n", 0, self._rest)

    @property
    def params(self) -> tuple[str, ...] | None:
        if self._body is None:
            self._read()
        return self._params

    @property
    def body(self) -> list[tk.Token]:
        if self._body is None:
            self._read()
        return self._body

    def _read(self):
        d, rest = self._directive, self._rest
        text = d.text
        nl = text.rfind("\n", 0, rest)
        toks = tk.plain_tokens(text, rest, len(text), d.byte_offset, self.line,
                               nl + 1 if nl >= 0 else 1 - d.column)
        k, self._params = 0, None
        if self.function_like:  # ``toks[0]`` is the glued ``(``
            close = next((x for x in range(len(toks)) if toks[x].text == ")"), len(toks))
            self._params = tuple(t.text for t in toks[1:close]
                                 if t.kind == tk.IDENTIFIER or t.text == "...")
            k = close + 1
        self._body = [t for t in toks[k:]  # a backslash is only ever a punctuator
                      if t.kind not in tk.TRIVIA and t.text != "\\"]


def scan_defines(toks: tk.FileTokens, file_id: str) -> dict[str, MacroDef]:
    """Every ``#define`` of a file, each read within its own line, as far as
    its name."""
    out: dict[str, MacroDef] = {}
    match = _DEFINE.match
    for d in toks.directives:
        if (m := match(d.text)) and (name := m[1]) not in tk.KEYWORDS:
            out[name] = MacroDef(name, m[2] == "(", file_id, d, m.end(1))
    return out


def expand(
    toks: list[tk.Token],
    macros: dict[str, MacroDef],
    on_unexpanded=None,
    depth: int = MAX_EXPANSION_DEPTH,
    hidden: frozenset = frozenset(),
) -> list[tk.Token]:
    """Expand macro uses in ``toks``, returning a new token list, or
    ``toks`` itself when no token in it names a macro.

    Expanded tokens are marked synthetic and carry the use site's position so
    diagnostics keep pointing at the line being executed. ``hidden`` names
    the macros being expanded around ``toks``, which stay as they are there
    (no self-recursion).
    """
    if macros.keys().isdisjoint([t.text for t in toks]):
        return toks
    out: list[tk.Token] = []
    n = len(toks)
    i = 0
    while i < n:
        t = toks[i]
        if t.kind != tk.IDENTIFIER or t.text not in macros or t.text in hidden:
            out.append(t)
            i += 1
            continue
        m = macros[t.text]
        args, end = None, i + 1  # the arguments and the index after the use
        if m.function_like:
            j = i + 1
            if j >= n or toks[j].text != "(":
                out.append(t)  # function-like name without arguments: plain identifier
                i += 1
                continue
            b = tk.closing(toks, j, n)
            args = [toks[c:d] for c, d in tk.split_top_level(toks, j + 1, b, ",")]
            end = b + 1
        if depth <= 0 or end > n or _has_paste(m.body) or args is not None and (
                len(args) != len(m.params) and "..." not in m.params):
            if on_unexpanded:  # depth exhausted, unclosed, pasting or miscounted
                on_unexpanded(m.name, t.line)
            out.append(t)
            i += 1
            continue
        if args is None:
            rep = [tk.synthetic_copy(bt, t) for bt in m.body]
        else:
            named = dict(zip(m.params, args))
            rep = []
            for bt in m.body:
                if bt.kind == tk.IDENTIFIER and bt.text in named:
                    rep.extend(tk.synthetic_copy(x, t) for x in named[bt.text])
                else:
                    rep.append(tk.synthetic_copy(bt, t))
        out.extend(expand(rep, macros, on_unexpanded, depth - 1, hidden | {t.text}))
        i = end
    return out


def _has_paste(body: list[tk.Token]) -> bool:
    return any(t.kind == tk.PUNCT and t.text in ("#", "##") for t in body)
