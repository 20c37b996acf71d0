"""Token-level handling of simple object-like and function-like ``#define``s.

Preprocessor lines are ordinary token runs to the tokenizer; this module
collects the definitions and substitutes them textually just before an
expression or statement is evaluated. Conditional inclusion, stringizing and
token pasting are out of scope; a macro that cannot be expanded is left in
place and reported through the ``on_unexpanded`` callback.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tokens as tk

MAX_EXPANSION_DEPTH = 16


@dataclass
class MacroDef:
    name: str
    params: tuple[str, ...] | None  # None for object-like macros
    body: list[tk.Token]            # trivia stripped
    file_id: str
    line: int


def scan_defines(toks: tk.FileTokens, file_id: str) -> dict[str, MacroDef]:
    """Collect every ``#define`` of a file, each read within its own line."""
    out: dict[str, MacroDef] = {}
    for i, end in toks.directives.items():
        j = tk.skip_trivia(toks, i + 1, end)
        if j >= end or toks[j].text != "define":
            continue
        j = tk.skip_trivia(toks, j + 1, end)
        if j >= end or toks[j].kind != tk.IDENTIFIER:
            continue
        params, k = None, j + 1
        # A parameter list only counts when the paren is glued to the name,
        # per the C preprocessor.
        if k < end and tk.is_punct(toks[k], "("):
            close = next((x for x in range(k, end) if toks[x].text == ")"), end)
            params = tuple(t.text for t in toks[k + 1 : close]
                           if t.kind == tk.IDENTIFIER or t.text == "...")
            k = close + 1
        body = [t for t in toks[k:end]  # a backslash is only ever a punctuator
                if t.kind not in tk.TRIVIA and t.text != "\\"]
        name = toks[j].text
        out[name] = MacroDef(name, params, body, file_id, toks[j].line)
    return out


def expand(
    toks: list[tk.Token],
    macros: dict[str, MacroDef],
    on_unexpanded=None,
    depth: int = MAX_EXPANSION_DEPTH,
    hidden: frozenset = frozenset(),
) -> list[tk.Token]:
    """Expand macro uses in ``toks``, returning a new token list.

    Expanded tokens are marked synthetic and carry the use site's position so
    diagnostics keep pointing at the line being executed. ``hidden`` names
    the macros being expanded around ``toks``, which stay as they are there
    (no self-recursion).
    """
    out: list[tk.Token] = []
    n = len(toks)
    i = 0
    while i < n:
        t = toks[i]
        if t.kind == tk.IDENTIFIER and t.text in macros and t.text not in hidden:
            m = macros[t.text]
            if depth <= 0:
                if on_unexpanded:
                    on_unexpanded(m.name, t.line)
                out.append(t)
                i += 1
                continue
            inner = hidden | {t.text}
            if m.params is None:
                if _has_paste(m.body):
                    if on_unexpanded:
                        on_unexpanded(m.name, t.line)
                    out.append(t)
                    i += 1
                    continue
                rep = [tk.synthetic_copy(b, t) for b in m.body]
                out.extend(expand(rep, macros, on_unexpanded, depth - 1, inner))
                i += 1
                continue
            j = tk.skip_trivia(toks, i + 1, n)
            if j >= n or toks[j].text != "(":
                out.append(t)  # function-like name without arguments: plain identifier
                i += 1
                continue
            b = tk.closing(toks, j, n)
            args = [[x for x in toks[c:d] if x.kind not in tk.TRIVIA]
                    for c, d in tk.split_top_level(toks, j + 1, b, ",")]
            if b == n or _has_paste(m.body) or (
                    len(args) != len(m.params) and "..." not in m.params):
                if on_unexpanded:
                    on_unexpanded(m.name, t.line)
                out.append(t)
                i += 1
                continue
            named = dict(zip(m.params, args))
            rep = []
            for bt in m.body:
                if bt.kind == tk.IDENTIFIER and bt.text in named:
                    rep.extend(tk.synthetic_copy(x, t) for x in named[bt.text])
                else:
                    rep.append(tk.synthetic_copy(bt, t))
            out.extend(expand(rep, macros, on_unexpanded, depth - 1, inner))
            i = b + 1
            continue
        out.append(t)
        i += 1
    return out


def _has_paste(body: list[tk.Token]) -> bool:
    return any(t.kind == tk.PUNCT and t.text in ("#", "##") for t in body)
