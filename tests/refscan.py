"""Reference corpus readers: each one walks a whole file's tokens.

The readers from ``scan_defines`` to ``scrape_module_info`` are the ones
``ssi`` had before the per-file index
(``tokens.FileTokens``), kept as the differential reference for the
readers that answer from it (``tests/test_refscan.py``). The bodies are
unchanged but for these things: methods of ``Interp`` became functions of
the interpreter; each reader walks the reference tokens of a file's source
(``reftokens.tokenize``) without trivia and directives
(``_without_directives``), as a corpus file's list holds them, in a plain
list, so every ``tk.closing`` call in it scans (each source text is
tokenized once, and each reader gets its own copy of the list:
``_tokens``); ``scan_defines`` reads the per-character tokens of one line
(``reftokens.plain_tokenize``) and gives each macro as a ``(name, params,
body, file_id, line)`` tuple; and
``find_function_definition`` reads past a parenthesized declarator's end
with the rule it imports from ``ssi.islands`` (``_declarator_end``). They
find a definition, a struct body or a ``MODULE_*`` string at any depth.

The readers from ``file_items`` on are a reference of the item rule that
``ssi`` now reads file scope by (``islands.SourceFile``), which finds them
only in a file's top-level items.
"""

from functools import lru_cache

import reftokens
from ssi import macros as mc
from ssi import tokens as tk
from ssi.ctype import FUNCTION, CType, _declarations, _punct_at, _starts_declaration, count_of
from ssi.islands import FunctionDefNode, Hole, _declarator_end

_MODULE_FIELDS = ("MODULE_DESCRIPTION", "MODULE_AUTHOR", "MODULE_LICENSE")


def _without_directives(toks):
    """Non-trivia tokens with preprocessor lines removed."""
    return [t for t in toks if t.kind not in tk.TRIVIA and t.kind != tk.DIRECTIVE]


@lru_cache(maxsize=64)
def _tokenized(source):
    return tuple(_without_directives(reftokens.tokenize(source)))


def _tokens(source):
    """The reference tokens of ``source`` but for trivia and directives: a
    fresh list over the one tokenization of that text."""
    return list(_tokenized(source))


def scan_defines(toks, file_id):
    """Collect every ``#define`` in a stream of per-character tokens."""
    out = {}
    n = len(toks)
    i = 0
    while i < n:
        t = toks[i]
        if t.kind == tk.PUNCT and t.text == "#" and reftokens.at_line_start(toks, i):
            j = reftokens.skip_trivia(toks, i + 1, n)
            if j < n and toks[j].text == "define":
                j = reftokens.skip_trivia(toks, j + 1, n)
                if j < n and toks[j].kind == tk.IDENTIFIER:
                    name = toks[j].text
                    line = toks[j].line
                    params = None
                    k = j + 1
                    # A parameter list only counts when the paren is glued
                    # to the name, per the C preprocessor.
                    if k < n and tk.is_punct(toks[k], "("):
                        params, k = _scan_params(toks, k)
                    end = reftokens.line_end(toks, k, n)
                    body = [t for t in toks[k:end]  # a backslash is only ever a punctuator
                            if t.kind not in tk.TRIVIA and t.text != "\\"]
                    out[name] = (name, params, body, file_id, line)
                    i = end
                    continue
        i += 1
    return out


def _scan_params(toks, k):
    params = []
    n = len(toks)
    k += 1
    while k < n and toks[k].text != ")":
        if toks[k].kind == tk.IDENTIFIER:
            params.append(toks[k].text)
        elif toks[k].text == "...":
            params.append("...")
        k += 1
    return tuple(params), k + 1


def find_function_definition(corpus, name):
    """Scan for ``name`` followed by a balanced paren span followed by ``{``.

    Only token-level scanning happens here; the parameter list and body stay
    holes until executed. Returns the first match in file order, or None.
    """
    if name in corpus.macros:
        return None
    for file_id in corpus.files:
        toks = _tokens(corpus.source(file_id))
        n = len(toks)
        for i, t in enumerate(toks):
            if t.kind != tk.IDENTIFIER or t.text != name:
                continue
            prev = i - 1
            while prev >= 0 and toks[prev].kind in tk.TRIVIA:
                prev -= 1
            if prev >= 0 and toks[prev].kind == tk.PUNCT and toks[prev].text in (".", "->", "#"):
                continue
            j = reftokens.skip_trivia(toks, i + 1, n)
            if j >= n or not tk.is_punct(toks[j], "(") or (close := tk.closing(toks, j, n)) == n:
                continue
            k = reftokens.skip_trivia(toks, _declarator_end(toks, i, close + 1), n)
            if k >= n or not tk.is_punct(toks[k], "{") or (bend := tk.closing(toks, k, n)) == n:
                continue
            return FunctionDefNode(
                file_id, t.line, i, bend + 1,
                name=name,
                params=Hole(file_id, j + 1, close),
                body=Hole(file_id, k + 1, bend),
            )
    return None


def layout_from_corpus(interp, tag):
    corpus = interp.s.corpus
    for fid in corpus.files:
        toks = _tokens(corpus.source(fid))
        n = len(toks)
        for i, t in enumerate(toks):
            if t.kind != tk.KEYWORD or t.text not in ("struct", "union"):
                continue
            j = reftokens.skip_trivia(toks, i + 1, n)
            if j >= n or toks[j].kind != tk.IDENTIFIER or toks[j].text != tag:
                continue
            k = reftokens.skip_trivia(toks, j + 1, n)
            if not _punct_at(toks, k, "{") or (end := tk.closing(toks, k, n)) == n:
                continue
            body = [x for x in interp._expand(toks[k + 1 : end])
                    if x.kind not in tk.TRIVIA]
            return interp._parse_struct_body(body, fid)
    return None


def scan_corpus_names(interp):
    """Token-level pass over the corpus for file-scope typedefs and
    variable declarations, into ``interp.s.typedefs`` and
    ``interp.s.global_decls``."""
    s = interp.s
    macros = s.corpus.macros
    for fid in s.corpus.files:
        toks = _tokens(s.corpus.source(fid))
        depth = 0
        boundary = True
        i = 0
        n = len(toks)
        while i < n:
            t = toks[i]
            if t.kind == tk.PUNCT:
                if t.text == "{" and depth == 0:
                    i = tk.closing(toks, i, n) + 1
                    boundary = True
                    continue
                if t.text in "([{":
                    depth += 1
                    boundary = False
                elif t.text in ")]}":
                    depth = max(0, depth - 1)
                    boundary = t.text == "}" and depth == 0
                elif t.text == ";":
                    boundary = depth == 0
                else:
                    boundary = False
                i += 1
                continue
            if depth == 0 and boundary:
                macro = macros.get(t.text)
                if macro is not None and macro.params is None:
                    end = tk.top_level(toks, i, n, (";", "{"))
                    _record_global_decl(interp, mc.expand(toks[i:end], macros), 0, fid)
                    i = end
                    continue
                if _starts_declaration(t, s.typedefs):
                    i = max(_record_global_decl(interp, toks, i, fid), i + 1)
                    continue
            boundary = False
            i += 1


def _record_global_decl(interp, toks, i, file_id, expand_bounds=True):
    """Record the declarators at ``toks[i]``; with ``expand_bounds``, each
    array bound still a token run is read macro-expanded (``_expanded``)."""
    decls, j = _declarations(toks, i, interp.s.typedefs)
    for decl in decls:
        if decl.name is None or decl.type.kind is FUNCTION and not decl.typedef:
            continue
        if expand_bounds:
            decl.type = _expanded(interp, decl.type)
        decl.file_id, decl.line = file_id, toks[i].line
        if decl.typedef:
            interp._define_typedef(decl)
        else:
            interp.s.global_decls.setdefault(decl.name, decl)
    return j


def _expanded(interp, t):
    """``t`` with each array bound that is still a token run read
    macro-expanded, as one in the corpus as written is."""
    if t.fixed:
        return t
    count = t.count if t.count.__class__ is not tuple else count_of(interp._expand(t.count))
    return CType(kind=t.kind, of=_expanded(interp, t.of), count=count)


def scrape_module_info(corpus):
    """Collect MODULE_DESCRIPTION/MODULE_AUTHOR/MODULE_LICENSE strings at
    token level; the macros themselves are never executed."""
    found = {k: [] for k in _MODULE_FIELDS}
    for fid in corpus.files:
        toks = _tokens(corpus.source(fid))
        n = len(toks)
        for i, t in enumerate(toks):
            if t.kind != tk.IDENTIFIER or t.text not in _MODULE_FIELDS:
                continue
            j = reftokens.skip_trivia(toks, i + 1, n)
            if j >= n or toks[j].text != "(":
                continue
            j = reftokens.skip_trivia(toks, j + 1, n)
            if j < n and toks[j].kind == tk.STRING and len(toks[j].text) >= 2:
                found[t.text].append(toks[j].text[1:-1])
    return found


# The item rule: each file is split into top-level items, and every
# file-scope answer comes from them. A plain walk over the reference tokens,
# in which a bracket's closer is found by scanning (``tk.closing`` over a
# plain list).

_TAGGED = ("struct", "union", "enum")


@lru_cache(maxsize=64)
def file_items(source):
    """``(start, head end, end, top)`` of each top-level item of ``source``'s
    reference tokens: an item ends after a ``;`` or a ``}`` at its top
    level, or with a body, a ``{`` that follows none of ``=``, ``,``,
    ``struct``, ``union``, ``enum`` and such a keyword's tag, and then its
    head ends at the ``{``. A bracket that never closes is passed over alone,
    any other to its closer; ``top`` lists the index of each code token so
    passed (a closer for a bracket pair), which is at the item's top level."""
    toks = _tokens(source)
    n = len(toks)
    out = []
    c = 0
    while c < n:
        start, top, end, head = c, [], n, None
        while c < n:
            k = c
            t = toks[k]
            c += 1
            if t.kind == tk.PUNCT and t.text in (";", "}"):
                end = k + 1
                break
            if t.kind == tk.PUNCT and t.text in ("(", "[", "{"):
                close = tk.closing(toks, k, n)
                if close < n:
                    c = close + 1
                    if t.text == "{" and not _no_body([toks[j] for j in top]):
                        head, end = k, close + 1
                        break
                    k = close
            top.append(k)
        out.append((start, end if head is None else head, end, tuple(top)))
    return tuple(out)


def _no_body(seen):
    if seen and seen[-1].text in ("=", ",") + _TAGGED:
        return True
    return len(seen) > 1 and seen[-1].kind == tk.IDENTIFIER and seen[-2].text in _TAGGED


def _item_definition(toks, file_id, start, head, end):
    n = len(toks)
    if head == end:
        return None
    for i in range(start, head):
        t = toks[i]
        if t.kind != tk.IDENTIFIER or not _punct_at(toks, i + 1, "("):
            continue
        if i and toks[i - 1].kind == tk.PUNCT and toks[i - 1].text in (".", "->", "#"):
            continue
        close = tk.closing(toks, i + 1, n)
        if close < head and _declarator_end(toks, i, close + 1) == head:
            return FunctionDefNode(file_id, t.line, i, end, name=t.text,
                                   params=Hole(file_id, i + 2, close),
                                   body=Hole(file_id, head + 1, end - 1))
    return None


def item_function(corpus, name):
    """The function of the first item, in file order, that defines ``name``."""
    if name in corpus.macros:
        return None
    for fid in corpus.files:
        source = corpus.source(fid)
        toks = _tokens(source)
        for start, head, end, _ in file_items(source):
            fdef = _item_definition(toks, fid, start, head, end)
            if fdef is not None and fdef.name == name:
                return fdef
    return None


def item_layout(interp, tag):
    """The layout of the first ``struct tag {…}`` or ``union tag {…}`` in
    an item's head, in file order."""
    corpus = interp.s.corpus
    for fid in corpus.files:
        source = corpus.source(fid)
        toks = _tokens(source)
        n = len(toks)
        for start, head, _, _ in file_items(source):
            for k in range(start, head - 2):
                if toks[k].kind == tk.KEYWORD and toks[k].text in ("struct", "union") \
                        and toks[k + 1].kind == tk.IDENTIFIER and toks[k + 1].text == tag \
                        and _punct_at(toks, k + 2, "{") \
                        and (close := tk.closing(toks, k + 2, n)) < n:
                    return interp._parse_struct_body(interp._expand(toks[k + 3 : close]), fid)
    return None


def item_names(interp):
    """Each item read expanded, into ``interp.s.typedefs`` and
    ``interp.s.global_decls`` if it then starts a declaration; a
    definition's head declares nothing."""
    s = interp.s
    for fid in s.corpus.files:
        source = s.corpus.source(fid)
        toks = _tokens(source)
        for start, head, end, _ in file_items(source):
            fdef = _item_definition(toks, fid, start, head, end)
            if fdef is not None:
                continue
            item = mc.expand(toks[start:end], s.corpus.macros)
            if item and _starts_declaration(item[0], s.typedefs):
                _record_global_decl(interp, item, 0, fid, expand_bounds=False)


def item_module_info(corpus):
    """The string of each ``MODULE_…("…"`` at an item's top level, by field."""
    found = {k: [] for k in _MODULE_FIELDS}
    for fid in corpus.files:
        source = corpus.source(fid)
        toks = _tokens(source)
        n = len(toks)
        for item in file_items(source):
            for k in item[3]:
                t = toks[k]
                if t.text in found and k + 2 < n and toks[k + 1].text == "(" \
                        and toks[k + 2].kind == tk.STRING and len(toks[k + 2].text) >= 2:
                    found[t.text].append(toks[k + 2].text[1:-1])
    return found
