"""Tree-walking execution engine over the semi-symbolic value model.

Statements come from the island parser and are executed directly; holes are
parsed the first time control reaches them, and the expressions and simple
statements in them are compiled into closures then and re-run after that
(``Interp.eval_tokens``). One runner executes statements: ``exec_node``
counts a step and runs the node through one table keyed by node class
(``_RUNNERS``); ``while``, ``do`` and ``for`` share one loop executor, which
counts a step per pass and one for a test that ends the loop; and a block
looks a label up only when a ``goto`` reaches it. Calls resolve, in order,
to a registered hook, an in-corpus function definition, or a symbolic fallback
that records a missing-model event and returns a fresh symbol. Fresh symbols
minted inside a modeled or unmodeled call remember that call, which is what
lets later diagnostics name the exact API function a value is waiting on.

Breakpoints fire after a statement on the breakpoint line executes; the
session then suspends just before the next statement, whose line is reported.
That way inspecting a variable assigned on the breakpoint line shows the
fresh value, and the reported line is always the next statement to run.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import macros as mc
from . import tokens as tk
from .errors import (
    EvalError,
    MaxStepsExceeded,
    SsiError,
    StoppedAtBreakpoint,
    SymbolicAddress,
    SymbolicBranch,
    UnknownCommand,
)
from .hooks import HookContext
from .islands import (
    BlockNode,
    BreakNode,
    ContinueNode,
    DeclarationNode,
    DoWhileNode,
    ExpressionStatementNode,
    ForNode,
    FunctionDefNode,
    GotoNode,
    Hole,
    IfNode,
    LabelNode,
    RawNode,
    ReturnNode,
    SwitchNode,
    WhileNode,
    parse_hole_as_block,
)
from .memory import INT, MMIO, OPAQUE, STACK, STATIC, CType, Layout
from .session import (
    ASK,
    ASSUME_FALSE,
    ASSUME_TRUE,
    Frame,
    Place,
    Session,
)
from .values import (
    Concrete,
    MissingCall,
    Residual,
    SymbolRoot,
    Value,
    make_concrete,
    to_int,
)

NEXT = "next"
BREAK = "break"
CONTINUE = "continue"
RETURN = "return"
GOTO = "goto"


@dataclass
class Control:
    kind: str
    value: Value | None = None
    label: str | None = None


_NEXT = Control(NEXT)
_BREAK = Control(BREAK)
_CONTINUE = Control(CONTINUE)


@dataclass
class CallSite:
    file: str
    line: int
    text: str     # verbatim source of the call expression when available
    compact: str  # token texts joined by single spaces
    at: tuple[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.at = (self.file, self.line)  # one tuple for every value the call mints


# --------------------------------------------------------------------- types

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
class TypeInfo:
    type: CType | None = None  # None when no type was read
    is_typedef: bool = False


@dataclass
class Decl:
    """One declarator read with its type: what a declaration says a name is."""

    name: str | None   # None for an abstract declarator, as in a cast
    type: CType        # a typedef name's pointer levels and bounds, not the declarator's
    dims: list         # the token run of each array bound
    init: list | None  # the initializer's token run
    function: bool     # a name followed by its parameter list
    file_id: str = "<none>"  # where a file-scope declaration is, for messages
    line: int = 0


def parse_type_prefix(toks, i, typedefs) -> tuple[int, TypeInfo]:
    """The type the specifiers at ``toks[i]`` name, and the index after
    them. A typedef or built-in name gives its type; a base type keyword or
    ``struct tag`` after it replaces that part of the type. A ``struct`` or
    ``union`` body with no tag is tagged with the texts of its tokens."""
    info = TypeInfo()
    base = None  # the type a name gives; INT once a keyword starts the type
    tag = None   # the tag a ``struct``, ``union`` or ``enum`` names
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
            if t.text in tk.BASE_TYPE_KEYWORDS:
                base = base or INT
                words.append(t.text)
                i += 1
                continue
            break
        if t.kind == tk.IDENTIFIER and base is None:
            base = typedefs.get(t.text) or TYPE_NAMES.get(t.text)
            if base is None:
                break
            i += 1
            continue
        break
    if base is None or not words and tag is None:
        info.type = base
        return i, info
    width, unsigned, boolean = base.width, base.unsigned, base.boolean
    if words:
        if "char" in words or "void" in words or "_Bool" in words:
            width = 1
        elif "short" in words:
            width = 2
        elif "long" in words or "double" in words:
            width = 8
        else:
            width = 4
        boolean = "_Bool" in words
        unsigned = unsigned or "unsigned" in words or boolean
    info.type = CType(width, tag or base.tag, unsigned, base.stars, (), boolean)
    return i, info


def _pointers(toks, j, limit) -> tuple[int, int]:
    """(count of ``*``, index after) for the pointer levels at ``toks[j]``,
    skipping qualifiers and an identifier that a ``*`` follows (an attribute
    macro such as ``__iomem`` in ``__iomem *p``)."""
    stars = 0
    while j < limit:
        t = toks[j]
        if t.kind == tk.PUNCT and t.text == "*":
            stars += 1
        elif not (t.kind == tk.KEYWORD and t.text in tk.QUALIFIER_KEYWORDS
                  or t.kind == tk.IDENTIFIER and j + 1 < limit
                  and tk.is_punct(toks[j + 1], "*")):
            break
        j += 1
    return stars, j


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
    if member and info.type is None and j < n and toks[j].kind == tk.IDENTIFIER:
        info.type = INT
        j += 1
    decls: list[Decl] = []
    if info.type is None:
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
        decls.append(Decl(name and name.text, info.type.derived(stars) if stars else info.type,
                          dims, init, function))
        if not _punct_at(toks, j, ","):
            return info, decls, j
        j += 1


_ASSIGN_OPS = {
    "=": None, "+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
    "&=": "&", "|=": "|", "^=": "^", "<<=": "<<", ">>=": ">>",
}

_TIERS = (
    ("||",), ("&&",), ("|",), ("^",), ("&",),
    ("==", "!="), ("<", "<=", ">", ">="),
    ("<<", ">>"), ("+", "-"), ("*", "/", "%"),
)

# Binding powers of the infix operators, loosest first: the comma, the
# assignment operators (right to left), ``?:``, then the binary tiers (left
# to right).
_COMMA, _ASSIGN, _TERNARY, _BINARY = 1, 2, 3, 4
_BINDING = {",": _COMMA, "?": _TERNARY, **dict.fromkeys(_ASSIGN_OPS, _ASSIGN),
            **{op: _BINARY + tier for tier, ops in enumerate(_TIERS) for op in ops}}

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
            "'": "'", '"': '"', "a": "\a", "b": "\b", "f": "\f", "v": "\v"}


def _punct_at(toks, i, text) -> bool:
    return i < len(toks) and toks[i].text == text and toks[i].kind == tk.PUNCT


def _steps(p) -> bool:
    """Whether ``+`` and ``-`` step through ``p``: a Place of an array, a
    pointer or a pointer step."""
    return isinstance(p, Place) and (p.step or p.type.elem is not None)


def _pin(v: Value, elem: CType) -> None:
    """Give ``v``, loaded from or stored to a pointer Place to ``elem``,
    that struct when ``v`` points at none, for a ``->`` on ``v`` as a bare
    Value (a hook's argument); a ``void *`` pins nothing."""
    if elem.tag and not (v.pointee and v.pointee.tag):
        v.pointee = elem


def _starts_declaration(t, typedefs) -> bool:
    if t.kind == tk.KEYWORD:
        return t.text in tk.DECL_KEYWORDS
    return t.kind == tk.IDENTIFIER and (t.text in TYPE_NAMES or t.text in typedefs)


def parse_int_literal(text: str) -> tuple[int, int, bool]:
    """(value, width in bits, signed) for a C integer literal."""
    if text.isdigit() and (text[0] != "0" or len(text) == 1) and len(text) < 10:
        return int(text), 32, True  # decimal, below 2**31
    s = text.lower()
    suffix = ""
    while s and s[-1] in "ul":
        suffix = s[-1] + suffix
        s = s[:-1]
    if s.startswith("0x"):
        value, decimal = int(s, 16), False
    elif s.startswith("0b"):
        value, decimal = int(s[2:], 2), False
    elif s.startswith("0") and len(s) > 1 and s.isdigit():
        value, decimal = int(s, 8), False
    else:
        value, decimal = int(s), True
    # The first type that holds the value (C11 6.4.4.1p5): int, unsigned int
    # (not for a decimal without ``u``), long, unsigned long; ``u`` skips the
    # signed ones and ``l`` the 32-bit ones.
    unsigned = "u" in suffix
    if "l" not in suffix:
        if value < (1 << 31) and not unsigned:
            return value, 32, True
        if value < (1 << 32) and (unsigned or not decimal):
            return value, 32, False
    if value < (1 << 63) and not unsigned:
        return value, 64, True
    return value, 64, False


def unescape_c(text: str) -> str:
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            if nxt == "x":
                j = i + 2
                while j < len(text) and text[j] in "0123456789abcdefABCDEF":
                    j += 1
                out.append(chr(int(text[i + 2 : j] or "0", 16) & 0xFF))
                i = j
                continue
            out.append(_ESCAPES.get(nxt, nxt))
            i += 2
            continue
        out.append(c)
        i += 1
    return "".join(out)


class Interp:
    def __init__(self, session: Session):
        self.s = session
        session.store.layout_source = self._layout_from_corpus
        self._epoch = object()  # replaced when a typedef changes; see eval_tokens
        self._returns: dict[str, CType] = {}  # function -> what its pointer result points at
        self._snippets: dict[str, tuple[Hole, dict]] = {}  # template -> hole, its {N} digits
        self._scan_corpus_names()

    def _scan_corpus_names(self):
        """Token-level pass over the corpus for file-scope typedefs and
        variable declarations. Nothing is parsed into statements; this only
        feeds the type environment, which execution-time classification and
        struct-tag lookups rely on. It reads each file's ``code``, so trivia
        and preprocessor lines are left out, and a ``{`` at file scope is
        jumped over to its matching ``}`` through that list's index, so a
        function body, garbage in it included, hides nothing after it. An
        item that starts with an object-like macro is read expanded, up to
        its ``;`` or body, since the macro may name its type."""
        s = self.s
        macros = s.corpus.macros
        for fid in s.corpus.files:
            toks = s.corpus.tokens(fid).code
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
                    if macro is not None and not macro.function_like:
                        end = tk.top_level(toks, i, n, (";", "{"))
                        self._record_global_decl(mc.expand(toks[i:end], macros), 0, fid)
                        i = end
                        continue
                    if _starts_declaration(t, s.typedefs):
                        i = max(self._record_global_decl(toks, i, fid), i + 1)
                        continue
                boundary = False
                i += 1

    def _record_global_decl(self, toks, i, file_id) -> int:
        """Try to record one file-scope declaration starting at i; returns
        the index to resume scanning from. A function that returns a
        pointer records what that points at."""
        info, decls, j = _declarations(toks, i, self.s.typedefs)
        for decl in decls:
            if decl.function and decl.type.stars and not info.is_typedef:
                self._returns.setdefault(decl.name, decl.type.elem)
            if decl.name is None or decl.function:
                continue
            decl.dims = [self._expand(bound) for bound in decl.dims]
            decl.file_id, decl.line = file_id, toks[i].line
            if info.is_typedef:
                self._define_typedef(decl)
            else:
                self.s.global_decls.setdefault(decl.name, decl)
        return j

    # ------------------------------------------------------------ utilities
    def _on_unexpanded(self, name, line):
        self.s.emit_event("unexpanded-macro", name=name, line=line)

    def _expand(self, toks):
        """``toks`` macro-expanded, without trivia."""
        return [t for t in mc.expand(toks, self.s.corpus.macros, self._on_unexpanded)
                if t.kind not in tk.TRIVIA]

    # ------------------------------------------------------------- entry API
    def run_entry(self, command: str, argv=()) -> Value:
        s = self.s
        spec = s.commands.get(command)
        if spec is None:
            raise UnknownCommand(f"unknown command: {command}")
        s.reset_for_command()
        params = {}
        for pname, idx in spec.params.items():
            if idx > len(argv):
                raise EvalError(f"{command}: missing argument {idx} ({pname})")
            try:
                params[pname] = int(str(argv[idx - 1]), 0)
            except ValueError:
                raise EvalError(f"{command}: argument {idx} ({pname}) must be an integer")
        s.command_params = params
        fdef = s.corpus.find_function(spec.entry)
        if fdef is None:
            raise UnknownCommand(f"entry function {spec.entry!r} not found in corpus")
        args = self._modeled_args(fdef)
        site = CallSite(fdef.file_id, fdef.line, f"{spec.entry}(...)",
                        f"{spec.entry} ( ... )")
        return self.call_named(spec.entry, args, site)

    def _modeled_args(self, fdef: FunctionDefNode):
        args = []
        for k, (name, ctype) in enumerate(self._params(fdef)):
            pname = name or k
            if ctype.stars:
                region = self.s.store.alloc_region(f"arg:{pname}", OPAQUE)
                v = self.s.values.addr_of(region.id, (fdef.file_id, fdef.line),
                                          desc=f"modeled argument {pname}")
            else:
                v = self.s.values.fresh_symbol(f"arg:{pname}", (fdef.file_id, fdef.line))
            args.append(v)
        return args

    # ----------------------------------------------------------------- calls
    def call_named(self, name: str, args, site: CallSite) -> Value:
        s = self.s
        s.emit_event("call", callee=name, call_text=site.compact,
                     file=site.file, line=site.line,
                     args=tuple(a.id for a in args))
        spec = s.trace_specs.get(name)
        if spec is not None:
            self._fire_trace(spec, site, args)
        hook = s.hooks.get(name)
        if hook is not None:
            s.emit_event("hook", name=name, line=site.line)
            ctx = HookContext(s, self, list(args), site)
            outer = s.values.blame  # what the model mints is blamed on this call
            s.values.blame = MissingCall(name, site.compact, site.file, site.line)
            try:
                result = hook.fn(ctx)
            finally:
                s.values.blame = outer
            if isinstance(result, Value):
                return result
            return s.values.concrete(32, 0, site.at,
                                     desc=f"hook {name} result")
        fdef = s.corpus.find_function(name)
        if fdef is not None:
            return self.call_function_def(fdef, args, site)
        # Unmodeled, not in corpus: symbolic fallback. Pointer arguments may
        # have been written by the real function, so remember which call is
        # responsible for anything later read out of those regions untouched.
        s.emit_event("missing-model", callee=name, call_text=site.compact,
                     file=site.file, line=site.line)
        missing = MissingCall(name, site.compact, site.file, site.line)
        for a in args:
            r = s.values.resolve(a)
            if isinstance(r, Residual) and r.pointer is not None:
                s.store.taints[r.pointer[0]] = missing
        return s.values.fresh_symbol(f"ret:{name}@{site.line}", site.at, missing)

    def _params(self, fdef: FunctionDefNode) -> list[tuple[str | None, CType]]:
        """The (name, type) of each parameter of ``fdef`` in order,
        macro-expanded and read once per typedef epoch (see ``eval_tokens``).
        An unnamed one keeps its place with name None; ``T a[]``, as an array
        typedef's, is a pointer; ``(void)`` and ``...`` bind nothing."""
        hole = fdef.params
        if hole.compiled is None or hole.compiled[0] is not self._epoch:
            raw = self.s.corpus.tokens(hole.file_id)[hole.start : hole.end]
            toks = self._expand(raw)
            params = []
            for a, b in tk.split_top_level(toks, 0, len(toks), ","):
                if b - a == 1 and toks[a].text in ("void", "..."):
                    continue
                for decl in _declarations(toks[a:b], 0, self.s.typedefs, member=True)[1][:1]:
                    array = decl.dims or decl.type.dims
                    params.append((decl.name, decl.type.derived(1) if array else decl.type))
            hole.compiled = (self._epoch, params)
        return hole.compiled[1]

    def call_function_def(self, fdef: FunctionDefNode, args, site: CallSite) -> Value:
        s = self.s
        frame = Frame(fdef.name)
        at = site.at
        for k, (name, ctype) in enumerate(self._params(fdef)):
            if name is None:
                continue
            place = frame.locals[name] = self._allocate(name, ctype, STACK)
            v = args[k] if k < len(args) else s.values.fresh_symbol(
                f"arg:{name}@{site.line}", at)
            self.store_place(place, v, at)
        s.frames.append(frame)
        try:
            sig = self._run_hole(fdef.body, frame)
        finally:
            s.frames.pop()
        if sig.kind == GOTO:
            raise EvalError(f"goto target not found: {sig.label}", line=site.line)
        if sig.kind == RETURN and sig.value is not None:
            return sig.value
        return s.values.concrete(32, 0, (fdef.file_id, fdef.line),
                                 desc=f"{fdef.name} returned void")

    def computed_call(self, callee: Value, args, at) -> Value:
        self.s.emit_event("diagnostic",
                          message=f"call through non-name expression at line {at[1]}")
        return self.s.values.fresh_symbol(f"ret:<computed>@{at[1]}", at)

    # ------------------------------------------------------------ trace spec
    def _fire_trace(self, spec, site: CallSite, args):
        s = self.s
        shown = [a for a, flag in zip(args, spec.flags) if flag == "x"]
        parts = []
        for a in shown:
            text, blocked = self.display_value(a)
            if blocked is not None:
                msg = self.blocker_message(site.line, blocked)
                s.emit_line(msg)
                s.emit_event("diagnostic", message=msg)
                s.batch_failed = True
                return
            parts.append(text)
        s.emit_line(f"Line {site.line}: {site.text} => {', '.join(parts)}")

    def blocker_message(self, site_line: int, residual: Residual) -> str:
        vals = self.s.values
        blocker = residual.blockers[0]
        info = vals.missing_calls.get(blocker)
        if info is not None:
            return (f"Line {site_line}: Could not verbose because missing "
                    f"{info.call_text} on line {info.line}")
        val = vals.get(blocker)
        label = val.payload.label if isinstance(val.payload, SymbolRoot) else f"v{blocker}"
        return (f"Line {site_line}: Could not verbose because missing "
                f"{label} on line {val.prov.line}")

    # ----------------------------------------------------------- value views
    def display_value(self, v: Value):
        """(display text, None) or (None, blocking Residual)."""
        r = self.s.values.resolve(v)
        if isinstance(r, Concrete):
            return str(to_int(r)), None
        if r.blockers or r.pointer is None:
            return None, r
        return self._address_text(*r.pointer)

    def address_display(self, rid: int, off: int) -> str:
        return self._address_text(rid, off)[0] or f"({rid}, {off})"

    def _address_text(self, rid: int, off: int):
        """(text, None), or (None, Residual) for an mmio region whose
        displayed base is not concrete."""
        region = self.s.store.region(rid)
        if region is not None and region.kind == MMIO and region.display_base is not None:
            rb = self.s.values.resolve(region.display_base)
            if not isinstance(rb, Concrete):
                return None, rb
            return f"{to_int(rb) + off:x}", None
        return f"({rid}, {off})", None

    # ------------------------------------------------------------ statements
    def exec_block(self, nodes, frame, start=0) -> Control:
        """Run ``nodes`` from ``start`` (a switch body from its chosen
        ``case``); a ``goto`` may reach any label among them, the first of
        its name."""
        i = start
        while i < len(nodes):
            sig = self.exec_node(nodes[i], frame)
            if sig.kind == NEXT:
                i += 1
                continue
            if sig.kind == GOTO:  # on to just after the label, if it is here
                i = next((k + 1 for k, n in enumerate(nodes)
                          if isinstance(n, LabelNode) and n.name == sig.label), 0)
                if i:
                    continue
            return sig
        return _NEXT

    def exec_node(self, node, frame) -> Control:
        s = self.s
        if s.stop_next and not frame.is_snippet:
            s.stop_next = False
            if s.stop_handler is None:
                raise StoppedAtBreakpoint(
                    f"stopped before {node.file_id}:{node.line}",
                    position=(node.file_id, node.line),
                )
            s.stop_next = s.stop_handler((node.file_id, node.line)) == "step"
        self._count_step(node.line)
        sig = (_RUNNERS.get(node.__class__) or _runner(node))(self, node, frame)
        if s.breakpoints and not frame.is_snippet:
            bp = s.breakpoint_at(node.file_id, node.line)
            if bp is not None and bp.enabled:
                bp.hits += 1
                s.stop_next = True
        return sig

    def _count_step(self, line):
        self.s.steps += 1
        if self.s.steps > self.s.max_steps:
            raise MaxStepsExceeded(
                f"exceeded {self.s.max_steps} statement executions (line {line})"
            )

    def _exec_simple(self, node, frame) -> Control:
        self.eval_tokens(node, frame, node.line, statement=True)
        return _NEXT

    def _exec_return(self, node, frame) -> Control:
        return Control(RETURN, value=node.expr and self.eval_tokens(node.expr, frame, node.line))

    def _exec_raw(self, node, frame) -> Control:
        if not node.directive:
            self.s.emit_event("diagnostic", message=f"skipped stray tokens at line {node.line}")
        return _NEXT

    def _run_hole(self, hole, frame) -> Control:
        nodes = parse_hole_as_block(self.s.corpus, hole, self.s.rules, self.s.on_parse)
        return self.exec_block(nodes, frame)

    def _holds(self, node, frame, statement=False) -> bool:
        """Whether the condition of ``node`` is true; an empty ``for``
        condition, run as a statement, gives no value and is."""
        v = self.eval_tokens(node.cond, frame, node.line, statement)
        return v is None or self.truth(v, (node.file_id, node.line))

    def _exec_if(self, node, frame) -> Control:
        hole = node.then if self._holds(node, frame) else node.orelse
        return _NEXT if hole is None else self._run_hole(hole, frame)

    def _exec_loop(self, node, frame) -> Control:
        """``while``, ``do`` and ``for``. Each pass counts a step, and so
        does a test that ends the loop before a pass; a ``do`` tests after
        its body. A ``for`` runs its clauses as statements: its init once,
        its step after each pass that does not leave the loop."""
        is_for = isinstance(node, ForNode)
        if is_for:
            self.eval_tokens(node.init, frame, node.line, statement=True)
        do = isinstance(node, DoWhileNode)
        while True:
            self._count_step(node.line)
            if not do and not self._holds(node, frame, is_for):
                return _NEXT
            sig = self._run_hole(node.body, frame)
            if sig.kind == BREAK:
                return _NEXT
            if sig.kind == RETURN or sig.kind == GOTO:
                return sig
            if is_for:
                self.eval_tokens(node.step, frame, node.line, statement=True)
            if do and not self._holds(node, frame):
                return _NEXT

    def _exec_switch(self, node, frame) -> Control:
        subj = self.eval_tokens(node.subject, frame, node.line)
        r = self.s.values.resolve(subj)
        if not isinstance(r, Concrete):
            labels = self.s.values.labels_for(r.blockers)
            raise SymbolicBranch(
                f"switch on symbolic value at line {node.line} "
                f"(blockers: {self.s.values.blocker_text(labels)})",
                blockers=labels, line=node.line,
            )
        nodes = parse_hole_as_block(self.s.corpus, node.body, self.s.rules,
                                    self.s.on_parse)
        target = default = None
        for idx, n in enumerate(nodes):
            if not isinstance(n, LabelNode):
                continue
            if n.is_default and default is None:
                default = idx
            elif n.case_expr is not None and target is None:
                cv = self.s.values.resolve(
                    self.eval_tokens(n.case_expr, frame, n.line))
                if isinstance(cv, Concrete) and to_int(cv) == to_int(r):
                    target = idx
        start = target if target is not None else default
        if start is None:
            return _NEXT
        sig = self.exec_block(nodes, frame, start)
        return _NEXT if sig.kind == BREAK else sig

    # ------------------------------------------------------------ compiling
    def eval_tokens(self, span, frame, line, statement=False):
        """Run the compiled form of ``span``, a hole or a simple statement.

        The tokens are compiled the first time ``span`` runs and again once a
        typedef has been added since, because typedef names change how casts,
        ``sizeof`` and declarations parse. ``span`` is an expression, or
        with ``statement`` a statement or a ``for`` clause, which gives None
        when it holds no code or declares.
        """
        compiled = span.compiled
        if compiled is None or compiled[0] is not self._epoch:
            compiled = span.compiled = (self._epoch, self._compile(span, line, statement))
        return compiled[1](frame)

    def _compile(self, span, line, statement):
        s = self.s
        fid = span.file_id
        raw = s.corpus.tokens(fid)[span.start : span.end]
        missing = []
        toks = _strip_semicolons([t for t in mc.expand(
            raw, s.corpus.macros, lambda name, at: missing.append((name, at)))
            if t.kind not in tk.TRIVIA])

        def replay():
            for name, at in missing:
                s.emit_event("unexpanded-macro", name=name, line=at)

        try:
            if statement:
                code = self._compile_statement(toks, fid, line)
            else:
                code = _Compiler(self, toks, fid).expression(line)
        except Exception:  # the unexpanded-macro events precede the error
            replay()
            raise
        if not missing:
            return code

        def replaying(frame):
            replay()
            return code(frame)

        return replaying

    def _compile_statement(self, toks, file_id, line):
        if not toks:
            return _nothing
        first = toks[0]
        if first.kind == tk.DIRECTIVE:
            return _nothing
        if first.kind == tk.IDENTIFIER and first.text in ("asm", "__asm__", "__asm"):
            message = f"skipped inline assembly at line {line}"
            return lambda frame: self.s.emit_event("diagnostic", message=message)
        if _starts_declaration(first, self.s.typedefs):
            return self._compile_declaration(toks, file_id, line)
        return _Compiler(self, toks, file_id).expression(line)

    def _compile_declaration(self, toks, file_id, line):
        info, decls, _ = _declarations(toks, 0, self.s.typedefs)
        if info.type is None:
            return _Compiler(self, toks, file_id).expression(line)
        steps = []
        for decl in decls:
            if decl.name is None or decl.function:
                continue
            if info.is_typedef:
                decl.file_id, decl.line = file_id, line
                steps.append(lambda frame, decl=decl: self._define_typedef(decl, frame))
            else:
                steps.append(self._declare(decl, file_id, line))
        return _sequence(steps)

    def _declare(self, decl, file_id, line):
        ctype = self._compile_type(decl, file_id, line)
        init = None
        if decl.init is not None:
            init = _Compiler(self, decl.init, file_id).expression(line)
        at = (file_id, line)

        def declare(frame):
            place = frame.locals[decl.name] = self._allocate(decl.name, ctype(frame), STACK)
            if init is not None:
                self.store_place(place, init(frame), at)

        return declare

    def _allocate(self, name, ctype, kind) -> Place:
        """A region for a variable of type ``ctype``, and its Place."""
        store = self.s.store
        region = store.alloc_region(name, kind, size=store.size_of(ctype))
        return Place(region.id, None, 0, name, ctype)

    def _compile_type(self, decl, file_id, line):
        """The type ``decl`` declares as a function of the frame, with each
        array bound read by ``_compile_dimension`` and put before those of a
        typedef'd array. Every array bound is counted by this rule."""
        t = decl.type
        if not decl.dims:
            return lambda frame: t
        bounds = [self._compile_dimension(bound, file_id, line) for bound in decl.dims]
        return lambda frame: t.derived(0, tuple([bound(frame) for bound in bounds]) + t.dims)

    def _compile_dimension(self, toks, file_id, line):
        """An array bound: its value if it resolves to a constant, else 1."""
        try:
            if len(toks) == 1 and toks[0].kind == tk.NUMBER:
                count = parse_int_literal(toks[0].text)[0]
                return lambda frame: count
            expr = _Compiler(self, toks, file_id).expression(line)
        except (SsiError, ValueError):
            return lambda frame: 1

        def dimension(frame):
            try:
                r = self.s.values.resolve(expr(frame))
            except (SsiError, ValueError):
                return 1
            return to_int(r) if isinstance(r, Concrete) else 1

        return dimension

    def _define_typedef(self, decl, frame=None):
        ctype = self._compile_type(decl, decl.file_id, decl.line)(frame or Frame(decl.name))
        if self.s.typedefs.get(decl.name) != ctype:
            self.s.typedefs[decl.name] = ctype
            self._epoch = object()  # every compiled form is stale now

    # ----------------------------------------------------------- struct defs
    def _layout_from_corpus(self, tag):
        """The layout of the first ``struct tag {`` or ``union tag {`` body,
        in file order, found from the positions of ``tag``."""
        if ";" in tag:  # an untagged body, tagged with its text
            return self._parse_struct_body(self._expand(tk.tokenize(tag)), "<struct>")
        corpus = self.s.corpus
        for fid in corpus.files:
            toks = corpus.tokens(fid)
            n = len(toks)
            for j in toks.names.get(tag, ()):
                i = tk.code_before(toks, j)
                if i < 0 or toks[i].kind != tk.KEYWORD or toks[i].text not in ("struct", "union"):
                    continue
                k = tk.skip_trivia(toks, j + 1, n)
                if not _punct_at(toks, k, "{") or (end := tk.closing(toks, k, n)) == n:
                    continue
                return self._parse_struct_body(self._expand(toks[k + 1 : end]), fid)
        return None

    def _parse_struct_body(self, toks, file_id) -> Layout:
        layout = Layout()
        i = 0
        n = len(toks)
        while i < n:
            _, decls, j = _declarations(toks, i, self.s.typedefs, member=True)
            for decl in decls:
                if decl.function:
                    continue
                if decl.name is not None:
                    ctype = self._compile_type(decl, file_id, toks[i].line)(Frame(decl.name))
                    layout.add(decl.name, ctype, self.s.store.size_of(ctype))
                elif ";" in (decl.type.tag or "") and not decl.type.stars:
                    # An anonymous struct or union: its members are this one's.
                    for name, f in self.s.store.layout(decl.type.tag).fields.items():
                        layout.add(name, f.type, f.width)
            i = tk.top_level(toks, j, n, (";",)) + 1
        return layout

    # ------------------------------------------------------------- branching
    def truth(self, v: Value, at) -> bool:
        s = self.s
        known = s.values.truth(v)
        if known is not None:
            return known
        labels = s.values.labels_for(s.values.resolve(v).blockers)
        text = s.values.blocker_text(labels)
        policy = s.branch_policy
        if policy == ASSUME_TRUE:
            outcome = True
        elif policy == ASSUME_FALSE:
            outcome = False
        elif policy == ASK and s.ask is not None:
            outcome = bool(s.ask(
                f"symbolic branch at {at[0]}:{at[1]} (blockers: {text}); assume true?"
            ))
        else:
            raise SymbolicBranch(
                f"symbolic branch at line {at[1]} (blockers: {text})",
                blockers=labels, line=at[1],
            )
        s.emit_event("diagnostic",
                     message=f"assumed {str(outcome).lower()} for symbolic "
                             f"branch at line {at[1]}")
        self._learn_branch(v, outcome, at)
        return outcome

    def _learn_branch(self, v: Value, outcome: bool, at):
        vals = self.s.values
        payload = v.payload
        if isinstance(payload, SymbolRoot):
            if not outcome and v.id not in vals.bindings \
                    and v.id not in vals.pointer_bindings:
                vals.concretize(v, make_concrete(32, 0), "branch-comparison", at)
            return
        if not hasattr(payload, "op") or payload.op not in ("==", "!="):
            return
        a = vals.get(payload.operands[0])
        b = vals.get(payload.operands[1])
        ra, rb = vals.resolve(a), vals.resolve(b)
        sym = conc = None
        if isinstance(a.payload, SymbolRoot) and a.id not in vals.bindings \
                and isinstance(rb, Concrete):
            sym, conc = a, rb
        elif isinstance(b.payload, SymbolRoot) and b.id not in vals.bindings \
                and isinstance(ra, Concrete):
            sym, conc = b, ra
        if sym is None:
            return
        if (payload.op == "==" and outcome) or (payload.op == "!=" and not outcome):
            vals.concretize(sym, conc, "branch-comparison", at)

    # -------------------------------------------------------------- pointers
    def _materialize(self, symbol: Value, at) -> None:
        """Give an unbound symbol a region of its own on first dereference,
        the under-constrained default for pointers nobody modeled."""
        s = self.s
        region = s.store.alloc_region(f"*{symbol.payload.label}", OPAQUE)
        addr = s.values.addr_of(region.id, at,
                                desc=f"materialized *{symbol.payload.label}")
        s.values.bind_pointer(symbol, addr)
        s.emit_event("diagnostic",
                     message=f"materialized region {region.id} for "
                             f"{symbol.payload.label}")

    def deref_location(self, ptr: Value, at) -> tuple[int, int]:
        s = self.s
        r = s.values.resolve(ptr)
        if isinstance(r, Concrete):
            if s.absolute_region is None:
                s.absolute_region = s.store.alloc_region("absolute", STATIC).id
            return s.absolute_region, to_int(r)
        if r.pointer is not None:
            return r.pointer
        # A lone unbound root in the way (the pointer itself, or the base of
        # a pointer+offset term) becomes a fresh region.
        if len(r.blockers) == 1:
            blocker = s.values.get(r.blockers[0])
            if isinstance(blocker.payload, SymbolRoot) \
                    and blocker.id not in s.values.bindings \
                    and blocker.id not in s.values.pointer_bindings:
                self._materialize(blocker, at)
                r = s.values.resolve(ptr)
                if r.pointer is not None:
                    return r.pointer
        labels = s.values.labels_for(r.blockers)
        raise SymbolicAddress(
            f"cannot dereference symbolic pointer at line {at[1]} "
            f"(blocked by: {s.values.blocker_text(labels)})",
            blockers=labels,
        )

    def _locate(self, place: Place, at):
        if place.region is not None:
            return place.region, place.offset
        return self._through(place.ptr, place.offset, at)

    def _through(self, ptr: Value, off, at):
        """(region, offset) of ``off`` bytes past where ``ptr`` points."""
        rid, base = self.deref_location(ptr, at)
        if isinstance(off, int):
            return rid, base + off
        vals = self.s.values
        r = vals.resolve(off)
        if isinstance(r, Concrete):
            return rid, base + to_int(r)
        if base:
            off = vals.apply_binop("+", vals.concrete(64, base, at, desc=f"base {base}"),
                                   off, at)
        return rid, off

    def load_place(self, place: Place, at) -> Value:
        v = self.s.store.load(self._locate(place, at), at=at)
        t = place.type
        if t.stars:
            _pin(v, t.elem)
        return v

    def store_place(self, place: Place, value: Value, at):
        cell = self._locate(place, at)
        t = place.type
        if t.narrow is not None or t.unsigned and not (t.stars or t.dims or t.tag):
            value = self._converted(value, t, at)
        elif t.stars:
            _pin(value, t.elem)
        self.s.store.store(cell, value)

    def _converted(self, value: Value, t: CType, at) -> Value:
        """``value`` as a variable of the narrow or unsigned integer type
        ``t`` holds it. A constant already in range is kept, and so is a
        value that does not resolve to a constant: a symbol stays the root
        that branches bind. Another wraps, as ``(T)value`` does, or for a
        ``_Bool`` is ``value != 0``; a narrow ``t`` reads back as an int, as
        C promotes it, so that arithmetic on two narrow values does not
        wrap. (A signed int or wider place keeps any value: C leaves that
        conversion to the implementation.)"""
        vals = self.s.values
        r = vals.resolve(value)
        if not isinstance(r, Concrete):
            return value
        bits, signed = t.width * 8, t.narrow
        if signed is None:  # unsigned, an int or wider
            inside = 0 <= to_int(r) < 1 << bits
            return value if inside else vals.apply_cast(value, bits, False, at)
        if r.width == 32 and r.signed:
            lo = -(1 << (bits - 1)) if signed else 0
            if lo <= to_int(r) < (2 if t.boolean else lo + (1 << bits)):
                return value
        if t.boolean:
            return vals.apply_binop("!=", value, vals.concrete(32, 0, at, True), at)
        return vals.apply_cast(vals.apply_cast(value, bits, signed, at), 32, True, at)

    def resolve_name(self, name: str, frame, at):
        """The Place a name denotes in ``frame``; in a snippet, a bound
        placeholder or ``opaque`` gives a Value instead. A global gets its
        region on first use."""
        s = self.s
        if frame.is_snippet:
            if name == "opaque":
                return s.values.fresh_symbol(f"opaque@{at[0]}:{at[1]}", at, s.values.blame)
            vid = frame.value_bindings.get(name)
            if vid is not None:
                return s.values.get(vid)
        place = frame.locals.get(name) or s.globals.get(name)
        if place is None:
            decl = s.global_decls.get(name)
            if decl is None:
                place = Place(region=s.store.alloc_region(name, STATIC).id, name=name)
            else:
                ctype = self._compile_type(decl, decl.file_id, decl.line)(Frame(name))
                place = self._allocate(name, ctype, STATIC)
            s.globals[name] = place
            if decl is not None and decl.init and not decl.dims \
                    and not tk.is_punct(decl.init[0], "{"):
                self._initialize(place, decl)
        return place

    def _initialize(self, place: Place, decl: Decl) -> None:
        """Store a file-scope scalar's initializer, run once in an empty
        frame. Array and brace initializers are not stored."""
        init = _Compiler(self, self._expand(decl.init), decl.file_id).expression(decl.line)
        self.store_place(place, init(Frame(decl.name)), (decl.file_id, decl.line))

    def address_of(self, place: Place, at) -> Value:
        """The value of a pointer step or of an array: its address, which
        points at the step's type or at the array's element type. A step of
        no bytes past a pointer value is that value."""
        vals = self.s.values
        off = place.offset
        if place.region is None and isinstance(off, int) and off == 0:
            return place.ptr
        v = place.ptr if place.region is None else \
            vals.addr_of(place.region, at, desc=f"&{place.name or place.region}")
        if not isinstance(off, int):
            v = vals.apply_binop("+", v, off, at)
        elif off:
            v = vals.apply_binop("+", v, vals.concrete(
                64, off, at, signed=True, desc=f"offset {off}"), at)
        if v is not place.ptr and v is not off:  # not an operand a zero gave back
            v.pointee = place.type if place.step else place.type.elem
        return v

    def value_of(self, p, at) -> Value:
        """The value of a Place, or ``p`` itself when it is a Value; an
        array's or a pointer step's value is its address."""
        if not isinstance(p, Place):
            return p
        return self.address_of(p, at) if p.step or p.type.dims else self.load_place(p, at)

    def step_of(self, p, at):
        """``p``, a Place or a Value, as a value that keeps its pointer
        type: a pointer step as it is, an array or a pointer as the step of
        no elements over its value, and any other Place as its value."""
        if not isinstance(p, Place) or p.step:
            return p
        v = self.value_of(p, at)
        return v if p.type.elem is None else Place(None, v, 0, "*", p.type.elem, True)

    def _pointee(self, base, at):
        """(region, pointer, offset, type) of what ``base``, a Place or a
        pointer Value, points at: an array's first element, the element a
        pointer step reached, or the pointee of the address a pointer holds.
        A Value, or a Place of no pointer type, points at its value's
        ``pointee``, or else at an int."""
        if isinstance(base, Place):
            t = base.type
            if base.step:
                return base.region, base.ptr, base.offset, t
            if t.dims:
                return base.region, base.ptr, base.offset, t.elem
            base = self.load_place(base, at)
            if t.elem is not None:
                return None, base, 0, t.elem
        return None, base, 0, base.pointee or INT

    def deref_place(self, base, at, n=None, op="+", step=False) -> Place:
        """``*base``; with ``n``, ``base[n]`` (``base[-n]`` for ``op`` "-");
        with ``step`` as well, the pointer step ``base + n`` or ``base - n``.
        ``base`` is a Place or a pointer Value, and the element's type and
        size are those of the type ``base`` points at."""
        name = base.name + "[]" if isinstance(base, Place) else "*"
        region, ptr, offset, elem = self._pointee(base, at)
        if n is not None:
            size = self.s.store.size_of(elem)
            if step and size == 1 and op == "+" and offset == 0:
                offset = n  # a byte step's address is the one sum ``p + n``
            else:
                offset = self._indexed(offset, n, -size if op == "-" else size, at)
        return Place(region, ptr, offset, name, elem, step)

    def _indexed(self, offset, n: Value, size: int, at):
        """``offset`` moved by ``n`` elements of ``size`` bytes (back when
        ``size`` is negative): an int when both are known, else a term."""
        vals = self.s.values
        r = vals.resolve(n)
        if isinstance(r, Concrete):
            return self._shifted(offset, to_int(r) * size, at, "index")
        scaled = vals.apply_binop("*", n, vals.concrete(
            64, size, at, signed=size < 0, desc=f"elem {size}"), at)
        if not isinstance(offset, int):
            return vals.apply_binop("+", offset, scaled, at)
        return self._shifted(scaled, offset, at, "offset") if offset else scaled

    def arith(self, op: str, a, b, at):
        """``a op b``, each a Place or a Value. ``+`` and ``-`` on an array,
        a pointer or a pointer step step by its elements, on either side of
        ``+``; two such Places' difference counts elements (C11 6.5.6p9),
        and any other case is ``op`` on the two values."""
        size = None  # of an element, for a difference of two pointers
        if isinstance(a, Place):
            if (op == "+" or op == "-" and not _steps(b)) and _steps(a):
                return self.deref_place(a, at, self.value_of(b, at), op, True)
            if op == "-" and _steps(a):
                size = self.s.store.size_of(a.type if a.step else a.type.elem)
            a = self.value_of(a, at)
        elif op == "+" and _steps(b):
            return self.deref_place(b, at, a, op, True)
        vals = self.s.values
        v = vals.apply_binop(op, a, self.value_of(b, at), at)
        if size is None:
            return v
        r = vals.resolve(v)  # a ptrdiff_t: 64 bits, signed, as one region's differences are
        if r.__class__ is Concrete and not (r.width == 64 and r.signed):
            v = vals.apply_cast(v, 64, True, at)
        if size == 1:
            return v
        return vals.apply_binop("/", v, vals.concrete(
            64, size, at, signed=True, desc=f"elem {size}"), at)

    def field_place(self, base, field: str, at, arrow=False) -> Place:
        """``base.field``, or ``base->field``, that is ``(*base).field``, for
        ``arrow``. A struct of no tag takes a layout of its region's own."""
        if arrow:
            region, ptr, offset, stype = self._pointee(base, at)
        else:
            region, ptr, offset, stype = base.region, base.ptr, base.offset, base.type
        if region is None:
            region, offset = self._through(ptr, offset, at)
        info = self.s.store.field_offset(stype.tag or f"@r{region}", field)
        offset = offset + info.offset if isinstance(offset, int) else \
            self._shifted(offset, info.offset, at, "field")
        return Place(region, None, offset, field, info.type)

    def _shifted(self, offset, delta: int, at, desc: str):
        """``offset`` plus ``delta`` bytes; a symbolic offset gets a term."""
        if isinstance(offset, int):
            return offset + delta
        vals = self.s.values
        return vals.apply_binop("+", offset, vals.concrete(64, delta, at, desc=desc), at)

    # -------------------------------------------------------------- services
    def exec_snippet(self, template: str, args=(), at=("<snippet>", 1)):
        """Run C statement text with {N} placeholders bound to values. Each
        distinct template is one hole over a scratch file of its own, so its
        text is tokenized, parsed and compiled once."""
        s = self.s
        if template not in self._snippets:
            fid = f"<snippet:{len(self._snippets) + 1}>"
            toks = s.corpus.add_scratch(fid, re.sub(r"\{(\d+)\}", r" __ssi_arg\1 ", template))
            self._snippets[template] = (Hole(fid, 0, len(toks)),
                                        dict.fromkeys(re.findall(r"\{(\d+)\}", template)))
        hole, placeholders = self._snippets[template]
        frame = Frame(hole.file_id, is_snippet=True)
        for digits in placeholders:
            if int(digits) >= len(args):
                raise EvalError(f"snippet {template!r}: no argument {{{digits}}}")
            frame.value_bindings[f"__ssi_arg{digits}"] = args[int(digits)].id
        s.frames.append(frame)
        try:
            self.exec_block(parse_hole_as_block(s.corpus, hole, s.rules), frame)
        except EvalError as e:
            raise EvalError(f"snippet {template!r}: {e}", line=at[1])
        finally:
            s.frames.pop()

    def write_through(self, ptr: Value, value: Value, at=("<hook>", 0)):
        rid, off = self.deref_location(ptr, at)
        self.s.store.store((rid, off), value)
        self.s.emit_event("write", address=self.address_display(rid, off),
                          value=value.id, line=at[1])

    def read_through(self, ptr: Value, width_bytes: int = 4, at=("<hook>", 0)) -> Value:
        return self.s.store.load(self.deref_location(ptr, at), width_bytes, at)

    def map_mmio(self, label: str, base_value: Value, size=None,
                 at=("<hook>", 0)) -> Value:
        region = self.s.store.alloc_region(label, MMIO, size=size)
        region.display_base = base_value.id
        return self.s.values.addr_of(region.id, at, desc=f"mmio {label}")

    def string_value(self, token: tk.Token, file_id: str, at) -> Value:
        s = self.s
        key = (file_id, token.byte_offset, token.text)
        rid = s.string_regions.get(key)
        if rid is None:
            data = unescape_c(token.text[1:-1]) if len(token.text) >= 2 else ""
            region = s.store.alloc_region(f"str@{at[0]}:{at[1]}", STATIC,
                                          size=len(data) + 1)
            # Each byte is stored as the int it promotes to, so arithmetic on
            # bytes does not wrap at 8 bits (as narrow stores do; see _converted).
            for i, ch in enumerate(data):
                s.store.store((region.id, i),
                              s.values.concrete(32, ord(ch) & 0xFF, at, signed=True,
                                                desc="string byte"))
            s.store.store((region.id, len(data)),
                          s.values.concrete(32, 0, at, signed=True, desc="string NUL"))
            s.string_regions[key] = region.id
            rid = region.id
        return s.values.addr_of(rid, at, desc="string literal")


# How ``Interp.exec_node`` runs each built-in statement node, by its class.
_RUNNERS = {
    **dict.fromkeys((ExpressionStatementNode, DeclarationNode), Interp._exec_simple),
    **dict.fromkeys((WhileNode, DoWhileNode, ForNode), Interp._exec_loop),
    IfNode: Interp._exec_if,
    SwitchNode: Interp._exec_switch,
    ReturnNode: Interp._exec_return,
    RawNode: Interp._exec_raw,
    BlockNode: lambda interp, node, frame: interp._run_hole(node.body, frame),
    GotoNode: lambda interp, node, frame: Control(GOTO, label=node.label),
    BreakNode: lambda *_: _BREAK,
    ContinueNode: lambda *_: _CONTINUE,
    LabelNode: lambda *_: _NEXT,
}


def _runner(node):
    """The runner of a node whose class derives from a built-in node class."""
    for cls in node.__class__.__mro__:
        if cls in _RUNNERS:
            return _RUNNERS[cls]
    raise EvalError(f"cannot execute node {type(node).__name__}", line=node.line)


# ------------------------------------------------------------------ compiler

# Kinds of compiled subexpression: what its closure returns when run. The
# compiler passes a subexpression around as (kind, closure, name index); the
# index, where the identifier is in the token run, is None but for _NAME.
_VALUE = "value"  # a Value
_PLACE = "place"  # a Place (a Value, when it ends in a snippet-bound name)
_NAME = "name"    # resolves an identifier; a call through it is a named call
_STEP = "step"    # a pointer step's Place (``&``, a cast, a call, ``?:``, ``+``, ``-``) or a Value

_PREFIX = frozenset(("!", "~", "-", "+", "*", "&", "++", "--"))
_POSTFIX = frozenset(("(", "[", "->", ".", "++", "--"))
_UNOPS = {"!": "!", "~": "~", "-": "neg"}
_ONE = make_concrete(32, 1, True)  # the step of ``++`` and ``--``


def _nothing(frame):
    return None


def _sequence(steps):
    def run(frame):
        for step in steps:
            step(frame)

    return run


def _then(first, rest):
    def seq(frame):
        first(frame)
        return rest(frame)

    return seq


def _strip_semicolons(toks):
    end = len(toks)
    while end and toks[end - 1].text == ";" and toks[end - 1].kind == tk.PUNCT:
        end -= 1
    return toks if end == len(toks) else toks[:end]


class _Compiler:
    """Operator-precedence parsing (Pratt, POPL 1973) of one expanded token
    run, done once: ``operand`` reads a prefix operator, cast, ``sizeof`` or
    primary with its postfix operators, and ``parse`` takes the infix
    operators after it in one loop, by their binding power (``_BINDING``).

    Each subexpression becomes a closure over the frame that does only what
    depends on the store at run time: name lookup, loads and stores, calls
    and minting values. The positions that provenance and messages quote are
    those the parse reaches, worked out here, so a compiled expression mints
    the same values in the same order as evaluating while parsing did.
    Untaken ``?:`` arms and short-circuited operands are compiled but never
    run.
    """

    def __init__(self, interp: Interp, toks, file_id):
        self.it = interp
        self.vals = interp.s.values
        self.toks = toks  # no trivia, no trailing ``;``
        self.n = len(toks)
        self.file_id = file_id
        self.i = 0

    def expression(self, line):
        """A closure giving the expression's value; raises EvalError for a
        token run that is not one whole expression."""
        toks = self.toks
        if not toks:
            raise EvalError(f"empty expression at {self.file_id}:{line}", line=line)
        e = self.parse(_COMMA)
        if self.i < self.n:
            extra = toks[self.i]
            raise EvalError(
                f"unexpected token {extra.text!r} at {self.file_id}:{extra.line}",
                line=extra.line,
            )
        return self.rval(e, toks[-1])

    # ----------------------------------------------------------- primitives
    def _error(self, msg):
        """(message, line) of an error at the current token, or at the last
        one past the end."""
        line = self.toks[min(self.i, self.n - 1)].line
        return f"{msg} at {self.file_id}:{line}", line

    def _err(self, msg):
        raise EvalError(*self._error(msg))

    def _take(self):
        """The current token, consumed."""
        i = self.i
        if i >= self.n:
            self._err("unexpected end of expression")
        self.i = i + 1
        return self.toks[i]

    def expect(self, text):
        i = self.i
        if i < self.n and self.toks[i].text == text:
            self.i = i + 1
            return
        found = self._take().text  # the error names the token after it
        self._err(f"expected {text!r}, found {found!r}")

    def rval(self, e, t):
        """A closure giving the value of ``e``, loading it if it is a place
        (at ``t``'s line); an array's or pointer step's value is its address."""
        kind, fn, index = e
        if kind is _VALUE:
            return fn
        it, at = self.it, (self.file_id, t.line)
        value_of = it.value_of
        if kind is _NAME:  # the lookup ``fn`` makes, done in the same closure
            resolve_name, name = it.resolve_name, self.toks[index]
            name, name_at = name.text, (self.file_id, name.line)
            return lambda frame: value_of(resolve_name(name, frame, name_at), at)
        return lambda frame: value_of(fn(frame), at)

    def as_place(self, e, msg="expression is not assignable"):
        """A closure giving the Place ``e`` denotes; a value is an error."""
        kind, fn, _ = e
        if kind is _VALUE or kind is _STEP:
            self._err(msg)
        text, line = self._error(msg)

        def place(frame):
            p = fn(frame)
            if not isinstance(p, Place):
                raise EvalError(text, line=line)
            return p

        return place

    # ------------------------------------------------------------- grammar
    def parse(self, lowest):
        """The expression at the current token, up to the first infix
        operator that binds looser than ``lowest``."""
        e = self.operand()
        toks, n = self.toks, self.n
        while self.i < n:
            t = toks[self.i]
            power = _BINDING.get(t.text, 0) if t.kind == tk.PUNCT else 0
            if power < lowest:
                break
            self.i += 1
            op = t.text
            if power >= _BINARY:  # left to right: the right operand binds tighter
                rhs = self.parse(power + 1)
                at = (self.file_id, t.line)
                if (op == "+" or op == "-") and not (e[0] is _VALUE and rhs[0] is _VALUE):
                    e = (_STEP, self._additive(op, e[1], rhs[1], at), None)
                    continue
                make = self._logical if op == "&&" or op == "||" else self._binop
                e = (_VALUE, make(op, self.rval(e, t), self.rval(rhs, t), at), None)
            elif power == _ASSIGN:
                e = self._assign(e, t)
            elif power == _TERNARY:
                e = self._ternary(e, t)
            else:  # the comma: the left operand is evaluated and discarded
                first = self.rval(e, t)
                kind, rest, _ = self.parse(_ASSIGN)
                e = (_PLACE if kind is _NAME else kind, _then(first, rest), None)
        return e

    def operand(self):
        """A prefix operator, cast or ``sizeof`` with its operand, or a
        primary with its postfix operators."""
        toks, n, i = self.toks, self.n, self.i
        if i >= n:
            self._err("missing expression")
        t = toks[i]
        self.i = i + 1
        kind, text, at = t.kind, t.text, (self.file_id, t.line)
        if kind == tk.IDENTIFIER:
            it = self.it
            e = (_NAME, lambda frame: it.resolve_name(text, frame, at), i)
        elif kind == tk.NUMBER:
            try:
                e = self._literal(t, at, *parse_int_literal(text))
            except ValueError:
                raise EvalError(f"malformed number {text!r} at {self.file_id}:{t.line}",
                                t.line) from None
        elif kind == tk.PUNCT and text in _PREFIX:
            if text == "&":  # the pointer step to the place
                place = self.as_place(self.operand(), "cannot take the address of a value")

                def address(frame):
                    p = place(frame)
                    return Place(p.region, p.ptr, p.offset, p.name, p.type, True)

                return _STEP, address, None
            if text == "++" or text == "--":
                return self._incdec(self.operand(), t, pre=True)
            e = self.operand()
            if text == "*":
                base, deref_place = e[1], self.it.deref_place
                return _PLACE, lambda frame: deref_place(base(frame), at), None
            v = self.rval(e, t)
            if text == "+":
                return _VALUE, v, None
            apply_unop, op = self.vals.apply_unop, _UNOPS[text]
            return _VALUE, lambda frame: apply_unop(op, v(frame), at), None
        elif kind == tk.PUNCT and text == "(":
            if (type_name := self._type_name(i + 1)) is not None:
                return self._cast(t, *type_name)
            e = self.parse(_COMMA)
            self.expect(")")
        elif kind == tk.KEYWORD and text == "sizeof":
            return self._sizeof(t)
        elif kind == tk.CHAR:
            inner = unescape_c(text[1:-1]) if len(text) >= 2 else "\0"
            e = self._literal(t, at, ord(inner[0]) if inner else 0, 32, True)
        elif kind == tk.STRING:
            string_value, fid = self.it.string_value, self.file_id
            e = (_VALUE, lambda frame: string_value(t, fid, at), None)
        else:
            self._err(f"unexpected token {text!r}")
        while self.i < n:
            post = toks[self.i]
            if post.kind != tk.PUNCT or post.text not in _POSTFIX:
                break
            if post.text == "(":
                e = self._call(e, post)
                continue
            self.i += 1
            if post.text == "[":
                idx = self.rval(self.parse(_COMMA), post)
                self.expect("]")
                e = self._index(e, idx, post)
            elif post.text == "->" or post.text == ".":
                arrow = post.text == "->"
                base = e[1] if arrow else self.as_place(e)
                field, field_place = self._take().text, self.it.field_place
                e = (_PLACE, lambda frame, base=base, field=field, arrow=arrow,
                     at=(self.file_id, post.line): field_place(base(frame), field, at, arrow),
                     None)
            else:
                e = self._incdec(e, post, pre=False)
        return e

    # ---------------------------------------------------------- operations
    def _literal(self, t, at, value, bits, signed):
        """A literal's constant is built here, once; a run mints a value of it."""
        mint, c, desc = self.vals.mint, make_concrete(bits, value, signed), f"literal {t.text}"
        return _VALUE, lambda frame: mint(c, at, desc), None

    def _assign(self, lhs, t):
        rhs = self.rval(self.parse(_ASSIGN), t)  # right to left
        place = self.as_place(lhs)
        op = _ASSIGN_OPS[t.text]
        at = (self.file_id, t.line)
        it = self.it
        # A named target is looked up after the right-hand side runs, any
        # other place (its pointer, index, base) before.
        late = lhs[0] is _NAME

        def assign(frame):
            p = None if late else place(frame)
            v = rhs(frame)
            if late:
                p = place(frame)
            if op is not None:
                v = it.value_of(it.arith(op, p, v, at), at)
            it.store_place(p, v, at)
            return v

        return _VALUE, assign, None

    def _ternary(self, e, t):
        """``c ? a : b``: the value of ``a`` or of ``b``, where a pointer
        or an array is the pointer step of no elements over its value."""
        cond = self.rval(e, t)
        then = self.parse(_COMMA)[1]
        self.expect(":")
        orelse = self.parse(_TERNARY)[1]
        at = (self.file_id, t.line)
        truth, step_of = self.it.truth, self.it.step_of
        return _STEP, lambda frame: step_of(
            then(frame) if truth(cond(frame), at) else orelse(frame), at), None

    def _additive(self, op, lhs, rhs, at):
        """``lhs + rhs`` or ``lhs - rhs`` (``Interp.arith``), operands given
        as Places or Values; a left operand that does not step is loaded
        before the right one runs."""
        arith, load_place = self.it.arith, self.it.load_place

        def additive(frame):
            a = lhs(frame)
            if isinstance(a, Place) and not _steps(a):
                a = load_place(a, at)
            return arith(op, a, rhs(frame), at)

        return additive

    def _binop(self, op, lhs, rhs, at):
        vals = self.vals
        return lambda frame: vals.apply_binop(op, lhs(frame), rhs(frame), at)

    def _logical(self, op, lhs, rhs, at):
        vals = self.vals
        decider = op == "||"  # the truth of the left operand that skips the right

        def logical(frame):
            a = lhs(frame)
            if vals.truth(a) is decider:
                return vals.concrete(32, int(decider), at, signed=True, desc=op,
                                     parents=(a.id,))
            return vals.apply_binop(op, a, rhs(frame), at)

        return logical

    def _incdec(self, e, t, pre: bool):
        place = self.as_place(e)
        at = (self.file_id, t.line)
        op = "+" if t.text == "++" else "-"
        it, mint = self.it, self.vals.mint

        def incdec(frame):
            p = place(frame)
            old = it.load_place(p, at)
            one = mint(_ONE, at, "1")
            new = it.value_of(it.arith(op, p if _steps(p) else old, one, at), at)
            it.store_place(p, new, at)
            return new if pre else old

        return _VALUE, incdec, None

    def _type_name(self, start):
        """(index of ``)``, its Decl) when a parenthesized type name starts
        at ``start``, else None. Only a token that can start a declaration
        is read further."""
        toks, typedefs = self.toks, self.it.s.typedefs
        if start >= self.n or not _starts_declaration(toks[start], typedefs):
            return None
        _, decls, j = _declarations(toks, start, typedefs)
        if len(decls) == 1 and decls[0].name is None and _punct_at(toks, j, ")"):
            return j, decls[0]
        return None

    def _sizeof(self, t):
        vals = self.vals
        at = (self.file_id, t.line)
        size_of = self.it.s.store.size_of
        if _punct_at(self.toks, self.i, "(") and (type_name := self._type_name(self.i + 1)):
            close, decl = type_name
            self.i = close + 1
            ctype = self.it._compile_type(decl, self.file_id, t.line)
            return _VALUE, lambda frame: vals.concrete(64, size_of(ctype(frame)), at,
                                                       desc="sizeof"), None
        # A place is not loaded: its size is its declared type's, and a
        # pointer step's is a pointer's. Any other operand, a snippet
        # placeholder included, gives the width of its value.
        v = self.operand()[1]

        def size_of_value(frame):
            p = v(frame)
            if isinstance(p, Place):
                nbytes = 8 if p.step else size_of(p.type)
            else:
                r = vals.resolve(p)
                nbytes = r.width // 8 if isinstance(r, Concrete) else 4
            return vals.concrete(64, nbytes, at, desc="sizeof")

        return _VALUE, size_of_value, None

    def _cast(self, t, close, decl):
        self.i = close + 1
        v = self.rval(self.operand(), t)
        ctype = decl.type
        bits, signed, at = ctype.width * 8, not ctype.unsigned, (self.file_id, t.line)
        vals = self.vals
        if ctype.stars:  # a pointer step of no elements over the value
            def pointer(frame):
                p = v(frame)
                r = vals.resolve(p)
                if r.__class__ is Concrete and r.width < 64:  # an address is 64 bits wide
                    p = vals.apply_cast(p, 64, False, at)
                return Place(None, p, 0, "*", ctype.elem, True)

            return _STEP, pointer, None
        if ctype.boolean:
            return _VALUE, lambda frame: vals.apply_binop(
                "!=", v(frame), vals.concrete(32, 0, at, True), at), None
        return _VALUE, lambda frame: vals.apply_cast(v(frame), bits, signed, at), None

    def _call(self, e, open_tok):
        it = self.it
        kind, _, index = e
        if kind is not _NAME:
            callee = self.rval(e, open_tok)
            args = self._args()
            at = (self.file_id, open_tok.line)

            def computed(frame):
                target = callee(frame)
                for arg in args:
                    arg(frame)
                return it.computed_call(target, (), at)

            return _VALUE, computed, None
        toks = self.toks
        name_tok = toks[index]
        args = self._args()
        close_tok = toks[self.i - 1]
        compact = " ".join(x.text for x in toks[index : self.i])
        text = compact
        if not name_tok.synthetic and not close_tok.synthetic:
            try:
                src = it.s.corpus.source(self.file_id)
                text = src[name_tok.byte_offset : close_tok.byte_offset
                           + len(close_tok.text)]
            except KeyError:
                pass
        site = CallSite(self.file_id, name_tok.line, text, compact)
        name = name_tok.text
        pointee = it._returns.get(name)  # a declared pointer result: a step over it

        def call(frame):
            return it.call_named(name, [arg(frame) for arg in args], site)

        if pointee is None:
            return _VALUE, call, None
        return _STEP, lambda frame: Place(None, call(frame), 0, "*", pointee, True), None

    def _args(self):
        """The argument closures from the ``(`` at the current token through
        its ``)``."""
        toks = self.toks
        self.i += 1
        if _punct_at(toks, self.i, ")"):
            self.i += 1
            return []
        args, t = [], None
        while True:
            start = self.i
            e = self.parse(_ASSIGN)
            # A load names the line of the argument's first token, then of
            # the comma before each later argument.
            args.append(self.rval(e, t or toks[start]))
            t = self._take()
            if t.text == ")":
                return args
            if t.text != ",":
                self._err(f"expected ',' or ')' in call, found {t.text!r}")

    def _index(self, e, idx, t):
        at = (self.file_id, t.line)
        kind, base, _ = e
        deref_place = self.it.deref_place
        late = kind is _NAME  # an array name is looked up after the index runs

        def index(frame):
            b = None if late else base(frame)
            i = idx(frame)
            return deref_place(base(frame) if late else b, at, i)

        return _PLACE, index, None
