"""Closure-compiling execution engine over the semi-symbolic value model.

Holes from the island parser are parsed the first time control reaches
them. A body hole's statements then compile into one block closure, kept as
``hole.compiled``, that looks each node's runner up once by its class
(``Interp._block``); the expressions and simple statements in them compile
into closures on their first run, each held on its span until a typedef is
added (``Interp._code``). Typedefs, global declarations and return types
are read from each corpus file's declaration items, each expanded once as a
statement is (``_read_file_scope``), and a global is declared at its first
use by the step that declares a local (``_declare``). Declarations and type
names are read by ``ctype``; an array bound that is not a literal is
evaluated each time its declaration runs (``Interp._compile_type``).
Calls resolve, in order, to a registered hook, an in-corpus function
definition, or a symbolic fallback that records a missing-model event and
returns a fresh symbol. Fresh symbols minted inside a call remember it, so
that diagnostics name the API function a value is waiting on.

A local or parameter of integer or pointer type is held: its ``Place`` keeps
its value, and ``load_place`` and ``store_place`` read and write it there
under the same rules as a cell (``_converted``, ``_pin``, one fresh symbol
for an unset one). The first ``&`` of it, or a ``.`` on it, moves it into the
store (``Store.spill``); no pointer to it can exist before, so no token is
scanned ahead for an ``&``. A call or snippet drops its held locals from
``Store.held`` when it returns. Arrays, structs and unions are regions.

A C call nests six Python frames (``call_named``, ``call_function_def``,
the block, the runner and the expression's closures), so C recursion runs
about 165 deep under Python's default recursion limit; past it the innermost
call raises ``CallDepthExceeded`` naming its line.

Breakpoints fire after a statement on the breakpoint line executes; the
session then suspends just before the next statement, whose line is reported.
That way inspecting a variable assigned on the breakpoint line shows the
fresh value, and the reported line is always the next statement to run.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import attrgetter

from . import macros as mc
from . import tokens as tk
from .errors import (
    CallDepthExceeded,
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
    tag_bodies,
)
from .ctype import (ARRAY, BASE, FUNCTION, INT, POINTER, VOID, CType, Decl, _declarations,
                    _punct_at, _starts_declaration, parse_int_literal)
from .memory import MMIO, OPAQUE, STACK, STATIC, Layout
from .session import (
    ASK,
    ASSUME_FALSE,
    ASSUME_TRUE,
    INTERRUPT,
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

# What a statement gives to end its block early: ``BREAK``, ``CONTINUE``, or
# a ``(RETURN, value)`` or ``(GOTO, label)`` pair; None goes on.
BREAK = "break"
CONTINUE = "continue"
RETURN = "return"
GOTO = "goto"

_ID = attrgetter("id")  # a Value's id, as the ``call`` event lists its arguments


@dataclass
class CallSite:
    file: str
    line: int
    text: str     # verbatim source of the call expression when available
    compact: str  # token texts joined by single spaces, the callee's first
    at: tuple[str, int] = field(init=False, repr=False, compare=False)
    blame: MissingCall = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.at = (self.file, self.line)  # one tuple for every value the call mints
        # What the values a model of this call mints, or an unmodeled call's
        # result and the memory it may write, wait on: one per call site.
        self.blame = MissingCall(self.compact.split(" ", 1)[0], self.compact,
                                 self.file, self.line)


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

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\",
            "'": "'", '"': '"', "a": "\a", "b": "\b", "f": "\f", "v": "\v"}


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


_ESCAPE = re.compile(r"\\(?:x([0-9a-fA-F]*)|([0-7]{1,3})|(.))", re.S)


def unescape_c(text: str) -> str:
    """``text`` with each C escape replaced (C11 6.4.4.4): ``\\x`` and its
    hex digits, or one to three octal digits, by the byte they give (0 for
    no hex digit), any other by ``_ESCAPES`` or the character escaped."""
    return _ESCAPE.sub(lambda m: _ESCAPES.get(m[3], m[3]) if m[3] else chr(
        (int(m[2], 8) if m[2] else int(m[1] or "0", 16)) & 0xFF), text)


class Interp:
    def __init__(self, session: Session):
        self.s = session
        session.store.layout_source = self._layout_from_corpus
        self._compiled: list = []  # spans whose ``compiled`` is set; see _code
        self._returns: dict[str, CType] = {}  # function -> its declared return type
        self._snippets: dict[str, tuple[Hole, dict]] = {}  # template -> hole, its {N} digits
        self._block_tags: dict[str, tuple[str, list]] = {}  # see _compile_declaration
        self._read_file_scope()

    def _read_file_scope(self):
        """Read each corpus file's declaration items into the typedefs,
        ``global_decls`` and non-``void`` return types. Each item is read
        once, expanded as a statement is, and is one if it then starts a
        declaration; a definition's head declares only its function. A macro
        left unexpanded in a global's item is reported at the global's first
        use (``resolve_name``)."""
        s = self.s
        macros = s.corpus.macros
        for fid in s.corpus.files:
            record = s.corpus.records[fid]
            toks = record.tokens
            for start, head, end, fdef in record.items:
                missing = []
                item = mc.expand(toks[start : head if fdef else end], macros,
                                 lambda *at: missing.append(at))
                if not item or not _starts_declaration(item[0], s.typedefs):
                    continue
                decls, line = _declarations(item, 0, s.typedefs)[0], toks[start].line
                if fdef:
                    decls = [x for x in decls if x.name == fdef.name
                             and x.type.kind is FUNCTION and not x.typedef]
                for decl in decls:
                    if decl.name is None:
                        continue
                    decl.file_id, decl.line, decl.unexpanded = fid, line, missing
                    if decl.typedef:
                        self._define_typedef(decl)
                    elif decl.type.kind is not FUNCTION:
                        s.global_decls.setdefault(decl.name, decl)
                    elif decl.type.of.kind is not VOID:
                        self._returns.setdefault(decl.name, self._compile_type(
                            decl.type.of, fid, line)(Frame(decl.name)))

    # ------------------------------------------------------------ utilities
    def _on_unexpanded(self, name, line):
        self.s.emit_event("unexpanded-macro", name=name, line=line)

    def _expand(self, toks):
        return mc.expand(toks, self.s.corpus.macros, self._on_unexpanded)

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
            if ctype.pointer:
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
        try:
            s.emit_event("call", callee=name, call_text=site.compact,
                         file=site.file, line=site.line, args=tuple(map(_ID, args)))
            spec = s.trace_specs.get(name)
            if spec is not None:
                self._fire_trace(spec, site, args)
            hook = s.hooks.get(name)
            if hook is not None:
                s.emit_event("hook", name=name, line=site.line)
                ctx = HookContext(s, self, list(args), site)
                vals = s.values
                outer = vals.blame  # what the model mints is blamed on this call
                vals.blame = site.blame
                try:
                    result = hook.fn(ctx)
                finally:
                    vals.blame = outer
                if isinstance(result, Value):
                    return result
                return vals.concrete(32, 0, site.at, desc=f"hook {name} result")
            fdef = s.corpus.find_function(name)
            if fdef is not None:
                return self.call_function_def(fdef, args, site)
            # Unmodeled, not in corpus: symbolic fallback. Pointer arguments
            # may have been written by the real function, so remember which
            # call is responsible for anything later read out of those
            # regions untouched.
            s.emit_event("missing-model", callee=name, call_text=site.compact,
                         file=site.file, line=site.line)
            missing = site.blame
            for a in args:
                r = s.values.resolve(a)
                if isinstance(r, Residual) and r.pointer is not None:
                    s.store.taints[r.pointer[0]] = missing
            return s.values.fresh_symbol(f"ret:{name}@{site.line}", site.at, missing)
        except RecursionError:
            # The innermost call catches it and names itself. The stack is
            # at Python's limit here, so the error is built with no Python
            # constructor, and ``line`` is set after.
            error = CallDepthExceeded(
                f"C calls nested too deep: {site.text} at {site.file}:{site.line} "
                f"is call {len(s.frames) + 1} deep, past Python's recursion limit")
            error.line = site.line
            raise error from None

    def _params(self, fdef: FunctionDefNode) -> list[tuple[str | None, CType]]:
        """The (name, type) of each parameter of ``fdef`` in order, kept on
        its hole, as ``_code`` keeps a span's closure, until a typedef is
        added (an empty list too)."""
        hole = fdef.params
        if hole.compiled is None:
            hole.compiled = self._read_params(hole)
            self._compiled.append(hole)
        return hole.compiled

    def _read_params(self, hole):
        """The parameters of a parameter list, macro-expanded. An unnamed
        one keeps its place with name None. A parameter of array type is a
        pointer to its element type, and one of function type a pointer to
        it (C11 6.7.6.3p7-8); ``(void)`` and ``...`` bind nothing."""
        toks = self._expand(self.s.corpus.tokens(hole.file_id)[hole.start : hole.end])
        params = []
        for a, b in tk.split_top_level(toks, 0, len(toks), ","):
            if b - a == 1 and toks[a].text in ("void", "..."):
                continue
            for decl in _declarations(toks[a:b], 0, self.s.typedefs, member=True)[0][:1]:
                t = decl.type
                if t.kind is ARRAY or t.kind is FUNCTION:
                    t = CType(kind=POINTER, of=t.of if t.kind is ARRAY else t)
                params.append((decl.name, self._compile_type(t, hole.file_id, toks[a].line)(
                    Frame(hole.file_id))))
        return params

    def call_function_def(self, fdef: FunctionDefNode, args, site: CallSite) -> Value:
        s = self.s
        frame = Frame(fdef.name)
        at = site.at
        since = s.store.next_region  # this call's held locals take ids from here
        for k, (name, ctype) in enumerate(self._params(fdef)):
            if name is None:
                continue
            place = frame.locals[name] = self._allocate(name, ctype, STACK)
            v = args[k] if k < len(args) else s.values.fresh_symbol(
                f"arg:{name}@{site.line}", at)
            self.store_place(place, v, at)
        body = fdef.body
        s.frames.append(frame)
        try:
            sig = (body.compiled or self._body(body))(frame)
        finally:
            s.frames.pop()
            s.store.release(since)
        if sig.__class__ is tuple and sig[0] is GOTO:
            raise EvalError(f"goto target not found: {sig[1]}", line=site.line)
        if sig.__class__ is tuple and sig[1] is not None:
            return sig[1]
        return s.values.concrete(32, 0, (fdef.file_id, fdef.line),
                                 desc=f"{fdef.name} returned void")

    def computed_call(self, callee: Value, args, at) -> Value:
        self.s.emit_event("diagnostic", message=f"call through non-name expression at line {at[1]}")
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
        root = vals.get(residual.blockers[0])
        call = vals.missing_calls.get(root.id)  # the call that minted it, if any
        what, line = (call.call_text, call.line) if call else (root.payload.label, root.line)
        return f"Line {site_line}: Could not verbose because missing {what} on line {line}"

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
    def exec_block(self, nodes, frame, start=0):
        """Run ``nodes`` from ``start`` as one block (``_block``)."""
        return self._block(nodes)(frame, start)

    def _body(self, hole, on_parse=True):
        """The block of a body hole, kept as ``hole.compiled``; a snippet's
        parse (``on_parse`` false) emits no parse event."""
        s = self.s
        hole.compiled = block = self._block(parse_hole_as_block(
            s.corpus, hole, s.rules, on_parse and s.on_parse))
        return block

    def _block(self, nodes):
        """``nodes`` as one closure ``block(frame, i=0)`` that runs them
        from the ``i``-th (a switch body from its chosen ``case``) and gives
        what a statement ended it with, or None; a ``goto`` goes on after
        the first label of its name among them, if there is one. Each
        statement is one tick: a pending stop is taken before it, it counts
        a step, it runs, and a breakpoint on its line makes the next
        statement stop. Stops and breakpoints skip a snippet."""
        s = self.s
        runs = [_runner(node) for node in nodes]
        labels = {}
        for k, node in enumerate(nodes):
            if isinstance(node, LabelNode):
                labels.setdefault(node.name, k + 1)
        end = len(nodes)

        def block(frame, i=0):
            while i < end:
                node = nodes[i]
                if s.stop_next and not frame.is_snippet:
                    self._stop(node)
                s.steps += 1
                if s.steps > s.max_steps:
                    self._out_of_steps(node.line)
                sig = runs[i](self, node, frame)
                if s.breakpoints and not frame.is_snippet:
                    bp = s.breakpoint_at(node.file_id, node.line)
                    if bp is not None and bp.enabled:
                        bp.hits += 1
                        s.stop_next = True
                i += 1
                if sig is not None:
                    if sig.__class__ is not tuple or sig[0] is not GOTO or sig[1] not in labels:
                        return sig
                    i = labels[sig[1]]

        return block

    def _stop(self, node):
        """Suspend before ``node`` in the stop handler, which may ask to
        stop again, or with none raise ``StoppedAtBreakpoint``."""
        s = self.s
        s.stop_next = False
        if s.stop_handler is None:
            raise StoppedAtBreakpoint(f"stopped before {node.file_id}:{node.line}",
                                      position=(node.file_id, node.line))
        s.stop_next = s.stop_handler((node.file_id, node.line)) == "step"

    def _out_of_steps(self, line):
        raise MaxStepsExceeded(f"exceeded {self.s.max_steps} statement executions (line {line})")

    def _exec_simple(self, node, frame):
        (node.compiled or self._code(node, node.line, True))(frame)

    def _exec_return(self, node, frame):
        """``return``, its value converted to the function's declared type
        as a store to a variable of that type converts it."""
        expr = node.expr
        if expr is None:
            return RETURN, None
        v = (expr.compiled or self._code(expr, node.line))(frame)
        t = self._returns.get(frame.function)
        if t is not None and t.converts:
            v = self._converted(v, t, (node.file_id, node.line))
        return RETURN, v

    def _exec_raw(self, node, frame):
        self.s.emit_event("diagnostic", message=f"skipped stray tokens at line {node.line}")

    def _holds(self, node, frame, statement=False) -> bool:
        """Whether the condition of ``node`` is true; an empty ``for``
        condition, run as a statement, gives no value and is."""
        v = (node.cond.compiled or self._code(node.cond, node.line, statement))(frame)
        return v is None or self.truth(v, (node.file_id, node.line))

    def _exec_if(self, node, frame):
        hole = node.then if self._holds(node, frame) else node.orelse
        if hole is not None:
            return (hole.compiled or self._body(hole))(frame)

    def _exec_loop(self, node, frame):
        """``while``, ``do`` and ``for``. Each pass counts a step, and so
        does a test that ends the loop before a pass; a Ctrl-C stop is taken
        at a pass too, so that a loop with an empty body stops. A ``do``
        tests after its body. A ``for`` runs its clauses as statements: its
        init once, its step after each pass that does not leave the loop."""
        s = self.s
        is_for = isinstance(node, ForNode)
        if is_for:
            (node.init.compiled or self._code(node.init, node.line, True))(frame)
        do = isinstance(node, DoWhileNode)
        body = node.body
        while True:
            if s.stop_next is INTERRUPT and not frame.is_snippet:
                self._stop(node)
            s.steps += 1
            if s.steps > s.max_steps:
                self._out_of_steps(node.line)
            if not do and not self._holds(node, frame, is_for):
                return None
            sig = (body.compiled or self._body(body))(frame)
            if sig is not None and sig is not CONTINUE:
                return None if sig is BREAK else sig
            if is_for:
                (node.step.compiled or self._code(node.step, node.line, True))(frame)
            if do and not self._holds(node, frame):
                return None

    def _exec_switch(self, node, frame):
        subj = (node.subject.compiled or self._code(node.subject, node.line))(frame)
        r = self.s.values.resolve(subj)
        if not isinstance(r, Concrete):
            labels = self.s.values.labels_for(r.blockers)
            raise SymbolicBranch(
                f"switch on symbolic value at line {node.line} "
                f"(blockers: {self.s.values.blocker_text(labels)})",
                blockers=labels, line=node.line,
            )
        body = node.body
        block = body.compiled or self._body(body)
        target = default = None
        for idx, n in enumerate(body.nodes):
            if not isinstance(n, LabelNode):
                continue
            if n.is_default and default is None:
                default = idx
            elif n.case_expr is not None and target is None:
                case = n.case_expr
                cv = self.s.values.resolve((case.compiled or self._code(case, n.line))(frame))
                if isinstance(cv, Concrete) and to_int(cv) == to_int(r):
                    target = idx
        start = target if target is not None else default
        if start is not None:
            sig = block(frame, start)
            return None if sig is BREAK else sig

    # ------------------------------------------------------------ compiling
    def _code(self, span, line, statement=False):
        """``span``, a hole or a simple statement, compiled to a closure over
        the frame and kept as ``span.compiled``, which its runner calls until
        a typedef is added (typedef names change how casts, ``sizeof`` and
        declarations parse): ``_define_typedef`` clears each span listed here.
        ``span`` is an expression, or with ``statement`` a statement or ``for``
        clause, whose closure gives None when it holds no code or declares."""
        code = span.compiled = self._compile(span, line, statement)
        self._compiled.append(span)
        return code

    def _compile(self, span, line, statement):
        s = self.s
        fid = span.file_id
        raw = s.corpus.tokens(fid)[span.start : span.end]
        missing = []
        toks = _strip_semicolons(mc.expand(
            raw, s.corpus.macros, lambda name, at: missing.append((name, at))))

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
        if first.kind == tk.IDENTIFIER and first.text in ("asm", "__asm__", "__asm"):
            message = f"skipped inline assembly at line {line}"
            return lambda frame: self.s.emit_event("diagnostic", message=message)
        if _starts_declaration(first, self.s.typedefs):
            return self._compile_declaration(toks, file_id, line)
        return _Compiler(self, toks, file_id).expression(line)

    def _compile_declaration(self, toks, file_id, line):
        """One step per declarator of ``toks``, after recording each struct
        or union body in it whose tag has no block-scope body yet."""
        for tag, (a, b) in tag_bodies(toks, 0, len(toks), {}).items():
            self._block_tags.setdefault(tag, (file_id, toks[a + 1 : b]))
        decls, _ = _declarations(toks, 0, self.s.typedefs)
        if not decls:
            return _Compiler(self, toks, file_id).expression(line)
        steps = []
        for decl in decls:
            if decl.name is None or decl.type.kind is FUNCTION and not decl.typedef:
                continue
            if decl.typedef:
                decl.file_id, decl.line = file_id, line
                steps.append(lambda frame, decl=decl: self._define_typedef(decl, frame))
            else:
                steps.append(self._declare(decl, file_id, line))
        return _sequence(steps)

    def _declare(self, decl, file_id, line, kind=STACK):
        """The step that declares ``decl``, a local in its frame or, for
        ``kind`` STATIC, a global in ``Session.globals``, and then stores
        its initializer; a global's array or brace initializer is not
        stored."""
        ctype = self._compile_type(decl.type, file_id, line)
        init = decl.init
        if kind is STATIC and init and (decl.type.kind is ARRAY or tk.is_punct(init[0], "{")):
            init = None
        if init is not None:
            init = _Compiler(self, init, file_id).expression(line)
        at, name = (file_id, line), decl.name

        def declare(frame):
            place = self._allocate(name, ctype(frame), kind)
            (frame.locals if kind is STACK else self.s.globals)[name] = place
            if init is not None:
                self.store_place(place, init(frame), at)

        return declare

    def _allocate(self, name, ctype, kind) -> Place:
        """The Place of a variable of type ``ctype``: a held one, under a
        reserved region id, for a local integer or pointer; else a region."""
        store = self.s.store
        if kind is STACK and (ctype.pointer or ctype.kind is BASE and not ctype.tag):
            rid = store.reserve()
            place = store.held[rid] = Place(rid, None, 0, name, ctype, False, True)
            return place
        region = store.alloc_region(name, kind, size=store.size_of(ctype))
        return Place(region.id, None, 0, name, ctype)

    def _compile_type(self, t, file_id, line):
        """``t`` as a function of the frame. An array bound that is still a
        token run, not a lone literal (``count_of``), is read each time it
        runs: its value if it resolves to a constant, else 1."""
        if t.fixed:
            return lambda frame: t
        of, kind, count = self._compile_type(t.of, file_id, line), t.kind, t.count
        if count.__class__ is not tuple:
            return lambda frame: CType(kind=kind, of=of(frame), count=count)
        try:
            bound = _Compiler(self, count, file_id).expression(line)
        except (SsiError, ValueError):
            return lambda frame: CType(kind=kind, of=of(frame), count=1)
        resolve = self.s.values.resolve

        def array(frame):
            try:
                r = resolve(bound(frame))
            except (SsiError, ValueError):
                r = None
            n = to_int(r) if isinstance(r, Concrete) else 1
            return CType(kind=kind, of=of(frame), count=n)

        return array

    def _define_typedef(self, decl, frame=None):
        ctype = self._compile_type(decl.type, decl.file_id, decl.line)(frame or Frame(decl.name))
        if self.s.typedefs.get(decl.name) != ctype:
            self.s.typedefs[decl.name] = ctype
            for span in self._compiled:  # every compiled form is stale now
                span.compiled = None
            self._compiled.clear()

    # ----------------------------------------------------------- struct defs
    def _layout_from_corpus(self, tag):
        """The layout of the first file-scope body of ``tag``, in file
        order, else of the first block-scope one compiled."""
        if ";" in tag:  # an untagged body, tagged with its text
            return self._parse_struct_body(self._expand(tk.FileTokens(tag)), "<struct>")
        corpus = self.s.corpus
        for fid in corpus.files:
            if (span := corpus.records[fid].tags.get(tag)) is not None:
                body = corpus.tokens(fid)[span[0] + 1 : span[1]]
                return self._parse_struct_body(self._expand(body), fid)
        found = self._block_tags.get(tag)
        return None if found is None else self._parse_struct_body(found[1], found[0])

    def _parse_struct_body(self, toks, file_id) -> Layout:
        layout = Layout()
        i = 0
        n = len(toks)
        while i < n:
            decls, j = _declarations(toks, i, self.s.typedefs, member=True)
            for decl in decls:
                if decl.type.kind is FUNCTION:
                    continue
                if decl.name is not None:
                    ctype = self._compile_type(decl.type, file_id, toks[i].line)(Frame(decl.name))
                    layout.add(decl.name, ctype, self.s.store.size_of(ctype))
                elif ";" in (decl.type.tag or ""):
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
        if getattr(payload, "op", None) not in ("==", "!=") or (payload.op == "==") is not outcome:
            return  # only an equality found true or an inequality found false binds
        a, b = payload.operands
        for sym, other in ((a, b), (b, a)):
            conc = vals.resolve(other)
            if isinstance(sym.payload, SymbolRoot) and sym.id not in vals.bindings \
                    and isinstance(conc, Concrete):
                vals.concretize(sym, conc, "branch-comparison", at)
                return

    # -------------------------------------------------------------- pointers
    def deref_location(self, ptr: Value, at) -> tuple[int, int]:
        s = self.s
        r = s.values.resolve(ptr)
        if isinstance(r, Concrete):
            if s.absolute_region is None:
                s.absolute_region = s.store.alloc_region("absolute", STATIC).id
            return s.absolute_region, to_int(r)
        if r.pointer is not None:
            return r.pointer
        # The unbound root the pointer steps from gets a region of its own,
        # the under-constrained default for a pointer nobody modeled; a
        # symbolic index or offset is no pointer and stays as it is.
        if (root := s.values.stepped_root(ptr)) is not None:
            label = root.payload.label
            region = s.store.alloc_region(f"*{label}", OPAQUE)
            s.values.bind_pointer(root, s.values.addr_of(region.id, at,
                                                         desc=f"materialized *{label}"))
            s.emit_event("diagnostic", message=f"materialized region {region.id} for {label}")
            if (r := s.values.resolve(ptr)).pointer is not None:
                return r.pointer
        labels = s.values.labels_for(r.blockers)
        raise SymbolicAddress(
            f"cannot dereference symbolic pointer at {at[0]}:{at[1]} "
            f"(blocked by: {s.values.blocker_text(labels)})",
            blockers=labels,
        )

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
        if place.held:
            v = place.value
            if v is None:
                v = self.s.store.fresh(place, at)
        else:
            v = self.s.store.load((place.region, place.offset) if place.region is not None
                                  else self._through(place.ptr, place.offset, at), at=at)
        t = place.type
        if t.pointer:
            _pin(v, t.elem)
        return v

    def store_place(self, place: Place, value: Value, at):
        held = place.held
        if not held:  # the cell is found (``_through`` may mint) before converting
            cell = (place.region, place.offset) if place.region is not None \
                else self._through(place.ptr, place.offset, at)
        t = place.type
        if t.converts:
            value = self._converted(value, t, at)
        elif t.pointer:
            _pin(value, t.elem)
        if held:
            place.value = value
        else:
            self.s.store.store(cell, value, at)

    def _converted(self, value: Value, t: CType, at) -> Value:
        """``value`` as a variable of the narrow or unsigned integer type
        ``t`` holds it, or a function of that type returns it. A constant
        already in range is kept, and so is a value that does not resolve
        to a constant: a symbol stays the root that branches bind. Another wraps, as ``(T)value`` does, or for a
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
        placeholder or ``opaque`` gives a Value instead. A global is
        declared, by ``_declare``, on first use."""
        s = self.s
        if frame.is_snippet:
            if name == "opaque":
                return s.values.fresh_symbol(f"opaque@{at[0]}:{at[1]}", at, s.values.blame)
            v = frame.value_bindings.get(name)
            if v is not None:
                return v
        place = frame.locals.get(name) or s.globals.get(name)
        if place is None:  # an undeclared name is an int
            decl = s.global_decls.get(name) or Decl(name, INT, None, False)
            for macro, line in decl.unexpanded:
                s.emit_event("unexpanded-macro", name=macro, line=line)
            self._declare(decl, decl.file_id, decl.line, STATIC)(Frame(name))
            place = s.globals[name]
        return place

    def read_name(self, name: str, frame, at, name_at):
        """``value_of`` the name at ``name_at``, at ``at``; a name that is no
        frame local, or is in a snippet, goes through ``resolve_name``."""
        p = None if frame.is_snippet else frame.locals.get(name)
        if p is None:
            return self.value_of(self.resolve_name(name, frame, name_at), at)
        return self.address_of(p, at) if p.step or p.type.kind is ARRAY else self.load_place(p, at)

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
        if p.__class__ is not Place:
            return p
        return self.address_of(p, at) if p.step or p.type.kind is ARRAY else self.load_place(p, at)

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
            if t.kind is ARRAY:
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
            if base.held:  # ``x.f`` on a scalar: a member of its region's own
                self.s.store.spill(base)
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
        since = s.store.next_region
        for digits in placeholders:
            if int(digits) >= len(args):
                raise EvalError(f"snippet {template!r}: no argument {{{digits}}}")
            frame.value_bindings[f"__ssi_arg{digits}"] = args[int(digits)]
        s.frames.append(frame)
        try:
            (hole.compiled or self._body(hole, False))(frame)
        except EvalError as e:
            raise EvalError(f"snippet {template!r}: {e}", line=at[1])
        finally:
            s.frames.pop()
            s.store.release(since)

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
        region.display_base = base_value
        return self.s.values.addr_of(region.id, at, desc=f"mmio {label}")

    def string_value(self, data: str, key, at) -> Value:
        """The address of a string literal's array: its bytes ``data`` and
        a NUL, in one region for each ``key``, its site."""
        s = self.s
        rid = s.string_regions.get(key)
        if rid is None:
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


# How a block runs each built-in statement node, by its class.
_RUNNERS = {
    **dict.fromkeys((ExpressionStatementNode, DeclarationNode), Interp._exec_simple),
    **dict.fromkeys((WhileNode, DoWhileNode, ForNode), Interp._exec_loop),
    IfNode: Interp._exec_if,
    SwitchNode: Interp._exec_switch,
    ReturnNode: Interp._exec_return,
    RawNode: Interp._exec_raw,
    BlockNode: lambda interp, node, frame: (node.body.compiled or interp._body(node.body))(frame),
    GotoNode: lambda interp, node, frame: (GOTO, node.label),
    BreakNode: lambda *_: BREAK,
    ContinueNode: lambda *_: CONTINUE,
    LabelNode: lambda *_: None,
}


def _runner(node):
    """The runner of ``node``'s class, or of the built-in node class it
    derives from; another node raises as it runs."""
    return _RUNNERS.get(node.__class__) or next(
        (_RUNNERS[c] for c in node.__class__.__mro__ if c in _RUNNERS), _cannot_execute)


def _cannot_execute(interp, node, frame):
    raise EvalError(f"cannot execute node {type(node).__name__}", line=node.line)


# ------------------------------------------------------------------ compiler

# Kinds of compiled subexpression: what its closure returns when run. The
# compiler passes a subexpression around as (kind, closure, index); the
# index is where the identifier is in the token run for _NAME, a string
# literal's array size for its _VALUE, and None for any other.
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
        if kind is _NAME:  # the lookup ``fn`` makes, done in one call
            read_name, name = it.read_name, self.toks[index]
            name, name_at = name.text, (self.file_id, name.line)
            return lambda frame: read_name(name, frame, at, name_at)
        value_of = it.value_of
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
                store = self.it.s.store

                def address(frame):
                    p = place(frame)
                    if p.held:  # a local whose address is taken lives in the store
                        store.spill(p)
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
        elif kind == tk.STRING:  # with the literals after it, one (C11 5.1.1.2p6)
            while self.i < n and toks[self.i].kind == tk.STRING:
                self.i += 1
            data = "".join(unescape_c(x.text[1:-1]) for x in toks[i : self.i])
            string_value, key = self.it.string_value, (self.file_id, t.byte_offset, data)
            e = (_VALUE, lambda frame: string_value(data, key, at), len(data) + 1)
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
                                     parents=(a,))
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
        decls, j = _declarations(toks, start, typedefs)
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
            ctype = self.it._compile_type(decl.type, self.file_id, t.line)
            return _VALUE, lambda frame: vals.concrete(64, size_of(ctype(frame)), at,
                                                       desc="sizeof"), None
        # A string literal's size is its array's. A place is not loaded: its
        # size is its declared type's, and a pointer step's is a pointer's.
        # Any other operand, a snippet placeholder included, gives the width
        # of its value.
        kind, v, size = self.operand()
        if kind is _VALUE and size is not None:
            return _VALUE, lambda frame: vals.concrete(64, size, at, desc="sizeof"), None

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
        if ctype.pointer:  # a pointer step of no elements over the value
            elem = self.it._compile_type(ctype.elem, self.file_id, t.line)

            def pointer(frame):
                p = v(frame)
                r = vals.resolve(p)
                if r.__class__ is Concrete and r.width < 64:  # an address is 64 bits wide
                    p = vals.apply_cast(p, 64, False, at)
                return Place(None, p, 0, "*", elem(frame), True)

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
                text = it.s.corpus.text(self.file_id, name_tok, close_tok)
            except KeyError:
                pass
        site = CallSite(self.file_id, name_tok.line, text, compact)
        name = name_tok.text
        returns = it._returns.get(name)  # a declared pointer result is a step over it
        call_named = it.call_named

        def call(frame):
            values = []  # a loop, not a comprehension: no frame of its own
            for arg in args:
                values.append(arg(frame))
            return call_named(name, values, site)

        if returns is None or not returns.pointer:
            return _VALUE, call, None
        pointee = returns.elem
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
