"""In-memory span tracing around the public functions of each ssi layer.

A span is (name, start, end, parent span, op id). Spans live in flat arrays
while the benchmark runs and are written out once, when the run ends. A
layer's self time is the sum of its spans' durations minus the time their
child spans cover.

The wrappers are installed from the benchmark's own files, at the name each
caller looks the function up under: ``ssi.interp`` binds
``parse_hole_as_block`` with ``from .islands import``, models bind
``dtsi_find`` when they are imported, and the interpreter reaches the
tokenizer and macro expander through their modules.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.calls: dict[str, int] = {}
        self.op_id = 0
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
        return nid

    def count(self, name: str, n: int = 1) -> None:
        self.calls[name] = self.calls.get(name, 0) + n

    def open(self, nid: int) -> int:
        sid = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else NO_PARENT)
        self.op.append(self.op_id)
        self.end.append(0.0)
        stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def innermost(self) -> int:
        """Name id of the innermost open span, or NO_PARENT."""
        return self.name[self._stack[-1]] if self._stack else NO_PARENT

    def wrap(self, name: str, fn, reentrant: bool = True):
        """``fn`` recording one span per call. With ``reentrant=False`` a
        call made while the innermost open span has the same name (a
        recursive call) passes straight through and is not counted."""
        nid = self.name_id(name)
        calls = self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not reentrant and self.innermost() == nid:
                return fn(*args, **kwargs)
            calls[name] += 1
            sid = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        return traced

    def self_times(self) -> dict[str, float]:
        """Per-name total self time in seconds."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for sid in range(n):
            p = parent[sid]
            if p != NO_PARENT:
                child[p] += end[sid] - start[sid]
        out = dict.fromkeys(self.names, 0.0)
        names = self.names
        for sid, nid in enumerate(self.name):
            out[names[nid]] += end[sid] - start[sid] - child[sid]
        return out

    def write(self, path) -> None:
        """One tab-separated line per span, after a header naming the spans."""
        names = self.names
        with open(path, "w", encoding="utf-8") as f:
            f.write("# names: " + " ".join(names) + "\n")
            f.write("name\tstart\tend\tparent\top\n")
            for sid in range(len(self.start)):
                f.write(f"{names[self.name[sid]]}\t{self.start[sid]:.9f}\t"
                        f"{self.end[sid]:.9f}\t{self.parent[sid]}\t{self.op[sid]}\n")


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


# (span name, owner, attribute, reentrant). Every owner is looked up lazily
# so a layer that a later change removes simply stops being traced.
LAYER_POINTS = (
    ("tokens.tokenize", "ssi.tokens", "tokenize", True),
    ("macros.scan_defines", "ssi.macros", "scan_defines", True),
    ("macros.expand", "ssi.macros", "expand", False),
    ("islands.parse_hole_as_block", "ssi.interp", "parse_hole_as_block", True),
    ("islands.parse_next_statement", "ssi.islands", "parse_next_statement", True),
    ("islands.parse_next_statement", "ssi.interp", "parse_next_statement", True),
    ("interp.exec_node", "ssi.interp:Interp", "exec_node", True),
    ("interp.eval_tokens", "ssi.interp:Interp", "eval_tokens", True),
    # Expression statements and initializers enter evaluation here, after
    # their tokens were expanded, instead of through eval_tokens.
    ("interp.eval_tokens", "ssi.interp:Interp", "_eval_expanded", True),
    ("interp.call_function_def", "ssi.interp:Interp", "call_function_def", True),
    ("values.resolve", "ssi.values:ValueTable", "resolve", True),
    ("values.apply_binop", "ssi.values:ValueTable", "apply_binop", True),
    ("memory.load", "ssi.memory:Store", "load", True),
    ("memory.store", "ssi.memory:Store", "store", True),
    ("dtsi.dtsi_find", "ssi.dtsi", "dtsi_find", True),
    ("dtsi.dtsi_find", "ssi.hooks", "dtsi_find", True),
    ("config.load_config", "ssi.config", "load_config", True),
    ("config.build_session", "ssi.config", "build_session", True),
)


def _owner(spec: str):
    import importlib

    module, _, cls = spec.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap every layer entry point; tokenize also counts the tokens made."""
    for name, owner_spec, attr, reentrant in LAYER_POINTS:
        owner = _owner(owner_spec)
        fn = getattr(owner, attr, None)
        if fn is None:
            continue
        if name == "tokens.tokenize":
            fn = _counting_tokens(tracer, fn)
        elif name == "islands.parse_hole_as_block":
            fn = _counting_hits(tracer, fn)
        patches.replace(owner, attr, tracer.wrap(name, fn, reentrant))


def _counting_tokens(tracer: Tracer, tokenize):
    @functools.wraps(tokenize)
    def counted(*args, **kwargs):
        toks = tokenize(*args, **kwargs)
        tracer.count("tokens.made", len(toks))
        return toks

    return counted


def _counting_hits(tracer: Tracer, parse_hole_as_block):
    """A call that parses no statement (a memoised or empty hole) is a hit."""

    @functools.wraps(parse_hole_as_block)
    def counted(*args, **kwargs):
        before = tracer.calls.get("islands.parse_next_statement", 0)
        nodes = parse_hole_as_block(*args, **kwargs)
        if tracer.calls.get("islands.parse_next_statement", 0) == before:
            tracer.count("islands.block_hits")
        return nodes

    return counted


def wrap_hooks(tracer: Tracer, session) -> None:
    """Record a ``hooks`` span around every registered model of a session."""
    for hook in session.hooks.values():
        hook.fn = tracer.wrap("hooks", hook.fn)
