"""One interpretation session: values, memory, hooks, events, debugger state.

A session is owned by one logical thread. It may be handed between threads,
but nothing here synchronizes concurrent mutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ctype import INT, CType
from .hooks import Hook
from .islands import Corpus, RuleRegistry
from .memory import Store
from .values import Value, ValueTable

ASK = "ask"
ASSUME_TRUE = "assume-true"
ASSUME_FALSE = "assume-false"
FAIL = "fail"
BRANCH_POLICIES = (ASK, ASSUME_TRUE, ASSUME_FALSE, FAIL)

DEFAULT_MAX_STEPS = 1_000_000
INTERRUPT = "interrupt"  # a ``stop_next`` that Ctrl-C set, which a loop pass takes too


@dataclass(slots=True)
class ModelEvent:
    seq: int
    kind: str  # call | hook | missing-model | write | diagnostic | unexpanded-macro
    callee: str | None = None
    call_text: str | None = None
    file: str | None = None
    line: int | None = None
    args: tuple | None = None
    address: str | None = None
    value: int | None = None
    message: str | None = None
    name: str | None = None


@dataclass
class CommandSpec:
    entry: str
    params: dict[str, int] = field(default_factory=dict)  # name -> 1-based argv index


@dataclass(slots=True)
class Place:
    """An lvalue of a declared C type: a direct (region, offset) cell or a
    deref of a pointer. A variable's is built when it is declared (a global:
    when first used); an element, field or deref takes its base's type's. A
    pointer step (``p + n``) is the element it points at with ``step`` set:
    its value is its address, as an array's is.

    A scalar local is ``held``: its ``value`` is kept here, not in the
    store, under a region id the store reserved for it, and it moves to the
    store (``Store.spill``) when its address is first taken. An unset one
    has no ``value`` yet."""

    region: int | None = None
    ptr: Value | None = None
    offset: object = 0  # int, or a Value resolved at access time
    name: str = ""
    type: CType = INT
    step: bool = False
    held: bool = False
    value: Value | None = None

    @property
    def width(self) -> int:
        return self.type.width


@dataclass(slots=True)
class Frame:
    function: str
    locals: dict[str, Place] = field(default_factory=dict)
    value_bindings: dict[str, Value] = field(default_factory=dict)  # snippet placeholders
    is_snippet: bool = False


class Session:
    def __init__(
        self,
        corpus: Corpus,
        rules: RuleRegistry | None = None,
        branch_policy: str = FAIL,
        max_steps: int = DEFAULT_MAX_STEPS,
        out=None,
    ):
        self.corpus = corpus
        self.rules = rules or RuleRegistry()
        self.values = ValueTable()
        self.store = Store(self.values)

        self.branch_policy = branch_policy
        self.max_steps = max_steps
        self.steps = 0

        self.hooks: dict[str, object] = {}
        self.events: list[ModelEvent] = []
        self._seq = 0

        self.frames: list[Frame] = []
        self.globals: dict[str, Place] = {}
        self.typedefs: dict[str, CType] = {}  # name -> the type it stands for
        self.global_decls: dict[str, object] = {}  # name -> Decl
        self.string_regions: dict[tuple, int] = {}
        self.absolute_region: int | None = None

        self.commands: dict[str, CommandSpec] = {}
        self.command_params: dict[str, int] = {}
        self.dtsi_files: list = []
        self.chosen_compatible: str | None = None

        self.breakpoints: dict[tuple, object] = {}  # (file or None, line) -> Breakpoint
        self.trace_specs: dict[str, object] = {}    # callee -> TraceSpec
        self.stop_handler = None   # callable(position) -> "continue" | "step"
        self.stop_next = False     # True or INTERRUPT: suspend before the next statement
        self.ask = None            # callable(prompt) -> bool, for the ask policy

        self.parse_events: list[tuple[str, int, str]] = []
        self.batch_failed = False  # a command of a script failed: ssi exits 1
        self.out = out

    # ---------------------------------------------------------------- events
    def emit_event(self, kind: str, callee=None, call_text=None, file=None, line=None,
                   args=None, address=None, value=None, message=None,
                   name=None) -> ModelEvent:
        # ModelEvent's fields as parameters: keywords bind without a dict.
        ev = ModelEvent(self._seq, kind, callee, call_text, file, line, args, address,
                        value, message, name)
        self._seq += 1
        self.events.append(ev)
        return ev

    def emit_line(self, text: str) -> None:
        if self.out is not None:
            self.out(text)

    def events_of(self, kind: str) -> list[ModelEvent]:
        return [e for e in self.events if e.kind == kind]

    # ----------------------------------------------------------------- hooks
    def register_hook(self, name: str, fn, doc: str = "") -> None:
        if name in self.hooks:
            self.emit_event("diagnostic", name=name,
                            message=f"hook {name} re-registered; replacing")
        self.hooks[name] = Hook(name, fn, doc)

    def unregister_hook(self, name: str) -> None:
        self.hooks.pop(name, None)

    def on_parse(self, node) -> None:
        self.parse_events.append((node.file_id, node.line, type(node).__name__))

    # ------------------------------------------------------------- debugging
    def breakpoint_at(self, file_id: str, line: int):
        return self.breakpoints.get((file_id, line)) or self.breakpoints.get((None, line))

    def reset_for_command(self) -> None:
        self.steps = 0
        self.stop_next = False
        self.command_params = {}
