"""The system-model API.

SSI authors register a handler per megasystem function. Handlers receive the
evaluated argument values plus interpreter services, and may execute C
snippets against session state. A declarative model file covers the common
cases (return a constant, return a fresh symbol, write a constant or a
device-tree address through a pointer argument, log arguments) so simple SSIs
need no host-language code at all.

Model-constructor expressions: ``(imm N)`` builds an immediate; ``(str X)``
wraps its inner expression unchanged, so ``(str (imm 0))`` and ``(imm 0)``
produce the same value. Other forms are not recognized.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field

from .dtsi import dtsi_find
from .errors import EvalError, SchemaError, UnsupportedOperation
from .values import Value

CHOSEN_DEVICE = "$chosen"


@dataclass
class Hook:
    name: str
    fn: object  # callable(HookContext) -> Value | None
    doc: str = ""


class HookContext:
    """Services a handler may use; they act on the calling session only."""

    def __init__(self, session, interp, args, site):
        self.session = session
        self.args: list[Value] = args
        self.site = site
        self._interp = interp

    def exec_snippet(self, template: str, args=()) -> None:
        """Run C statement text; ``{N}`` placeholders bind to the given
        values. ``(opaque)`` inside the snippet is a fresh symbolic value."""
        self._interp.exec_snippet(template, list(args), at=self.site.at)

    def make_concrete(self, width_bits: int, value: int, signed=False) -> Value:
        return self.session.values.concrete(
            width_bits, value, self.site.at,
            signed=signed, desc=f"hook {self.site.blame.callee} constant")

    def write_through(self, pointer: Value, value: Value) -> None:
        self._interp.write_through(pointer, value, at=self.site.at)

    def read_through(self, pointer: Value, width_bytes: int = 4) -> Value:
        return self._interp.read_through(pointer, width_bytes, at=self.site.at)

    def fresh_symbolic(self, label: str) -> Value:
        values = self.session.values
        return values.fresh_symbol(label, self.site.at, values.blame)

    def map_mmio(self, label: str, base_value: Value, size=None) -> Value:
        return self._interp.map_mmio(label, base_value, size, at=self.site.at)

    def emit_sexpr(self, template: str, args=()) -> Value:
        text = re.sub(r"\{(\d+)\}", lambda m: str(args[int(m.group(1))]), template)
        return parse_value_sexpr(self, text)

    def log(self, message: str) -> None:
        self.session.emit_event("diagnostic", message=message, line=self.site.line)


def parse_value_sexpr(ctx: HookContext, text: str) -> Value:
    """The Value ``text`` builds: a number, ``(imm N)`` of a number, or
    ``(str X)``; any other text, trailing tokens too, raises
    ``UnsupportedOperation`` naming it."""
    toks = text.replace("(", " ( ").replace(")", " ) ").split() + [""]  # "" ends it

    def parse(i):
        if toks[i] != "(":
            try:
                return int(toks[i], 0), i + 1
            except ValueError:
                raise UnsupportedOperation(
                    f"bad value expression atom {toks[i]!r} in {text!r}") from None
        head = toks[i + 1]
        if head != "imm" and head != "str":
            raise UnsupportedOperation(f"unknown value expression form {head!r} in {text!r}")
        inner, j = parse(i + 2)
        if toks[j] != ")" or head == "imm" and not isinstance(inner, int):
            raise UnsupportedOperation(f"malformed ({head} ...) in {text!r}")
        return (ctx.make_concrete(32, inner) if head == "imm" else inner), j + 1

    out, j = parse(0)
    if toks[j]:
        raise UnsupportedOperation(f"trailing {toks[j]!r} in value expression {text!r}")
    return ctx.make_concrete(32, out) if isinstance(out, int) else out


_ACTIONS = ("return_constant", "return_symbol", "write_through_arg", "log_args")


def load_declarative_model(session, path) -> int:
    """Register every entry of a declarative model file; returns the count.

    The file is JSON: ``{"models": [{"name": ..., <action>: {...}}, ...]}``
    with exactly one action key per entry. ``dtsi`` lookups resolve file
    paths relative to the model file; a compatible of ``"$chosen"`` uses the
    session's chosen device.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}:{e.lineno}: {e.msg}")
    if not isinstance(data, dict) or not isinstance(data.get("models"), list):
        raise SchemaError(f"{path}: expected a top-level {{\"models\": [...]}} object")
    base_dir = os.path.dirname(os.path.abspath(path))
    count = 0
    for index, entry in enumerate(data["models"]):
        where = f"{path}: models[{index}]"
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise SchemaError(f"{where}: missing string field 'name'")
        actions = [k for k in entry if k in _ACTIONS]
        extra = [k for k in entry if k not in _ACTIONS and k != "name"]
        if len(actions) != 1 or extra:
            raise SchemaError(
                f"{where}: expected exactly one action key of {_ACTIONS}, "
                f"got {actions + extra}")
        fn = _build_action(entry["name"], actions[0], entry[actions[0]],
                           base_dir, where)
        session.register_hook(entry["name"], fn, doc=f"declarative {actions[0]}")
        count += 1
    return count


def _build_action(name, action, spec, base_dir, where):
    if not isinstance(spec, dict):
        raise SchemaError(f"{where}: action body must be an object")
    if action == "return_constant":
        width = spec.get("width", 32)
        value = spec.get("value")
        if not isinstance(width, int) or not isinstance(value, int):
            raise SchemaError(f"{where}: return_constant needs integer width/value")
        return lambda ctx: ctx.make_concrete(width, value)
    if action == "return_symbol":
        label = spec.get("label")
        if not isinstance(label, str):
            raise SchemaError(f"{where}: return_symbol needs a string label")
        return lambda ctx: ctx.fresh_symbolic(label)
    if action == "log_args":
        fmt = spec.get("format", "{args}")
        if not isinstance(fmt, str):
            raise SchemaError(f"{where}: log_args format must be a string")

        def fn(ctx):
            shown = []
            for a in ctx.args:
                text, blocked = ctx._interp.display_value(a)
                shown.append(text if text is not None else "<symbolic>")
            ctx.log(fmt.replace("{args}", ", ".join(shown)))
            return ctx.make_concrete(32, 0)

        return fn
    # write_through_arg
    arg_index = spec.get("arg")
    if not isinstance(arg_index, int):
        raise SchemaError(f"{where}: write_through_arg needs an integer 'arg'")
    has_const = "constant" in spec
    has_dtsi = "dtsi" in spec
    if has_const == has_dtsi:
        raise SchemaError(f"{where}: write_through_arg needs exactly one of "
                          f"'constant' or 'dtsi'")
    if has_const:
        constant = spec["constant"]
        if not isinstance(constant, int):
            raise SchemaError(f"{where}: 'constant' must be an integer")
        written = lambda ctx: constant
    else:
        lookup = spec["dtsi"]
        if not isinstance(lookup, dict) or not isinstance(lookup.get("file"), str) \
                or not isinstance(lookup.get("compatible"), str):
            raise SchemaError(f"{where}: 'dtsi' needs string 'file' and 'compatible'")
        dtsi_path = lookup["file"]
        if not os.path.isabs(dtsi_path):
            dtsi_path = os.path.join(base_dir, dtsi_path)
        compatible = lookup["compatible"]

        def written(ctx):
            compat = compatible
            if compat == CHOSEN_DEVICE:
                compat = ctx.session.chosen_compatible
                if compat is None:
                    raise EvalError(f"model {name}: no device chosen for $chosen lookup")
            return dtsi_find(dtsi_path, compat)[0]

    def fn(ctx):
        value = written(ctx)
        if arg_index >= len(ctx.args):
            raise EvalError(f"model {name}: call has no argument {arg_index}")
        ctx.write_through(ctx.args[arg_index], ctx.make_concrete(32, value))
        return ctx.make_concrete(32, 0)

    return fn
