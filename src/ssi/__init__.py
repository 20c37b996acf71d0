"""ssi: build system-specific interpreters for modules of large C codebases.

The pipeline: each source file's code tokens (its preprocessor lines kept
beside them; text is read from the source by offsets) feed an island parser
whose statement rules capture balanced spans as lazily-parsed holes; each
hole control reaches compiles into closures that run over a semi-symbolic
value algebra and a region-offset memory; unmodeled system API calls return
fresh symbols whose provenance names the call that should be modeled; a
gdb-style REPL steers it all. See README.md for a walkthrough of the bundled
pin-controller SSI.
"""

from .config import SsiConfig, build_session, load_config
from .dtsi import dtsi_find, list_compatibles, parse_dtsi
from .errors import SsiError
from .hooks import Hook, HookContext, load_declarative_model
from .interp import Interp
from .islands import (
    Corpus,
    Hole,
    RuleRegistry,
    find_function_definition,
    parse_hole_as_block,
    parse_next_statement,
)
from .memory import Location, Region, Store
from .repl import Breakpoint, Repl, TraceSpec, run_script
from .session import CommandSpec, Frame, ModelEvent, Session
from .tokens import Cursor, Token, find_balanced_span, tokenize
from .values import (
    Binding,
    Concrete,
    Residual,
    SymbolRoot,
    Term,
    Value,
    ValueTable,
)

__all__ = [
    "Binding", "Breakpoint", "CommandSpec", "Concrete", "Corpus", "Cursor",
    "Frame", "Hole", "Hook", "HookContext", "Interp", "Location",
    "ModelEvent", "Region", "Repl", "Residual", "RuleRegistry", "Session",
    "SsiConfig", "SsiError", "Store", "SymbolRoot", "Term", "Token",
    "TraceSpec", "Value", "ValueTable", "build_session", "dtsi_find",
    "find_balanced_span", "find_function_definition", "list_compatibles",
    "load_config", "load_declarative_model", "parse_dtsi",
    "parse_hole_as_block", "parse_next_statement", "run_script", "tokenize",
]

__version__ = "0.1.0"
