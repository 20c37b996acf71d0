"""Exception types shared across the framework."""


class SsiError(Exception):
    """Base class for all framework errors."""


class UnbalancedDelimiter(SsiError):
    """An opening delimiter has no matching close before end of file."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class NoRuleMatched(SsiError):
    """No statement rule applied (unreachable while the fallback is installed)."""


class UnsupportedOperation(SsiError):
    """Operator or construct outside the supported subset."""


class DivisionByConcreteZero(SsiError):
    """Division or modulo with a divisor known to be zero."""


class ConflictingBinding(SsiError):
    """A symbol was concretized twice with different values."""


class SymbolicAddress(SsiError):
    """A memory access whose address cannot be resolved to a cell."""

    def __init__(self, message, blockers=()):
        super().__init__(message)
        self.blockers = tuple(blockers)


class SymbolicBranch(SsiError):
    """Control flow depends on an unresolved symbolic condition."""

    def __init__(self, message, blockers=(), line=None):
        super().__init__(message)
        self.blockers = tuple(blockers)
        self.line = line


class StoppedAtBreakpoint(SsiError):
    """Execution hit a breakpoint and no debugger is attached to resume it."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class Interrupted(SsiError):
    """A command was interrupted (Ctrl-C) under a script, or twice."""


class MaxStepsExceeded(SsiError):
    """Statement budget for one command was exhausted."""


class CallDepthExceeded(SsiError):
    """C calls nested deeper than Python's recursion limit lets them run;
    ``line`` is the innermost call's."""

    line = None


class UnknownCommand(SsiError):
    """The REPL command is neither built in nor registered by the SSI."""


class NoSuchLocal(SsiError):
    """Variable not found in the inspected frame."""


class SchemaError(SsiError):
    """A declarative model file does not match the expected schema."""


class DtsiNotFound(SsiError):
    """No device-tree node matches the requested compatible string."""


class EvalError(SsiError):
    """Evaluation of an executed statement or expression failed."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class ConfigError(SsiError):
    """An SSI configuration file is invalid."""
