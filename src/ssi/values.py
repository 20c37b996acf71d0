"""Semi-symbolic value algebra.

Values are concrete bit-vectors, symbolic roots, or term compositions over
earlier values. Operations compute concretely whenever every operand resolves
to a constant (following any bindings learned since the operands were
created); otherwise they build a term. Every value records where and how it
was created, and from which values, so a full provenance trace is always
available, and resolution failures report exactly which unbound roots are
blocking.

Values point at values: a term holds its operand Values, and a value its
parent Values, so a value that nothing holds is freed by reference counting.
The table keeps a mint counter for ids and, by id, only the symbol roots
that bindings, blockers and unmodeled calls name.

Widths are 8/16/32/64 bits with two's-complement wraparound. An operand
narrower than 32 bits is promoted to a signed 32-bit int of the same value
first, as C's integer promotions do (casts excepted); then both operands of a
binary operation convert to their common type, the wider one's or, at equal
widths, unsigned if either is (C's usual arithmetic conversions), and a
shift keeps its left operand's type; comparison and logical results are
32-bit 0/1. Signed right shift is arithmetic, division truncates toward
zero, and the remainder takes the dividend's sign. Each
binary operator has one kernel over two constants (``BINARY_KERNELS``), the
only arithmetic, whether the operands are constants when the operation runs
or resolve to constants later.

Resolution is memoized in each value's ``memo`` slot. Building a term
resolves its operands, so a value's first resolve takes one step: its result
from its operands' memoized results. A binding, a pointer binding or an mmio
base forgets every memoized Residual, and only a chain made stale that way
is walked, operands first, by a loop over the same step.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import ConflictingBinding, DivisionByConcreteZero, UnsupportedOperation

OP_ADDR = "addr-of-region"

UNARY_OPS = frozenset(["!", "~", "neg"])
_LOGICAL = frozenset(["&&", "||"])
# (operator, side: 0 left, 1 right) -> the constant that gives the other operand as is
_IDENTITY = {**{(op, side): 0 for op in ("+", "|", "^") for side in (0, 1)},
             ("-", 1): 0, ("<<", 1): 0, (">>", 1): 0, ("*", 0): 1, ("*", 1): 1}
_COMPARISONS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
                "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_ADDRESS_TESTS = frozenset(["!", *_COMPARISONS])


def _fields_repr(self) -> str:
    args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
    return f"{type(self).__name__}({args})"


class Record:
    """A record minted once per token, per value or per memory access:
    slotted, with a plain ``__init__``, and the equality, hash and repr of
    the frozen dataclass it replaced, all taken field by field in
    ``__slots__`` order. Records are never mutated after construction;
    unlike a frozen dataclass, nothing stops an assignment, so none is
    made."""

    __slots__ = ()
    __repr__ = _fields_repr

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())


class Concrete(Record):
    __slots__ = ("width", "bits", "signed")

    def __init__(self, width: int, bits: int, signed: bool = False):
        self.width = width
        self.bits = bits  # always reduced mod 2**width
        self.signed = signed


class SymbolRoot(Record):
    __slots__ = ("label",)

    def __init__(self, label: str):
        self.label = label


class Term(Record):
    """``op`` over its ``operands``, the Values it was built from (all
    minted earlier), or the address of ``region`` (``OP_ADDR``, no
    operands). The value minted for a term has the operand tuple itself as
    its ``parents``."""

    __slots__ = ("op", "operands", "region")

    def __init__(self, op: str, operands: tuple[Value, ...], region: int | None = None):
        self.op = op
        self.operands = operands
        self.region = region      # only for addr-of-region


def _ids(values) -> tuple[int, ...]:
    return tuple(v.id for v in values)


class Value:
    """One minted value: its payload and its provenance, that is where it
    was made (``at``, read as ``file`` and ``line``), how
    (``op_description``) and from which earlier Values (``parents``).
    ``memo`` holds its ``ValueTable.resolve`` result once there is one.
    Values compare by identity; ids are unique within a table. The repr
    names parents and a term's operands by id, since printing them whole
    would print every ancestor once per path to it."""

    __slots__ = ("id", "payload", "at", "op_description", "parents", "pointee", "memo")

    def __init__(self, id: int, payload, at: tuple[str, int], op_description: str,
                 parents: tuple[Value, ...] = ()):
        self.id = id
        self.payload = payload
        self.at = at  # (file, line), shared by every value a site mints
        self.op_description = op_description
        self.parents = parents
        self.pointee = None  # the ctype.CType a pointer value points at, if known
        self.memo = None

    def __repr__(self):
        fields = {f: getattr(self, f) for f in self.__slots__}
        fields["parents"] = _ids(self.parents)
        p = self.payload
        if p.__class__ is Term:
            fields["payload"] = Term(p.op, _ids(p.operands), p.region)
        return f"Value({', '.join(f'{f}={v!r}' for f, v in fields.items())})"

    @property
    def file(self) -> str:
        return self.at[0]

    @property
    def line(self) -> int:
        return self.at[1]


@dataclass(frozen=True)
class Binding:
    symbol: int
    bound: Concrete
    file: str
    line: int
    reason: str  # constant-assignment | branch-comparison | hook-supplied | user-supplied


class Residual(Record):
    """Resolution outcome for values that are not (yet) concrete.

    ``blockers`` are the ids of the unbound symbol roots in the way; binding
    all of them and re-resolving yields a concrete value. ``pointer`` is set
    when the value is structurally a pointer: (region id, byte offset).
    Region pointers without a concrete rendering carry empty blockers.
    """

    __slots__ = ("value_id", "blockers", "pointer")

    def __init__(self, value_id: int, blockers: tuple[int, ...],
                 pointer: tuple[int, int] | None = None):
        self.value_id = value_id
        self.blockers = blockers
        self.pointer = pointer


@dataclass(frozen=True)
class MissingCall:
    """The unmodeled API call a symbolic value traces back to."""

    callee: str
    call_text: str
    file: str
    line: int


_NOWHERE = ("<internal>", 0)


def to_int(c: Concrete) -> int:
    if c.signed and c.bits >> (c.width - 1):
        return c.bits - (1 << c.width)
    return c.bits


def make_concrete(width: int, value: int, signed: bool = False) -> Concrete:
    return Concrete(width, value & ((1 << width) - 1), signed)


# The 32-bit signed results of comparisons and of ``&&`` and ``||``; a
# Concrete is immutable, so every such result shares one of them.
_FALSE = Concrete(32, 0, True)
_TRUE = Concrete(32, 1, True)


def _common(a: Concrete, b: Concrete) -> tuple[Concrete, Concrete]:
    """``a`` and ``b``, two promoted operands of unequal widths, converted
    to their common type (C11 6.3.1.8): the wider one's. At equal widths it
    is unsigned if either operand is, and the kernels read that from the
    operands' signs, without converting."""
    w, signed = (a.width, a.signed) if a.width > b.width else (b.width, b.signed)
    mask = (1 << w) - 1
    return Concrete(w, to_int(a) & mask, signed), Concrete(w, to_int(b) & mask, signed)


def _wrapping(fn):
    """The kernel of an operator whose result is ``fn`` on the operands'
    bits in their common type, wrapped to its width."""

    def kernel(a: Concrete, b: Concrete) -> Concrete:
        if a.width != b.width:
            a, b = _common(a, b)
        w = a.width
        return Concrete(w, fn(a.bits, b.bits) & ((1 << w) - 1), a.signed and b.signed)

    return kernel


def _on_values(fn, compare=False):
    """The kernel of ``/``, ``%`` or a comparison (``compare``): ``fn`` on
    the operands' values in their common type, wrapped to its width, or
    for a comparison the int 0 or 1."""

    def kernel(a: Concrete, b: Concrete) -> Concrete:
        if a.width != b.width:
            a, b = _common(a, b)
        signed = a.signed and b.signed
        r = fn(to_int(a), to_int(b)) if signed else fn(a.bits, b.bits)
        if compare:
            return _TRUE if r else _FALSE
        return Concrete(a.width, r & ((1 << a.width) - 1), signed)

    return kernel


def _shift(fn):
    """The kernel of ``<<`` or ``>>``: in the left operand's type, by the
    count modulo its width; a negative signed value shifts arithmetically."""

    def kernel(a: Concrete, b: Concrete) -> Concrete:
        w = a.width
        return Concrete(w, fn(to_int(a), to_int(b) % w) & ((1 << w) - 1), a.signed)

    return kernel


def _quotient(x: int, y: int) -> int:
    """C's ``x / y``: truncated toward zero, so ``x % y`` takes ``x``'s sign."""
    if y == 0:
        raise DivisionByConcreteZero("division by zero")
    q = abs(x) // abs(y)
    return -q if (x < 0) != (y < 0) else q


# One arithmetic over two constants, C-style: the kernel of each binary
# operator. ``apply_binop`` runs it on two constant operands and ``_combine``
# on two that resolve to constants.
BINARY_KERNELS = {
    "+": _wrapping(operator.add), "-": _wrapping(operator.sub),
    "*": _wrapping(operator.mul), "&": _wrapping(operator.and_),
    "|": _wrapping(operator.or_), "^": _wrapping(operator.xor),
    "/": _on_values(_quotient), "%": _on_values(lambda x, y: x - _quotient(x, y) * y),
    "<<": _shift(operator.lshift), ">>": _shift(operator.rshift),
    **{op: _on_values(fn, compare=True) for op, fn in _COMPARISONS.items()},
    "&&": lambda a, b: _TRUE if a.bits and b.bits else _FALSE,
    "||": lambda a, b: _TRUE if a.bits or b.bits else _FALSE,
}


def promoted(c: Concrete) -> Concrete:
    """``c`` after C's integer promotions: an int of the same value when it
    is narrower than 32 bits."""
    return c if c.width >= 32 else Concrete(32, to_int(c) & 0xFFFFFFFF, True)


def concrete_unop(op: str, a: Concrete) -> Concrete:
    if op == "~" or op == "neg":
        a = promoted(a)
    av = to_int(a)
    mask = (1 << a.width) - 1
    if op == "!":
        return Concrete(32, int((av & mask) == 0), True)
    if op == "~":
        return Concrete(a.width, (~av) & mask, a.signed)
    if op == "neg":
        return Concrete(a.width, (-av) & mask, a.signed)
    if op.startswith("cast"):
        width, signed = parse_cast_op(op)
        return Concrete(width, av & ((1 << width) - 1), signed)
    raise UnsupportedOperation(f"operator {op!r}")


def _truth(r) -> bool | None:
    """``ValueTable.truth`` of a resolved value."""
    if isinstance(r, Concrete):
        return r.bits != 0
    return True if r.pointer is not None and not r.blockers else None


def _address(r) -> tuple | None:
    """(region, offset) of an address that nothing blocks, and ``(None, 0)``
    for the constant 0, an address in a region of its own; else None."""
    if isinstance(r, Residual):
        return r.pointer
    return (None, 0) if r.bits == 0 else None


def cast_op(width: int, signed: bool) -> str:
    return f"cast{width}{'s' if signed else 'u'}"


def parse_cast_op(op: str) -> tuple[int, bool]:
    return int(op[4:-1]), op.endswith("s")


class ValueTable:
    """A session's minting of values, its bindings, and blocker metadata.

    It holds no value it has minted except the symbol roots, by id in
    ``roots``, since bindings, blockers and ``missing_calls`` name them by
    id; ``len`` counts the values minted. A value's ``resolve`` result is
    memoized on the value. A Concrete one is final, since bindings only
    grow; a Residual one holds until a binding is added or an mmio base is
    set, and its value is listed for forgetting then."""

    def __init__(self):
        self._minted = 0
        self.roots: dict[int, Value] = {}  # symbol id -> its SymbolRoot value
        self.bindings: dict[int, Binding] = {}
        self.pointer_bindings: dict[int, Value] = {}  # symbol id -> pointer value
        self.missing_calls: dict[int, MissingCall] = {}  # symbol id -> its fresh_symbol cause
        self.blame: MissingCall | None = None  # the modeled call that is running
        self.region_lookup = None  # callable(region_id) -> Region | None
        self._residuals: list[Value] = []  # the values whose memo is a Residual

    def __len__(self):
        return self._minted

    def get(self, vid: int) -> Value:
        """The symbol root whose id is ``vid``."""
        return self.roots[vid]

    def mint(self, payload, at, desc, parents=()) -> Value:
        """A new value of ``payload``, made at ``at`` (file, line) as
        ``desc`` from the ``parents`` Values; a payload may be shared, since
        none is ever changed."""
        v = Value(self._minted, payload, at, desc, parents)
        self._minted += 1
        return v

    # ------------------------------------------------------------------ make
    def concrete(self, width: int, value: int, at=_NOWHERE, signed=False, desc=None, parents=()):
        c = make_concrete(width, value, signed)
        return self.mint(c, at, desc or f"literal {to_int(c)}", parents)

    def fresh_symbol(self, label: str, at=_NOWHERE, cause: MissingCall | None = None) -> Value:
        v = self.mint(SymbolRoot(label), at, f"symbol {label}")
        self.roots[v.id] = v
        if cause is not None:
            self.missing_calls[v.id] = cause
        return v

    def addr_of(self, region_id: int, at=_NOWHERE, desc=None) -> Value:
        return self.mint(Term(OP_ADDR, (), region_id), at, desc or f"&region {region_id}")

    # ------------------------------------------------------------ operations
    def apply_binop(self, op: str, lhs: Value, rhs: Value, at=_NOWHERE) -> Value:
        kernel = BINARY_KERNELS.get(op)
        if kernel is None:
            raise UnsupportedOperation(f"operator {op!r}")
        a, b = lhs.payload, rhs.payload  # two constants need no resolving
        if a.__class__ is not Concrete or b.__class__ is not Concrete:
            a, b = self.resolve(lhs), self.resolve(rhs)
        if b.__class__ is Concrete and b.bits == 0 and (op == "/" or op == "%"):
            raise DivisionByConcreteZero(f"division by zero at line {at[1]}")
        if a.__class__ is Concrete and b.__class__ is Concrete:
            if a.width < 32 or b.width < 32:  # C's integer promotions
                a, b = promoted(a), promoted(b)
            return self.mint(kernel(a, b), at, op, (lhs, rhs))
        folded = self._identity_fold(op, lhs, a, rhs, b, at)
        if folded is not None:
            return folded
        operands = (lhs, rhs)
        v = self.mint(Term(op, operands), at, op, operands)
        v.pointee = lhs.pointee or rhs.pointee
        return v

    def _identity_fold(self, op, lhs, ra, rhs, rb, at):
        """``lhs op rhs`` when the one constant operand decides it: the
        identity of ``op`` on its side gives the other operand, and a zero
        factor of ``*`` or ``&`` gives zero; else None.

        The identity gives the other operand only where C's usual
        conversions leave that operand's type alone: the constant is a
        signed type no wider than an int, or a shift count, or the other
        operand is a pointer. ``x + 0u`` is unsigned, so it is a term."""
        if rb.__class__ is Concrete:
            side, c, other, r = 1, rb, lhs, ra
        elif ra.__class__ is Concrete:
            side, c, other, r = 0, ra, rhs, rb
        else:
            return None
        if _IDENTITY.get((op, side)) == c.bits and (
                c.signed and c.width <= 32 or op == "<<" or op == ">>"
                or r.pointer is not None):
            return other
        if c.bits == 0 and (op == "*" or op == "&"):
            return self.mint(Concrete(c.width, 0, c.signed), at, op, (lhs, rhs))
        return None

    def apply_unop(self, op: str, operand: Value, at=_NOWHERE) -> Value:
        if op not in UNARY_OPS and not op.startswith("cast"):
            raise UnsupportedOperation(f"operator {op!r}")
        r = self.resolve(operand)
        if isinstance(r, Concrete):
            return self.mint(concrete_unop(op, r), at, op, (operand,))
        operands = (operand,)
        v = self.mint(Term(op, operands), at, op, operands)
        if op.startswith("cast"):
            v.pointee = operand.pointee
        return v

    def apply_cast(self, operand: Value, width: int, signed: bool, at=_NOWHERE) -> Value:
        return self.apply_unop(cast_op(width, signed), operand, at)

    # -------------------------------------------------------------- bindings
    def concretize(self, symbol: Value, bound: Concrete, reason: str, at=_NOWHERE) -> Binding:
        if not isinstance(symbol.payload, SymbolRoot):
            raise UnsupportedOperation("concretize target is not a symbol root")
        old = self.bindings.get(symbol.id)
        if old is not None:
            if old.bound.bits == bound.bits and old.bound.width == bound.width:
                return old
            raise ConflictingBinding(
                f"{symbol.payload.label} already bound to {to_int(old.bound)}, "
                f"cannot rebind to {to_int(bound)}"
            )
        if symbol.id in self.pointer_bindings:
            raise ConflictingBinding(
                f"{symbol.payload.label} already materialized as a pointer"
            )
        b = Binding(symbol.id, bound, at[0], at[1], reason)
        self.bindings[symbol.id] = b
        self.forget_residuals()
        return b

    def bind_pointer(self, symbol: Value, pointer: Value):
        """Materialize an unbound symbol as a pointer (first dereference)."""
        if symbol.id in self.bindings:
            raise ConflictingBinding(
                f"{symbol.payload.label} already bound to a constant"
            )
        if symbol.id not in self.pointer_bindings:
            self.pointer_bindings[symbol.id] = pointer
            self.forget_residuals()

    def forget_residuals(self) -> None:
        """Drop memoized Residual results; call when what they depend on
        (bindings, an mmio region's displayed base) changes."""
        for v in self._residuals:
            v.memo = None
        self._residuals.clear()

    # ------------------------------------------------------------- resolving
    def truth(self, v) -> bool | None:
        """Whether ``v`` is nonzero: a constant by its bits, and an address
        that nothing blocks is (it is never 0); None when neither rule holds."""
        return _truth(self.resolve(v))

    def resolve(self, value: Value) -> Concrete | Residual:
        """Fold a value as far as possible, iteratively (no recursion).

        Returns a Concrete, or a Residual naming every unbound root that
        blocks concrete resolution. Address-of values always resolve to a
        Residual carrying their (region, offset); an mmio region's displayed
        base participates, so its blockers propagate into addresses. A
        constant is its own result and is never memoized.

        A memo miss takes one step (``_step``): a term's result comes from
        its operands' results, which are constants or memoized already,
        since building a term resolves its operands. Only a chain that a
        binding, a pointer binding or an mmio base made stale has operands
        that are not, and ``_fold`` walks it.
        """
        payload = value.payload
        if payload.__class__ is Concrete:
            return payload
        out = value.memo
        if out is None:
            out = self._step(value, payload)
            if out.__class__ is tuple:
                self._fold(value, out)
                out = value.memo
        return out

    def _step(self, v, payload):
        """One step of resolving the non-constant, unmemoized value ``v`` of
        ``payload``: its result, memoized, when every value it reads is a
        constant or memoized; else the tuple of the values it waits on.

        A root reads its binding or its pointer's result (a Residual of the
        root's own id), an address is a Residual of (region, 0), blocked by
        its mmio base's blockers if it has one, and a term combines its
        operands' results."""
        if payload.__class__ is SymbolRoot:
            vid = v.id
            b = self.bindings.get(vid)
            p = self.pointer_bindings.get(vid)
            if b is not None:
                r = b.bound
            elif p is None:
                r = Residual(vid, (vid,))
            else:
                r = p.payload
                if r.__class__ is not Concrete:
                    r = p.memo
                    if r is None:
                        return (p,)
                    if r.__class__ is Residual:
                        r = Residual(vid, r.blockers, r.pointer)
        elif payload.op == OP_ADDR:
            base = self._mmio_base(payload.region)
            if base is None:
                r = Residual(v.id, (), (payload.region, 0))
            else:
                m = base.payload
                if m.__class__ is not Concrete:
                    m = base.memo
                    if m is None:
                        return (base,)
                blockers = () if m.__class__ is Concrete else m.blockers
                r = Residual(v.id, blockers, (payload.region, 0))
        else:
            operands = payload.operands
            if len(operands) == 2:
                x, y = operands
                a = x.payload
                if a.__class__ is not Concrete:
                    a = x.memo
                b = y.payload
                if b.__class__ is not Concrete:
                    b = y.memo
                if a is None:
                    return operands if b is None else (x,)
                if b is None:
                    return (y,)
                r = self._combine(v.id, payload.op, a, b)
            else:
                x, = operands
                a = x.payload
                if a.__class__ is not Concrete:
                    a = x.memo
                    if a is None:
                        return operands
                r = self._combine(v.id, payload.op, a)
        v.memo = r
        if r.__class__ is Residual:
            self._residuals.append(v)
        return r

    def _fold(self, root: Value, pending: tuple[Value, ...]) -> None:
        """Memoize the result of ``root``, whose step waits on the
        ``pending`` values, and of every value it depends on that is not
        memoized yet: the ``_step`` of each, operands first, on a stack."""
        step = self._step
        stack = [root, *pending]
        while stack:
            v = stack[-1]
            if v.memo is not None:
                stack.pop()
                continue
            r = step(v, v.payload)
            if r.__class__ is tuple:
                stack.extend(r)
            else:
                stack.pop()

    def _mmio_base(self, region_id):
        if self.region_lookup is None:
            return None
        region = self.region_lookup(region_id)
        if region is not None and getattr(region, "display_base", None) is not None:
            return region.display_base
        return None

    def _address_test(self, op: str, a, b) -> Concrete | None:
        """``!`` (``b`` None) or a comparison on the results ``a`` and ``b``
        of region addresses that nothing blocks, where these rules decide
        it: an address is never 0, two regions never overlap, and addresses
        in one region order by offset; else None. Two regions that may alias
        (``_may_alias``) stay a term."""
        if op == "!":
            return _FALSE if a.pointer else None
        a, b = _address(a), _address(b)
        if a is None or b is None:
            return None
        if a[0] == b[0]:
            return _TRUE if _COMPARISONS[op](a[1], b[1]) else _FALSE
        if (op == "==" or op == "!=") and not self._may_alias(a[0], b[0]):
            return _TRUE if op == "!=" else _FALSE
        return None

    def _may_alias(self, a, b) -> bool:
        """Whether the distinct regions ``a`` and ``b`` (None for 0) may be
        one memory: an opaque region, a pointer nobody modeled, may be any
        region but 0."""
        if a is None or b is None or self.region_lookup is None:
            return False
        return any(getattr(self.region_lookup(r), "kind", None) == "opaque"  # memory.OPAQUE
                   for r in (a, b))

    def _combine(self, vid, op, a, b=None):
        """The result of value ``vid``, the term ``op`` over operands whose
        results are ``a`` and, for a binary operator, ``b``."""
        if b is None:
            if a.__class__ is Concrete:
                return concrete_unop(op, a)
            blockers = a.blockers
        elif a.__class__ is Concrete:
            if b.__class__ is Concrete:
                if a.width < 32 or b.width < 32:  # as in ``apply_binop``
                    a, b = promoted(a), promoted(b)
                return BINARY_KERNELS[op](a, b)
            blockers = b.blockers
        elif b.__class__ is Concrete:
            blockers = a.blockers
        else:
            blockers = a.blockers + b.blockers
            if len(blockers) > 1:
                blockers = tuple(dict.fromkeys(blockers))
        if not blockers and op in _ADDRESS_TESTS:
            decided = self._address_test(op, a, b)
            if decided is not None:
                return decided
        if op in _LOGICAL:  # a true operand decides ``||``, a false one ``&&``
            decider = op == "||"
            ta, tb = _truth(a), _truth(b)
            if ta is decider or tb is decider:
                return _TRUE if decider else _FALSE
            if ta is not None and tb is not None:
                return _FALSE if decider else _TRUE
        pointer = None
        if b is None:
            if op.startswith("cast"):
                pointer = a.pointer
        elif op == "+" or op == "-":
            if a.__class__ is Residual and a.pointer and b.__class__ is Concrete:
                rid, off = a.pointer
                delta = to_int(b)
                pointer = (rid, off + delta if op == "+" else off - delta)
            elif op == "+" and b.__class__ is Residual and b.pointer and a.__class__ is Concrete:
                rid, off = b.pointer
                pointer = (rid, off + to_int(a))
            elif (op == "-" and a.__class__ is Residual and b.__class__ is Residual
                  and a.pointer and b.pointer and a.pointer[0] == b.pointer[0]):
                # The region's base, and whatever blocks it, cancels out.
                return make_concrete(64, a.pointer[1] - b.pointer[1], True)
        return Residual(vid, blockers, pointer)

    def stepped_root(self, v: Value):
        """The symbol root that ``v``, a pointer, steps from, as ``_combine``
        carries a pointer: ``v`` itself, or the root under a chain of casts
        and of ``+`` or ``-`` whose other operand is constant; else None."""
        while (p := v.payload).__class__ is not SymbolRoot:
            op = getattr(p, "op", "")
            if op.startswith("cast"):
                v = p.operands[0]
            elif (op == "+" or op == "-") and self.resolve(p.operands[1]).__class__ is Concrete:
                v = p.operands[0]
            elif op == "+" and self.resolve(p.operands[0]).__class__ is Concrete:
                v = p.operands[1]
            else:
                return None
        return v

    # ------------------------------------------------------------ provenance
    @staticmethod
    def provenance_trace(v: Value):
        """Topologically ordered ancestry from roots to ``v``.

        Each entry is (value id, (file, line), op description, parent ids);
        creation order is a topological order because operands always predate
        the terms built over them.
        """
        seen = {}
        frontier = [v]
        while frontier:
            x = frontier.pop()
            if x.id not in seen:
                seen[x.id] = x
                frontier.extend(x.parents)
        return [(vid, x.at, x.op_description, _ids(x.parents))
                for vid, x in sorted(seen.items())]

    def labels_for(self, blocker_ids) -> list[str]:
        """The labels of the symbol roots whose ids are ``blocker_ids``."""
        return [self.roots[b].payload.label for b in blocker_ids]

    @staticmethod
    def blocker_text(labels) -> str:
        """Blocker labels as a message quotes them: ``opaque value`` when no
        named root blocks."""
        return ", ".join(labels) or "opaque value"
