import dataclasses
import gc
import shutil
import subprocess
import tracemalloc
from collections import Counter

import pytest
from conftest import local_concrete, make_session, record_mints, run_function
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssi.errors import (
    ConflictingBinding,
    DivisionByConcreteZero,
    UnsupportedOperation,
)
from ssi.memory import Location, Region
from ssi.session import Place
from ssi.values import (
    OP_ADDR,
    Concrete,
    Residual,
    SymbolRoot,
    Term,
    Value,
    ValueTable,
    make_concrete,
    to_int,
)

AT = ("t.c", 1)


def table():
    return ValueTable()


# -------------------------------------------------------- reference oracle

def oracle_int(width, bits, signed):
    bits &= (1 << width) - 1
    if signed and bits >> (width - 1):
        return bits - (1 << width)
    return bits


def oracle_promote(width, bits, signed):
    """C's integer promotions: an operand narrower than 32 bits becomes a
    signed 32-bit int of the same value."""
    if width >= 32:
        return (width, bits, signed)
    return (32, oracle_int(width, bits, signed) & 0xFFFFFFFF, True)


def oracle_binop(op, a, b):
    """Big-integer evaluation mod 2**width, written independently of the
    value module: integer promotions, then both operands converted to their
    common type (C11 6.3.1.8: the wider operand's type, or at equal widths
    unsigned if either operand is), except that a shift takes its left
    operand's type (6.5.7p3); truncating division, arithmetic right shift
    for a signed left operand."""
    a, b = oracle_promote(*a), oracle_promote(*b)
    if op in ("<<", ">>"):
        w, rs = a[0], a[2]
    elif a[0] == b[0]:
        w, rs = a[0], a[2] and b[2]
    else:
        w, rs = (a[0], a[2]) if a[0] > b[0] else (b[0], b[2])
    mask = (1 << w) - 1
    av = oracle_int(w, oracle_int(*a), rs)
    bv = oracle_int(*b) if op in ("<<", ">>") else oracle_int(w, oracle_int(*b), rs)
    if op in ("==", "!=", "<", "<=", ">", ">="):
        table_ = {"==": av == bv, "!=": av != bv,
                  "<": av < bv, "<=": av <= bv, ">": av > bv, ">=": av >= bv}
        return (32, int(table_[op]), True)
    if op in ("&&", "||"):
        ta, tb = av != 0, bv != 0
        return (32, int(ta and tb if op == "&&" else ta or tb), True)
    if op == "+":
        r = av + bv
    elif op == "-":
        r = av - bv
    elif op == "*":
        r = av * bv
    elif op in ("/", "%"):
        q = abs(av) // abs(bv)
        if (av < 0) != (bv < 0):
            q = -q
        r = q if op == "/" else av - q * bv
    elif op == "&":
        r = (av & mask) & (bv & mask)
    elif op == "|":
        r = (av & mask) | (bv & mask)
    elif op == "^":
        r = (av & mask) ^ (bv & mask)
    elif op == "<<":
        r = av << (bv % w)
    elif op == ">>":
        r = av >> (bv % w)
    else:
        raise AssertionError(op)
    return (w, r & mask, rs)


ALL_OPS = ["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
           "==", "!=", "<", "<=", ">", ">=", "&&", "||"]

operand = st.tuples(
    st.sampled_from([8, 16, 32, 64]),
    st.integers(min_value=0, max_value=(1 << 64) - 1),
    st.booleans(),
).map(lambda t: (t[0], t[1] & ((1 << t[0]) - 1), t[2]))


INT_MIN = (32, 1 << 31, True)
MINUS_ONE = (32, (1 << 32) - 1, True)


@settings(max_examples=2000)
@given(st.sampled_from(ALL_OPS), operand, operand)
@example("/", INT_MIN, MINUS_ONE)                # wraps back to INT_MIN
@example("%", (32, (1 << 32) - 7, True), (32, 2, True))  # -7 % 2 == -1
@example("/", (8, 0xF9, True), (64, 2, False))   # -7 converted to unsigned long
@example("<<", (32, 1, False), (32, 33, False))  # the count modulo the width
@example(">>", MINUS_ONE, (8, 4, False))         # arithmetic on a signed value
@example("<", MINUS_ONE, (32, 0, False))         # unsigned when one side is
@example("&&", (64, 1 << 40, False), (8, 2, True))  # true on any set bit
@example("%", (16, 5, True), (16, 0, True))     # a zero divisor
def test_concrete_closure_matches_oracle(op, a, b):
    """``apply_binop`` on two constants runs its operator's kernel at once,
    and resolution runs the same kernel on two symbols bound to them later:
    both give the reference's constant. A zero divisor raises, naming the
    line on the first path."""
    vals = table()
    va = vals.concrete(a[0], a[1], AT, signed=a[2])
    vb = vals.concrete(b[0], b[1], AT, signed=b[2])
    sa, sb = vals.fresh_symbol("a", AT), vals.fresh_symbol("b", AT)
    term = vals.apply_binop(op, sa, sb, AT)
    vals.concretize(sa, va.payload, "user-supplied", AT)
    vals.concretize(sb, vb.payload, "user-supplied", AT)
    if op in ("/", "%") and b[1] == 0:
        with pytest.raises(DivisionByConcreteZero, match="at line 1"):
            vals.apply_binop(op, va, vb, AT)
        with pytest.raises(DivisionByConcreteZero):
            vals.resolve(term)
        return
    expected = Concrete(*oracle_binop(op, a, b))
    assert vals.apply_binop(op, va, vb, AT).payload == expected
    assert vals.resolve(term) == expected


# C expressions, each with the value gcc 12.2 (x86-64) prints for
# ``(long)(expr)``. In the first rows, the integer promotions make every
# operand narrower than int an int before the operator runs.
PROMOTION_CASES = [
    ("(unsigned char)200 + (unsigned char)100", 300),
    ("-1 < (unsigned char)1", 1),
    ("(short)-1 < (unsigned short)1", 1),
    ("~(unsigned char)0", -1),
    ("-(unsigned char)1", -1),
    ("(unsigned char)1 << 8", 256),
    ("(signed char)-128 / (signed char)-1", 128),
    ("(unsigned char)255 == (signed char)-1", 0),
    ("(unsigned short)65535 * (unsigned char)2", 131070),
    ("(unsigned short)65535 + 1u", 65536),
    ("-1 < (unsigned int)1", 0),
    # Then the usual arithmetic conversions: the wider operand's type, unsigned
    # at equal widths if either operand is; a shift keeps its left's type.
    ("(long)-1 < 1u", 1),
    ("-1L > 4294967295u", 0),
    ("-1 >> 4u", -1),
    ("(signed char)-7 / 2ul", 9223372036854775804),
    ("-7 % 2u", 1),
    ("-8 / 2u", 2147483644),
    ("(int)-1 == 4294967295u", 1),
]


def test_narrow_operands_are_promoted_as_c_does():
    body = "".join(f"    long r{k} = (long)({expr});\n"
                   for k, (expr, _) in enumerate(PROMOTION_CASES))
    session, interp = make_session({"p.c": f"void testmain(void) {{\n{body}}}\n"})
    frame = run_function(session, interp, "testmain")
    got = [local_concrete(session, frame, f"r{k}") for k in range(len(PROMOTION_CASES))]
    assert got == [value for _, value in PROMOTION_CASES]


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc) on PATH")
def test_promotion_table_is_what_gcc_prints(tmp_path):
    prints = "".join(f'    printf("%ld\\n", (long)({expr}));\n' for expr, _ in PROMOTION_CASES)
    (tmp_path / "p.c").write_text(
        f"int printf(const char *, ...);\nint main(void) {{\n{prints}    return 0;\n}}\n")
    subprocess.run(["cc", "-w", "-O0", "-o", str(tmp_path / "p"), str(tmp_path / "p.c")],
                   check=True, capture_output=True)
    out = subprocess.run([str(tmp_path / "p")], check=True, capture_output=True, text=True)
    assert list(map(int, out.stdout.split())) == [value for _, value in PROMOTION_CASES]


def test_greedy_addition_of_constants():
    vals = table()
    one = vals.concrete(32, 1, AT, signed=True)
    zero = vals.concrete(32, 0, AT, signed=True)
    x = vals.apply_binop("+", one, zero, AT)
    assert isinstance(x.payload, Concrete) and to_int(x.payload) == 1


def test_additive_identity_fold_returns_operand():
    vals = table()
    s = vals.fresh_symbol("s", AT)
    zero = vals.concrete(32, 0, AT, signed=True)
    assert vals.apply_binop("+", s, zero, AT) is s
    assert vals.apply_binop("+", zero, s, AT) is s
    assert vals.apply_binop("|", s, zero, AT) is s
    assert vals.apply_binop("^", s, zero, AT) is s
    assert vals.apply_binop("-", s, zero, AT) is s
    assert vals.apply_binop("<<", s, zero, AT) is s
    assert vals.apply_binop(">>", s, zero, AT) is s
    assert vals.apply_binop("*", s, vals.concrete(32, 1, AT, signed=True), AT) is s


# (op, constant as (width, bits, signed), side of the constant): an identity
# whose type the usual conversions give the result: a term, not the operand.
CONVERTING_IDENTITIES = [
    ("+", (32, 0, False), 1), ("+", (32, 0, False), 0), ("-", (32, 0, False), 1),
    ("*", (32, 1, False), 1), ("*", (32, 1, False), 0), ("|", (64, 0, False), 1),
    ("^", (32, 0, False), 0), ("+", (64, 0, True), 1), ("*", (64, 1, True), 0),
]


@pytest.mark.parametrize("op, const, side", CONVERTING_IDENTITIES)
def test_identity_of_a_converting_type_builds_a_term(op, const, side):
    # With x an int, `x + 0u` is unsigned and `x + 0L` is long: a term that
    # resolves, once x is bound, to what C computes, here for x = -1.
    vals = table()
    x = vals.fresh_symbol("x", AT)
    c = vals.concrete(const[0], const[1], AT, signed=const[2])
    v = vals.apply_binop(op, *((x, c) if side else (c, x)), AT)
    assert v is not x
    vals.concretize(x, make_concrete(32, -1, True), "user-supplied", AT)
    r = vals.resolve(v)
    bound = (32, 0xFFFFFFFF, True)
    assert (r.width, r.bits, r.signed) == oracle_binop(op, *((bound, const) if side else (const, bound)))


def test_unsigned_zero_sum_compares_as_c_does():
    # (x + 0u) < 0 is 0 for every int x, and so for x = -1.
    vals = table()
    x = vals.fresh_symbol("x", AT)
    test = vals.apply_binop("<", vals.apply_binop("+", x, vals.concrete(32, 0, AT), AT),
                            vals.concrete(32, 0, AT, signed=True), AT)
    vals.concretize(x, make_concrete(32, -1, True), "user-supplied", AT)
    assert vals.resolve(test) == make_concrete(32, 0, True)


def test_identity_keeps_a_shift_count_or_a_pointer_as_is():
    vals = table()
    s = vals.fresh_symbol("s", AT)
    p = vals.addr_of(3, AT)
    assert vals.apply_binop("<<", s, vals.concrete(64, 0, AT), AT) is s
    assert vals.apply_binop(">>", s, vals.concrete(32, 0, AT), AT) is s
    assert vals.apply_binop("+", p, vals.concrete(64, 0, AT), AT) is p
    assert vals.apply_binop("+", vals.concrete(32, 0, AT), p, AT) is p


def test_zero_folds_produce_concrete_zero():
    vals = table()
    s = vals.fresh_symbol("s", AT)
    zero = vals.concrete(32, 0, AT)
    for op in ("*", "&"):
        out = vals.apply_binop(op, s, zero, AT)
        assert isinstance(out.payload, Concrete) and out.payload.bits == 0
        assert out.parents == (s, zero)


@settings(max_examples=300)
@given(operand)
def test_fold_soundness_by_substitution(x):
    # For each identity fold, substituting a concrete value for the symbolic
    # operand must equal direct computation, compared with C `==` semantics.
    vals = table()
    cases = [("+", 0), ("-", 0), ("*", 1), ("*", 0), ("&", 0), ("|", 0),
             ("^", 0), ("<<", 0), (">>", 0)]
    for op, k in cases:
        s = vals.fresh_symbol("x", AT)
        ident = vals.concrete(32, k, AT)
        folded = vals.apply_binop(op, s, ident, AT)
        vals.concretize(s, make_concrete(*((x[0], x[1], x[2]))), "user-supplied", AT)
        left = vals.resolve(folded)
        direct = oracle_binop(op, x, (32, k, False))
        eq = oracle_binop("==", (left.width, left.bits, left.signed), direct)
        assert eq[1] == 1, (op, k, x, left, direct)


def test_shift_left_bit3_is_eight():
    # Oracle: (1 << 3) mod 2**32 == 8.
    assert (1 << 3) % (1 << 32) == 8
    vals = table()
    out = vals.apply_binop("<<", vals.concrete(32, 1, AT),
                           vals.concrete(32, 3, AT), AT)
    assert out.payload == Concrete(32, 8, False)


def test_division_by_concrete_zero_raises_even_with_symbolic_lhs():
    vals = table()
    s = vals.fresh_symbol("s", AT)
    with pytest.raises(DivisionByConcreteZero):
        vals.apply_binop("/", s, vals.concrete(32, 0, AT), AT)


def test_unsupported_operator():
    vals = table()
    a = vals.concrete(32, 1, AT)
    with pytest.raises(UnsupportedOperation):
        vals.apply_binop("**", a, a, AT)


# ------------------------------------------------------------ fresh symbols

def test_fresh_symbols_are_distinct():
    vals = table()
    a = vals.fresh_symbol("ret:of_address_to_resource@1212", AT)
    b = vals.fresh_symbol("ret:of_address_to_resource@1212", AT)
    assert a.id != b.id
    assert a.payload.label == b.payload.label


def test_memory_cell_label_shape():
    vals = table()
    v = vals.fresh_symbol("mem:(1104,0)", AT)
    assert isinstance(v.payload, SymbolRoot)
    assert v.payload.label == "mem:(1104,0)"


# --------------------------------------------------------------- concretize

def test_concretize_then_resolve_through_terms():
    vals = table()
    gpio = vals.fresh_symbol("arg:gpio", AT)
    shifted = vals.apply_binop("%", gpio, vals.concrete(32, 32, AT), AT)
    assert not isinstance(vals.resolve(shifted), Concrete)
    vals.concretize(gpio, make_concrete(32, 3), "user-supplied", AT)
    out = vals.resolve(shifted)
    assert isinstance(out, Concrete) and to_int(out) == 3


def test_concretize_idempotent_and_conflicting():
    vals = table()
    s = vals.fresh_symbol("s", AT)
    vals.concretize(s, make_concrete(32, 7), "branch-comparison", AT)
    vals.concretize(s, make_concrete(32, 7), "user-supplied", AT)  # same: fine
    with pytest.raises(ConflictingBinding):
        vals.concretize(s, make_concrete(32, 5), "user-supplied", AT)


def test_concretize_rejects_non_symbols():
    vals = table()
    c = vals.concrete(32, 1, AT)
    with pytest.raises(UnsupportedOperation):
        vals.concretize(c, make_concrete(32, 1), "user-supplied", AT)


# ----------------------------------------------------------------- resolve

def test_resolve_residual_reports_blockers():
    vals = table()
    s = vals.fresh_symbol("ret:of_address_to_resource@1212", AT)
    t = vals.apply_binop("+", s, vals.concrete(32, 1, AT), AT)
    r = vals.resolve(t)
    assert isinstance(r, Residual)
    assert vals.labels_for(r.blockers) == ["ret:of_address_to_resource@1212"]


def test_resolve_deep_chain_iteratively():
    vals = table()
    s = vals.fresh_symbol("s", AT)
    v = s
    for _ in range(150):
        v = vals.apply_binop("+", v, vals.concrete(32, 1, AT), AT)
    vals.concretize(s, make_concrete(32, 2), "user-supplied", AT)
    out = vals.resolve(v)
    assert isinstance(out, Concrete) and to_int(out) == 152


@settings(max_examples=200)
@given(st.data())
def test_residual_completeness(data):
    # Binding every reported blocker and re-resolving yields a concrete
    # value, for random symbol-rooted terms (no pointers involved).
    vals = table()
    ops = ["+", "-", "*", "&", "|", "^", "<<", ">>", "==", "<"]
    roots = [vals.fresh_symbol(f"s{i}", AT) for i in range(4)]
    pool = list(roots) + [vals.concrete(32, data.draw(st.integers(0, 50)), AT)]
    for _ in range(data.draw(st.integers(1, 12))):
        op = data.draw(st.sampled_from(ops))
        a = data.draw(st.sampled_from(pool))
        b = data.draw(st.sampled_from(pool))
        pool.append(vals.apply_binop(op, a, b, AT))
    top = pool[-1]
    r = vals.resolve(top)
    if isinstance(r, Concrete):
        return
    assert r.blockers
    for blocker in r.blockers:
        vals.concretize(vals.get(blocker),
                        make_concrete(32, data.draw(st.integers(0, 31))),
                        "user-supplied", AT)
    assert isinstance(vals.resolve(top), Concrete)


def readable_from(vals, v):
    """Every value whose memo ``vals.resolve(v)`` may read: ``v``, and from
    each value its operands, its pointer binding and its mmio base."""
    seen, work = {}, [v]
    while work:
        x = work.pop()
        if x.id in seen:
            continue
        seen[x.id] = x
        p = x.payload
        if isinstance(p, SymbolRoot):
            pointer = vals.pointer_bindings.get(x.id)
            if pointer is not None:
                work.append(pointer)
        elif isinstance(p, Term) and p.op == OP_ADDR:
            region = vals.region_lookup and vals.region_lookup(p.region)
            base = getattr(region, "display_base", None)
            if base is not None:
                work.append(base)
        elif isinstance(p, Term):
            work.extend(p.operands)
    return list(seen.values())


def resolve_unmemoized(vals, v):
    """``vals.resolve(v)`` with nothing memoized that it may read; every
    memo it clears, and the list of residuals, are put back after."""
    readable = readable_from(vals, v)
    memos, residuals = [x.memo for x in readable], list(vals._residuals)
    for x in readable:
        x.memo = None
    try:
        return vals.resolve(v)
    finally:
        for x, memo in zip(readable, memos):
            x.memo = memo
        vals._residuals[:] = residuals


@settings(max_examples=200)
@given(st.data())
def test_memoized_resolve_matches_a_fresh_table(data):
    # Random terms, binds, pointer binds, an mmio base set after addresses in
    # its region exist, and resolves, interleaved: every answer equals the
    # one the same table computes with nothing memoized.
    # Terms are binary, ``&&`` and ``||`` included, unary or casts, over one
    # operand twice (``s + s``, whose blockers repeat), or the difference of
    # two addresses.
    vals = table()
    regions = {}
    vals.region_lookup = regions.get
    roots = [vals.fresh_symbol(f"s{i}", AT) for i in range(4)]
    pool = list(roots) + [vals.addr_of(7, AT), vals.concrete(32, 5, AT)]
    addresses = [pool[4], vals.apply_binop("+", pool[4], vals.concrete(64, 4, AT, signed=True), AT),
                 vals.addr_of(2, AT), *roots]
    ops = ["+", "-", "*", "&", "|", "^", "<<", "==", "<", "&&", "||"]
    unops = ["!", "~", "neg"] + [(w, signed) for w in (8, 16, 64) for signed in (False, True)]
    actions = ["term", "resolve", "bind", "pointer", "mmio", "unop", "twice", "difference"]
    for _ in range(data.draw(st.integers(1, 40))):
        action = data.draw(st.sampled_from(actions))
        root = data.draw(st.sampled_from(roots))
        free = root.id not in vals.bindings and root.id not in vals.pointer_bindings
        if action == "term":
            op = data.draw(st.sampled_from(ops))
            pool.append(vals.apply_binop(op, data.draw(st.sampled_from(pool)),
                                         data.draw(st.sampled_from(pool)), AT))
        elif action == "unop":
            op, v = data.draw(st.sampled_from(unops)), data.draw(st.sampled_from(pool))
            pool.append(vals.apply_unop(op, v, AT) if isinstance(op, str)
                        else vals.apply_cast(v, *op, AT))
        elif action == "twice":
            v = data.draw(st.sampled_from(pool))
            pool.append(vals.apply_binop(data.draw(st.sampled_from(ops)), v, v, AT))
        elif action == "difference":
            pool.append(vals.apply_binop("-", data.draw(st.sampled_from(addresses)),
                                         data.draw(st.sampled_from(addresses)), AT))
        elif action == "bind" and free:
            vals.concretize(root, make_concrete(32, data.draw(st.integers(0, 9))),
                            "user-supplied", AT)
        elif action == "pointer" and free:
            vals.bind_pointer(root, vals.addr_of(data.draw(st.integers(1, 3)), AT))
        elif action == "mmio" and 7 not in regions:
            regions[7] = Region(7, "mmio", "mmio", display_base=root)
            vals.forget_residuals()
        elif action == "resolve":
            assert_resolves_as_unmemoized(vals, data.draw(st.sampled_from(pool)))
    for v in pool:
        assert_resolves_as_unmemoized(vals, v)


def assert_resolves_as_unmemoized(vals, v):
    r = vals.resolve(v)
    assert r == resolve_unmemoized(vals, v)
    if isinstance(r, Residual):
        assert len(set(r.blockers)) == len(r.blockers), r


ACCUMULATE = {"acc.c": """\
int g(int);
void acc(void) {
    int x = g(1);
    int i;
    for (i = 0; i < 40; i++)
        x = x + i;
}
"""}


def test_resolve_takes_one_step_until_a_binding_makes_a_chain_stale(monkeypatch):
    # Building a term resolves its operands, so each value's first resolve
    # folds it from memoized results and never enters the fold loop. A
    # binding makes the chain stale: one resolve walks it, memoizing each
    # stale value once, and every other value is then one step again.
    entered = []
    memoized = Counter()  # per value, the steps that gave it its result
    fold, step = ValueTable._fold, ValueTable._step

    def counted_fold(self, root, pending):
        entered.append(root)
        fold(self, root, pending)

    def counted_step(self, v, payload):
        r = step(self, v, payload)
        if r.__class__ is not tuple:
            memoized[v] += 1
        return r

    monkeypatch.setattr(ValueTable, "_fold", counted_fold)
    monkeypatch.setattr(ValueTable, "_step", counted_step)
    minted = record_mints(monkeypatch)
    session, interp = make_session(ACCUMULATE)
    frame = run_function(session, interp, "acc")
    vals = session.values
    for v in minted:
        vals.resolve(v)
    assert entered == []
    stale = list(vals._residuals)
    assert len(stale) == 40  # g's result and 39 sums: x + 0 is x
    memoized.clear()
    x = next(v for v in minted if isinstance(v.payload, SymbolRoot))
    vals.concretize(x, make_concrete(32, 5, True), "user-supplied", AT)
    assert local_concrete(session, frame, "x") == 5 + sum(range(40))
    assert len(entered) == 1
    for v in minted:
        vals.resolve(v)
    assert len(entered) == 1
    assert memoized == Counter(stale)


def test_same_region_difference_folds_when_the_base_is_symbolic():
    # Two addresses in one region subtract to their distance whatever blocks
    # the region's base, since the base cancels out. So a difference folded
    # before an mmio base is set stays right after it, memoized or not.
    vals = table()
    regions = {}
    vals.region_lookup = regions.get
    base = vals.fresh_symbol("s1", AT)
    a = vals.addr_of(7, AT)
    four = vals.apply_binop("+", a, vals.concrete(64, 4, AT), AT)
    early, late = vals.apply_binop("-", a, a, AT), vals.apply_binop("-", four, a, AT)
    assert vals.resolve(early) == make_concrete(64, 0, True)
    regions[7] = Region(7, "mmio", "mmio", display_base=base)
    vals.forget_residuals()
    for v, distance in ((early, 0), (late, 4)):
        assert vals.resolve(v) == resolve_unmemoized(vals, v) \
            == make_concrete(64, distance, True)


# -------------------------------------------------------------- provenance

def test_trace_of_literal_is_single_entry():
    vals = table()
    v = vals.concrete(32, 3, AT)
    assert len(vals.provenance_trace(v)) == 1


def test_trace_of_sum_lists_creations_in_order():
    vals = table()
    va = vals.concrete(32, 1, ("t.c", 1), desc="literal 1")
    vb = vals.concrete(32, 0, ("t.c", 1), desc="literal 0")
    vx = vals.apply_binop("+", va, vb, ("t.c", 2))
    trace = vals.provenance_trace(vx)
    assert len(trace) == 3
    assert [entry[0] for entry in trace] == sorted(entry[0] for entry in trace)
    assert trace[-1][2] == "+"
    assert trace[-1][3] == (va.id, vb.id)
    assert trace[-1][1] == ("t.c", 2)


def oracle_ancestors(v):
    seen = set()
    work = [v]
    while work:
        x = work.pop()
        if x.id in seen:
            continue
        seen.add(x.id)
        work.extend(x.parents)
    return seen


@settings(max_examples=200)
@given(st.data())
def test_trace_length_equals_ancestor_count_and_dag_acyclic(data):
    vals = table()
    pool = [vals.fresh_symbol("a", AT), vals.concrete(32, 5, AT)]
    for _ in range(data.draw(st.integers(1, 15))):
        op = data.draw(st.sampled_from(["+", "-", "*", "&", "|", "^"]))
        a = data.draw(st.sampled_from(pool))
        b = data.draw(st.sampled_from(pool))
        pool.append(vals.apply_binop(op, a, b, AT))
    v = data.draw(st.sampled_from(pool))
    trace = vals.provenance_trace(v)
    assert len(trace) == len(oracle_ancestors(v))
    # Acyclicity: every parent id is strictly smaller than its child's id.
    for vid, _pos, _desc, parents in trace:
        assert all(p < vid for p in parents)


# ------------------------------------------------------------ slim records

CONCRETE_LOOP = {"loop.c": """\
void loop(void) {
    int x = 0;
    int i;
    for (i = 0; i < 1000; i++)
        x = x + i * 3;
}
"""}


def test_minted_records_have_no_instance_dict():
    vals = table()
    a = vals.fresh_symbol("a", AT)
    records = [a, a.payload, vals.concrete(32, 1, AT).payload,
               vals.apply_binop("+", a, vals.concrete(32, 1, AT), AT).payload,
               vals.addr_of(3, AT).payload, vals.resolve(a), Location(1, 0), Place()]
    assert [type(r).__name__ for r in records if hasattr(r, "__dict__")] == []


def test_concrete_loop_leaves_the_resolve_memo_empty(monkeypatch):
    minted = record_mints(monkeypatch)
    session, interp = make_session(CONCRETE_LOOP)
    run_function(session, interp, "loop")
    assert len(session.values) == len(minted) > 7000
    assert [v for v in minted if v.memo is not None] == []
    assert session.values._residuals == []


def test_concrete_loop_mints_a_fixed_number_of_values():
    # Value ids, ``trace`` and ``xc`` output and tests/data/*.json follow
    # from which values are minted and in what order.
    session, interp = make_session(CONCRETE_LOOP)
    run_function(session, interp, "loop")
    assert len(session.values) == 7004


def test_concrete_loop_makes_no_region_and_no_cell():
    # ``x`` and ``i`` are held: no address of either is taken.
    session, interp = make_session(CONCRETE_LOOP)
    frame = run_function(session, interp, "loop")
    assert session.store.regions == {} and session.store.cells == {}
    assert [p.region for p in frame.locals.values()] == [1, 2]


def live_values() -> int:
    return sum(1 for o in gc.get_objects() if type(o) is Value)


def test_concrete_loop_leaves_only_what_its_cells_hold_live():
    # Of the 7,004 values minted, the 1,001 loop tests and the 1,001
    # literals 1000 they compare with are held by nothing once tested, and
    # are freed; the values the cells hold, with their ancestors, stay.
    gc.collect()
    before = live_values()
    session, interp = make_session(CONCRETE_LOOP)
    run_function(session, interp, "loop")
    gc.collect()
    assert live_values() - before == 5002


def test_a_deep_chain_is_resolved_and_freed_by_reference_counting():
    # 300,000 steps of ``x + 1``: a binding makes the whole chain stale, so
    # resolving it walks every step, and dropping it frees every value, with
    # the cyclic collector off, and no recursion either way.
    gc.collect()
    before = live_values()
    gc.disable()
    try:
        vals = table()
        v = x = vals.fresh_symbol("x", AT)
        one = vals.concrete(32, 1, AT)
        for _ in range(300_000):
            v = vals.apply_binop("+", v, one, AT)
        vals.concretize(x, make_concrete(32, 2), "user-supplied", AT)
        assert to_int(vals.resolve(v)) == 300_002
        del v, x, one, vals
        assert live_values() == before
    finally:
        gc.enable()


def test_a_term_holds_its_operands_once_and_prints_them_by_id():
    vals = table()
    v = vals.fresh_symbol("x", AT)
    for _ in range(40):
        v = vals.apply_binop("+", v, vals.concrete(32, 1, AT), AT)
    x, one = v.payload.operands
    assert v.parents is v.payload.operands and one.payload == Concrete(32, 1)
    text = repr(v)
    assert f"operands=({x.id}, {one.id})" in text and f"parents=({x.id}, {one.id})" in text
    assert len(text) < 300


def test_bytes_per_minted_value():
    # A fresh session, compilation included: 139.7 B per value measured, and
    # the bound leaves 10% over it.
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        session, interp = make_session(CONCRETE_LOOP)
        run_function(session, interp, "loop")
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown / len(session.values) < 154


# The frozen dataclasses the slotted records replaced, as the reference for
# equality, hash and repr.
REFERENCE = {
    Concrete: dataclasses.make_dataclass(
        "Concrete", ["width", "bits", ("signed", bool, False)], frozen=True),
    SymbolRoot: dataclasses.make_dataclass("SymbolRoot", ["label"], frozen=True),
    Term: dataclasses.make_dataclass(
        "Term", ["op", "operands", ("region", object, None)], frozen=True),
    Residual: dataclasses.make_dataclass(
        "Residual", ["value_id", "blockers", ("pointer", object, None)], frozen=True),
    Location: dataclasses.make_dataclass("Location", ["region", "offset"], frozen=True),
}
small = st.integers(0, 3)
FIELDS = {
    Concrete: st.tuples(st.sampled_from([8, 32, 64]), small, st.booleans()),
    SymbolRoot: st.tuples(st.sampled_from(["a", "mem:(1,0)"])),
    Term: st.tuples(st.sampled_from(["+", "addr-of-region"]),
                    st.lists(small, max_size=2).map(tuple), st.none() | small),
    Residual: st.tuples(small, st.lists(small, max_size=2).map(tuple),
                        st.none() | st.tuples(small, small)),
    Location: st.tuples(small, small),
}


@settings(max_examples=300)
@given(st.data())
def test_records_compare_hash_and_print_like_frozen_dataclasses(data):
    cls = data.draw(st.sampled_from(sorted(FIELDS, key=lambda c: c.__name__)))
    ref = REFERENCE[cls]
    f, g = data.draw(FIELDS[cls]), data.draw(FIELDS[cls])
    assert (cls(*f) == cls(*g)) == (ref(*f) == ref(*g)) == (f == g)
    assert (cls(*f) != cls(*g)) == (f != g)
    assert hash(cls(*f)) == hash(ref(*f))
    assert repr(cls(*f)) == repr(ref(*f))
    assert cls(*f) != ref(*f) and cls(*f) != f


def test_concrete_repr_names_every_field():
    assert repr(Concrete(32, 5, True)) == "Concrete(width=32, bits=5, signed=True)"
