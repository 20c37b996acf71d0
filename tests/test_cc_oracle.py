"""gcc as the oracle for single values, in the manner of
``tests/test_layout_oracle.py``: each row defines a function ``long
<label>(void)``, gcc prints what each returns, and ssi must return the same.

The rows cover preprocessor lines inside code (an expression, an ``if``
condition, a call's arguments, a ``for`` header, a struct body, a parameter
list), which ssi reads with every arm live; so each conditional here is one
that gcc takes too. The others cover string literals (C11 5.1.1.2p6 joins
adjacent ones; 6.4.4.4 gives octal escapes), ``sizeof`` of a literal,
which is its array's size, and a literal's elements, which are ``char``: a
signed byte on x86-64, as a character constant's value is. The last rows
are constant expressions on the edges of the compiled operators' kernels:
C's promotions and usual conversions, truncating division, wraparound and
shifts.
"""

import shutil
import subprocess

import pytest

from conftest import local_concrete, make_session, run_function


def returning(label, expr):
    """The row of a function ``label`` that returns ``expr``."""
    return label, f"long {label}(void) {{ return {expr}; }}"


ROWS = [
    # Preprocessor lines inside code.
    ("dir_expr", "long dir_expr(void) { int x = 1 +\n#ifndef FOO\n 2 +\n#endif\n 3; return x; }"),
    ("dir_if", "long dir_if(void) { int x = 0;\n if (x ==\n#ifndef FOO\n 0\n#endif\n ) x = 5;\n"
               " return x; }"),
    ("dir_call", "static int add3(int a, int b, int c) { return a * 100 + b * 10 + c; }\n"
                 "long dir_call(void) { return add3(1,\n#ifndef FOO\n 2,\n#endif\n 3); }"),
    ("dir_for", "long dir_for(void) { int x = 0;\n for (int i = 0;\n#if 1\n i < 3;\n#endif\n"
                " i++) x++;\n return x; }"),
    ("dir_struct_size", "struct ds { int a;\n#ifndef X\n int b;\n#endif\n int c; };\n"
                        "long dir_struct_size(void) { return sizeof(struct ds); }"),
    ("dir_struct_offset", "long dir_struct_offset(void) { struct ds v;"
                          " return (long)&v.c - (long)&v; }"),
    ("dir_params", "static int pick(int a,\n#ifndef X\n int b,\n#endif\n int c) { return c; }\n"
                   "long dir_params(void) { return pick(1, 2, 3); }"),
    # String literals.
    ("str_joined", 'long str_joined(void) { char *s = "ab" "cd"; return s[2] * 1000 + s[4]; }'),
    ("str_macro_joined", '#define PFX "pfx"\n'
                         'long str_macro_joined(void) { char *s = PFX "-x"; return s[3]; }'),
    ("str_octal_char", "long str_octal_char(void) { return '\\101'; }"),
    ("str_octal_newline", "long str_octal_newline(void) { return '\\012'; }"),
    ("str_octal_string", 'long str_octal_string(void) { char *s = "\\101B"; return s[0] * 256 + s[1]; }'),
    ("str_nul", "long str_nul(void) { return '\\0' + 1; }"),
    ("str_hex", 'long str_hex(void) { char *s = "\\x41" "1"; return s[0] * 256 + s[1]; }'),
    # ``sizeof`` of a string literal.
    ("sizeof_ab", 'long sizeof_ab(void) { return sizeof("ab"); }'),
    ("sizeof_empty", 'long sizeof_empty(void) { return sizeof(""); }'),
    ("sizeof_prefix", '#define NAME "pinctrl"\n'
                      "long sizeof_prefix(void) { return sizeof NAME - 1; }"),
    ("sizeof_parenthesized", 'long sizeof_parenthesized(void) { return sizeof(("xyzwv")); }'),
    ("sizeof_joined", 'long sizeof_joined(void) { return sizeof("ab" "cd"); }'),
    ("sizeof_escapes", 'long sizeof_escapes(void) { return sizeof("\\101\\n"); }'),
    # A string literal's elements are ``char``, and a ``char`` is signed.
    returning("str_index", '"ab"[1]'),
    returning("sizeof_str_elem", 'sizeof "ab"[0]'),
    returning("char_high", "'\\377'"),
    ("str_high_byte", 'long str_high_byte(void) { char *s = "\\377";'
                      ' return "\\377"[0] * 1000 + s[0]; }'),
    ("str_unsigned_byte", 'long str_unsigned_byte(void) { unsigned char *p = "\\377";'
                          ' return p[0]; }'),
    ("int_read_as_byte", "long int_read_as_byte(void) { int v = 0x1234;"
                         " return *(unsigned char *)&v; }"),
    # Constant operands of both signs and of every width.
    returning("unsigned_wraps_below_zero", "1u - 2 > 0"),
    returning("unsigned_long_wraps_below_zero", "5ul - 6 > 0"),
    returning("minus_one_below_unsigned", "-1 < 1u"),
    returning("minus_one_below_unsigned_long", "-1 < 1ul"),
    returning("truncating_division", "-7 / 2 * 10 + -7 % 2"),
    returning("promoted_chars", "(char)100 + (char)100"),
    returning("promoted_shorts", "(short)300 * (short)300"),
    returning("promoted_unsigned_char", "(unsigned char)255 + 1"),
    returning("unsigned_int_wraps", "0xFFFFFFFFu + 1u"),
    returning("long_shifts", "(1L << 40) >> 3"),
    returning("arithmetic_right_shift", "-16 >> 2"),
    returning("long_product", "3000000000L * 3 - 1"),
    returning("bitwise", "(0x0F0F ^ 0x3C3C) & (0xFF | 0x100)"),
    returning("comparisons", "(3 <= 3) + (4 != 4) * 2 + (5 >= 6) * 4 + (7 == 7) * 8"),
]

DEFS = "\n".join(source for _, source in ROWS) + "\n"


def gcc_values(tmp_path):
    prints = "\n".join(f'    printf("%ld\\n", {label}());' for label, _ in ROWS)
    (tmp_path / "rows.c").write_text(
        f"int printf(const char *, ...);\n{DEFS}int main(void) {{\n{prints}\n    return 0;\n}}\n")
    exe = tmp_path / "rows"
    subprocess.run(["cc", "-w", "-O0", "-o", str(exe), str(tmp_path / "rows.c")],
                   check=True, capture_output=True)
    out = subprocess.run([str(exe)], check=True, capture_output=True, text=True).stdout
    return dict(zip([label for label, _ in ROWS], map(int, out.split())))


def ssi_value(session, interp, label):
    """What ``label()`` returns in ssi, or the error that stopped it."""
    session.steps = 0
    try:
        frame = run_function(session, interp, f"run_{label}")
        return local_concrete(session, frame, "r")
    except Exception as e:  # a mismatch to report with the rest
        return f"{type(e).__name__}: {e}"


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc) on PATH")
def test_values_match_gcc(tmp_path):
    expected = gcc_values(tmp_path)
    runs = "".join(f"void run_{label}(void) {{ long r = {label}(); }}\n" for label, _ in ROWS)
    session, interp = make_session({"rows.c": DEFS + runs}, max_steps=10_000)
    got = {label: ssi_value(session, interp, label) for label in expected}
    wrong = {label: (got[label], value) for label, value in expected.items()
             if got[label] != value}
    assert not wrong, wrong
