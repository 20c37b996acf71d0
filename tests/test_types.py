"""Every place carries its declared C type: the size and sign of each load
and store, the stride of ``[]`` and of pointer steps, and ``sizeof`` all come
from it, for variables, elements, fields and dereferences alike."""

import shutil
import subprocess

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import local_concrete, make_session, record_mints, run_function


def finals(source, names):
    session, interp = make_session({"prog.c": source})
    frame = run_function(session, interp, "testmain")
    return {n: local_concrete(session, frame, n) for n in names}


# Each program gives what C gives; the comment names the type rule it needs.
TYPED_PLACE_CASES = {
    "a row of a two-dimensional array strides by the row": ("""
void testmain(void) {
    int m[2][3];
    int i;
    int j;
    for (i = 0; i < 2; i++)
        for (j = 0; j < 3; j++)
            m[i][j] = i * 3 + j;
    int a = m[0][1];
    int b = m[1][2];
    int c = *(*(m + 1) + 1);
}
""", {"a": 1, "b": 5, "c": 4}),
    "a member array decays to its first element": ("""
struct s { int pad; int arr[3]; };
void testmain(void) {
    struct s v;
    struct s *p = &v;
    v.arr[0] = 5;
    v.arr[1] = 7;
    v.arr[2] = 9;
    int *q = v.arr;
    int a = q[1];
    q = p->arr;
    int b = q[2];
    int c = *(p->arr + 2);
}
""", {"a": 7, "b": 9, "c": 9}),
    "stores through an unsigned char pointer wrap": ("""
void testmain(void) {
    unsigned char b[2];
    unsigned char *p = &b[0];
    *p = 300;
    p[1] = 301;
    int x = b[0];
    int y = b[1];
}
""", {"x": 44, "y": 45}),
    "a store through a char pointer step wraps signed": ("""
void testmain(void) {
    char buf[2];
    char *p = buf;
    *(p + 1) = 200;
    int x = buf[1];
}
""", {"x": -56}),
    "sizeof a dereference is the pointee's": ("""
void testmain(void) {
    char *c;
    long *l;
    int sc = sizeof *c;
    int sl = sizeof *l;
}
""", {"sc": 1, "sl": 8}),
    "sizeof a member array is the whole array": ("""
#define ARRAY_SIZE(x) (sizeof(x) / sizeof((x)[0]))
struct pc { int irq; unsigned long map[4]; };
void testmain(void) {
    struct pc v;
    struct pc *p = &v;
    int s = sizeof v.map;
    int n = ARRAY_SIZE(p->map);
}
""", {"s": 32, "n": 4}),
    "sizeof a row and of a pointer step": ("""
void testmain(void) {
    int m[2][3];
    int a[4];
    int r = sizeof m[0];
    int s = sizeof(a + 1);
    int t = sizeof *(m + 1);
}
""", {"r": 12, "s": 8, "t": 12}),
    "a nested struct member uses its declared layout": ("""
struct in { int a; int b; };
struct out { int x; struct in i; };
void testmain(void) {
    struct out o;
    o.i.b = 2;
    o.i.a = 1;
    struct in *q = &o.i;
    int a = q->a;
    int b = q->b;
    long off = (long)&o.i.b - (long)&o;
}
""", {"a": 1, "b": 2, "off": 8}),
    "a u32 pointer field steps by elements": ("""
struct dev { int id; u32 *regs; };
void testmain(void) {
    u32 buf[4];
    struct dev v;
    buf[1] = 17;
    v.regs = buf;
    int a = *(v.regs + 1);
    int b = v.regs[1];
}
""", {"a": 17, "b": 17}),
    "a struct pointer value indexes by the struct's size": ("""
struct pt { int x; int y; };
void testmain(void) {
    struct pt pts[2];
    void *v = pts;
    pts[1].y = 9;
    int a = ((struct pt *)v)[1].y;
}
""", {"a": 9}),
    "_Bool is one byte": ("""
void testmain(void) {
    int s = sizeof(_Bool);
    _Bool b;
    int t = sizeof b;
}
""", {"s": 1, "t": 1}),
    "a file-scope declaration typed by a macro is recorded": ("""
#define REG unsigned char
REG G = 300;
REG helper(void) { this is garbage that never runs }
REG H = 301;
void testmain(void) {
    int g = G;
    int h = H;
}
""", {"g": 44, "h": 45}),
}


@pytest.mark.parametrize("case", TYPED_PLACE_CASES)
def test_places_take_their_declared_type(case):
    source, expected = TYPED_PLACE_CASES[case]
    assert finals(source, expected) == expected


def test_a_byte_pointer_step_mints_only_its_sum(monkeypatch):
    # ``base + reg`` on a void * field is the one ``+`` C computes.
    minted = record_mints(monkeypatch)
    session, interp = make_session({"prog.c": """
struct pc { void *base; };
void testmain(void) {
    struct pc v;
    char buf[16];
    v.base = buf;
    int reg = 4;
    long d = (long)(v.base + reg) - (long)buf;
}
"""})
    frame = run_function(session, interp, "testmain")
    assert local_concrete(session, frame, "d") == 4
    sums = [v for v in minted if v.op_description == "+"]
    assert len(sums) == 1


# Declarators read inside out (C11 6.7.6): pointers to arrays, array
# typedefs, function types and adjusted parameters. Each row is file-scope
# definitions, statements, an expression, and the value gcc 12.2 (x86-64)
# prints for it as a ``long``. The function first fills ``int m[2][3]`` with
# ``3 * i + j + 4`` and the global ``M`` with ``3 * i + j + 1``.
DECLARATOR_CASES = [
    ("", "int (*p)[3] = m;", "p[1][0]", 7),
    ("", "char b[4]; char (*q)[4] = &b;", "sizeof *q", 4),
    ("typedef int A[4];", "A *pa;", "sizeof *pa", 16),
    ("", "", "((int (*)[3])m)[1][2]", 9),
    ("", "", "sizeof(int (*)[3])", 8),
    ("", "", "sizeof(int[2][3])", 24),
    ("", "int (*t[2])(int);", "sizeof t", 16),
    ("typedef int (*op_t)(int);", "", "sizeof(op_t)", 8),
    ("", "int (*p2)[3] = m; int (**pp)[3] = &p2;", "(*pp)[1][2]", 9),
    ("int (*P)[3] = M;", "", "P[1][0]", 4),
    ("int g1(int (*r)[3]) { return r[1][1]; }", "", "g1(M)", 5),
    ("int g2(int m[][3]) { return m[1][1]; }", "", "g2(M)", 5),
    ("long g3(int m[4]) { return sizeof m; }", "", "g3(M[0])", 8),
    ("int (*rows(void))[3] { return M; }", "", "rows()[1][2]", 6),
    ("struct fl { int n; int data[]; };", "", "sizeof(struct fl)", 4),
]


def _declarator_program(function, show):
    """The table as one program: ``M``, each row's definitions, then
    ``function``, which fills ``m`` and ``M``, stores each row's value in
    ``r{k}`` and then runs ``show(k)``."""
    rows = "".join(f"    {stmts} long r{k} = (long)({expr});\n{show(k)}"
                   for k, (_, stmts, expr, _) in enumerate(DECLARATOR_CASES))
    return ("int M[2][3];\n" + "".join(f"{d}\n" for d, *_ in DECLARATOR_CASES if d)
            + f"{function} {{\n    int m[2][3];\n    int i, j;\n"
            "    for (i = 0; i < 2; i++)\n        for (j = 0; j < 3; j++) {\n"
            "            m[i][j] = 3 * i + j + 4;\n            M[i][j] = 3 * i + j + 1;\n"
            f"        }}\n{rows}}}\n")


def test_declarators_derive_their_types_inside_out():
    names = [f"r{k}" for k in range(len(DECLARATOR_CASES))]
    got = finals(_declarator_program("void testmain(void)", lambda k: ""), names)
    assert [got[name] for name in names] == [value for *_, value in DECLARATOR_CASES]


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc) on PATH")
def test_declarator_table_is_what_gcc_prints(tmp_path):
    source = "int printf(const char *, ...);\n" + _declarator_program(
        "int main(void)", lambda k: f'    printf("%ld\\n", r{k});\n')
    (tmp_path / "p.c").write_text(source)
    subprocess.run(["cc", "-w", "-O0", "-o", str(tmp_path / "p"), str(tmp_path / "p.c")],
                   check=True, capture_output=True)
    out = subprocess.run([str(tmp_path / "p")], check=True, capture_output=True, text=True)
    assert list(map(int, out.stdout.split())) == [value for *_, value in DECLARATOR_CASES]


# ------------------------------------------------------- generated layouts

SCALARS = {"char": (1, True), "short": (2, True), "int": (4, True),
           "long": (8, True), "u8": (1, False), "u32": (4, False)}


def _scalar():
    return st.sampled_from(sorted(SCALARS)).map(lambda name: ("scalar", name))


def _member(depth):
    kinds = [
        _scalar(),
        st.just(("pointer",)),
        st.tuples(st.just("array"), _scalar(), st.lists(st.integers(1, 3), min_size=1,
                                                        max_size=2).map(tuple)),
    ]
    if depth < 2:
        kinds.append(_struct(depth + 1).map(lambda s: ("struct", s)))
    return st.one_of(kinds)


def _struct(depth=0):
    return st.lists(_member(depth), min_size=1, max_size=4)


class _Layout:
    """A packed-layout oracle: the C definitions of a generated struct, its
    size, and every scalar leaf with its access path and byte offset."""

    def __init__(self, members):
        self.defs = []
        self.leaves = []  # (path, offset, scalar type name or None for int *)
        self.size = self._define("top", members, "", 0)

    def _define(self, tag, members, path, base):
        lines, offset = [], 0
        for k, member in enumerate(members):
            name = f"f{k}"
            kind = member[0]
            if kind == "scalar":
                lines.append(f"{member[1]} {name};")
                self.leaves.append((f"{path}{name}", base + offset, member[1]))
                offset += SCALARS[member[1]][0]
            elif kind == "pointer":
                lines.append(f"int *{name};")
                self.leaves.append((f"{path}{name}", base + offset, None))
                offset += 8
            elif kind == "array":
                scalar, dims = member[1][1], member[2]
                lines.append(f"{scalar} {name}{''.join(f'[{d}]' for d in dims)};")
                width = SCALARS[scalar][0]
                for index in _indices(dims):
                    flat = index[-1] + (index[0] * dims[1] if len(dims) == 2 else 0)
                    self.leaves.append((f"{path}{name}{''.join(f'[{i}]' for i in index)}",
                                        base + offset + flat * width, scalar))
                offset += width * _product(dims)
            else:
                inner = f"{tag}_{k}"
                size = self._define(inner, member[1], f"{path}{name}.", base + offset)
                lines.append(f"struct {inner} {name};")
                offset += size
        self.defs.append(f"struct {tag} {{ {' '.join(lines)} }};")
        return offset


def _held(value, scalar):
    """``value`` as a leaf of type ``scalar`` (None: ``int *``) holds it."""
    if scalar is None:
        return value
    width, signed = SCALARS[scalar]
    value &= (1 << 8 * width) - 1
    return value - (1 << 8 * width) if signed and value >> (8 * width - 1) else value


def _indices(dims):
    if len(dims) == 1:
        return [(i,) for i in range(dims[0])]
    return [(i, j) for i in range(dims[0]) for j in range(dims[1])]


def _product(dims):
    out = 1
    for d in dims:
        out *= d
    return out


@settings(max_examples=60)
@given(_struct())
def test_generated_layouts_match_a_packed_oracle(members):
    layout = _Layout(members)
    body = ["struct top v;", "struct top *p = &v;", "long size = sizeof(struct top);",
            "long whole = sizeof v;"]
    expected = {"size": layout.size, "whole": layout.size}
    for k, (path, offset, scalar) in enumerate(layout.leaves):
        body.append(f"long o{k} = (long)&v.{path} - (long)&v;")
        expected[f"o{k}"] = offset
        constant = str(k + 1) if scalar else f"(int *){k + 1}"
        body.append(f"v.{path} = {constant};" if k % 2 else f"p->{path} = {constant};")
    for k, (path, _, scalar) in enumerate(layout.leaves):
        cast = "" if scalar else "(long)"
        body.append(f"long d{k} = {cast}v.{path};")
        body.append(f"long a{k} = {cast}p->{path};")
        expected[f"d{k}"] = expected[f"a{k}"] = _held(k + 1, scalar)
    source = "\n".join(layout.defs) + "\nvoid testmain(void) {\n" + "\n".join(body) + "\n}\n"
    assert finals(source, expected) == expected, source
