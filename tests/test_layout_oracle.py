"""gcc as the oracle for struct layouts, in the manner of Csmith (Yang et
al., PLDI 2011): a seeded generator writes one file of struct definitions,
gcc prints every ``sizeof`` and ``offsetof`` of it, and ssi must compute the
same values as ``sizeof`` and ``(long)&v.path - (long)&v``.

ssi lays structs out packed, so both copies of the source start with
``#pragma pack(1)``, which gcc obeys and ssi skips as a directive line. The
structs are tagged and ``typedef``'d untagged ones, whose members are
scalars, scalar arrays, typedef'd arrays, pointers, and nested tagged and
untagged structs, by value and in arrays. Unions are left out: ssi places
their members one after another.
"""

import random
import shutil
import subprocess

import pytest

from conftest import local_concrete, make_session, run_function

SCALARS = ["char", "signed char", "unsigned char", "short", "unsigned short", "int",
           "unsigned int", "long", "unsigned long", "long long", "_Bool"]
POINTERS = ["int *", "void *", "char **", "unsigned long *", "struct s0 *"]
# Each typedef'd array, with its bound.
ARRAY_TYPEDEFS = {"Mac6": ("unsigned char", 6), "Quad4": ("int", 4), "Pair2": ("short", 2)}
PRELUDE = "#pragma pack(1)\n" + "".join(
    f"typedef {scalar} {name}[{bound}];\n" for name, (scalar, bound) in ARRAY_TYPEDEFS.items())


class _Structs:
    """About ``count`` top-level structs from ``rng``: their C definitions
    in order, and each one's type name with the member paths to check."""

    def __init__(self, rng, count=60):
        self.rng = rng
        self.defs = []
        self.paths = {}  # tag of each struct defined so far -> its member paths
        self.tops = []   # (type name, member paths)
        self.nested = 0
        for k in range(count):
            body, paths = self._body(0)
            if rng.random() < 0.5:
                self._define(f"s{k}", body, paths)
                self.tops.append((f"struct s{k}", paths))
            else:
                self.defs.append(f"typedef struct {{ {body} }} T{k};")
                self.tops.append((f"T{k}", paths))

    def _define(self, tag, body, paths):
        self.defs.append(f"struct {tag} {{ {body} }};")
        self.paths[tag] = paths

    def _body(self, depth):
        members, paths = [], []
        for k in range(self.rng.randint(1, 4)):
            text, sub = self._member(f"m{k}", depth)
            members.append(text)
            paths += sub
        return " ".join(members), paths

    def _member(self, name, depth):
        """(declaration, paths) of one member ``name``."""
        rng = self.rng
        kinds = ["scalar", "array", "typedef array", "pointer"]
        if depth < 2:
            kinds += ["tagged", "untagged"] + ["earlier"] * bool(self.paths)
        kind = rng.choice(kinds)
        if kind == "scalar":
            return f"{rng.choice(SCALARS)} {name};", [name]
        if kind == "pointer":
            return f"{rng.choice(POINTERS)}{name};", [name]
        if kind == "array":
            dims = [rng.randint(1, 4) for _ in range(rng.randint(1, 2))]
            last = "".join(f"[{d - 1}]" for d in dims)
            return f"{rng.choice(SCALARS)} {name}{''.join(f'[{d}]' for d in dims)};", \
                [name, name + last]
        if kind == "typedef array":
            typedef = rng.choice(sorted(ARRAY_TYPEDEFS))
            bound = ARRAY_TYPEDEFS[typedef][1]
            if rng.random() < 0.5:
                return f"{typedef} {name};", [name, f"{name}[{bound - 1}]"]
            return f"{typedef} {name}[2];", [name, f"{name}[1]", f"{name}[1][{bound - 1}]"]
        if kind == "earlier":
            tag = rng.choice(sorted(self.paths))
            inner, spec = self.paths[tag], f"struct {tag}"
        else:
            body, inner = self._body(depth + 1)
            if kind == "tagged":
                self.nested += 1
                spec = f"struct n{self.nested} {{ {body} }}"
            else:
                spec = f"struct {{ {body} }}"
        if rng.random() < 0.3:
            return f"{spec} {name}[2];", [name, f"{name}[1]"] + \
                [f"{name}[1].{p}" for p in inner]
        return f"{spec} {name};", [name] + [f"{name}.{p}" for p in inner]

    def checks(self):
        """(label, gcc expression, ssi statements) of each value to agree on."""
        out = []
        for k, (type_name, paths) in enumerate(self.tops):
            out.append((f"size{k}", f"sizeof({type_name})",
                        f"{type_name} v{k}; long size{k} = sizeof({type_name});"))
            for j, path in enumerate(paths):
                out.append((f"off{k}_{j}", f"__builtin_offsetof({type_name}, {path})",
                            f"long off{k}_{j} = (long)&v{k}.{path} - (long)&v{k};"))
        return out


def gcc_values(tmp_path, defs, checks):
    prints = "\n".join(f'    printf("%ld\\n", (long){expr});' for _, expr, _ in checks)
    source = f"{PRELUDE}{defs}\nint printf(const char *, ...);\n" \
             f"int main(void) {{\n{prints}\n    return 0;\n}}\n"
    (tmp_path / "layouts.c").write_text(source)
    exe = tmp_path / "layouts"
    subprocess.run(["cc", "-w", "-O0", "-o", str(exe), str(tmp_path / "layouts.c")],
                   check=True, capture_output=True)
    out = subprocess.run([str(exe)], check=True, capture_output=True, text=True).stdout
    return dict(zip([label for label, _, _ in checks], map(int, out.split())))


def ssi_values(defs, checks):
    body = "\n".join(stmt for _, _, stmt in checks)
    session, interp = make_session(
        {"layouts.c": f"{PRELUDE}{defs}\nvoid testmain(void) {{\n{body}\n}}\n"})
    frame = run_function(session, interp, "testmain")
    return {label: _concrete_or_none(session, frame, label) for label, _, _ in checks}


def _concrete_or_none(session, frame, name):
    try:
        return local_concrete(session, frame, name)
    except AssertionError:  # not concrete: a mismatch to report with the rest
        return None


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc) on PATH")
@pytest.mark.parametrize("seed", [1, 2])
def test_struct_layouts_match_gcc_packed(tmp_path, seed):
    structs = _Structs(random.Random(seed))
    defs, checks = "\n".join(structs.defs), structs.checks()
    expected = gcc_values(tmp_path, defs, checks)
    got = ssi_values(defs, checks)
    wrong = {label: (got[label], value) for label, value in expected.items()
             if got[label] != value}
    assert not wrong, wrong
