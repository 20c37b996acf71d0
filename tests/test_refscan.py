"""The corpus readers that answer from each file's index, against the
whole-file scans they replaced (``tests/refscan.py``).

Two worlds are built over the same sources: one runs the readers of
``ssi``, the other the reference readers, each with its own session,
store and type environment. Every reader must give the same answer in
both, or raise the same ``SsiError``; any other exception fails.

One difference is intended: a ``#define`` is now read within its own
preprocessor line. The reference read a parameter list through the next
``)`` anywhere in the file (``#define BAD(x`` hid the ``#define``s after
it), took ``define`` or the macro's name from the next line after a bare
``#`` or ``#define``, and read a ``#define`` on a line that a backslash
continues from another directive. So ``corpus.macros`` is compared with
the reference run on each directive line alone.

The whole-file scans found a function definition, a struct body or a
``MODULE_*`` string at any depth, and ``ssi`` now reads them from each
file's top-level items. On well-formed code (the bundled driver, the
refeval programs, the header of 400 ``#define``s) the two agree, and the
old scans (``ANY_DEPTH``) stay the reference there. Token soup puts such
shapes inside bodies and bracket groups, where the item rule answers
otherwise by design, so it is compared with a whole-file reference of the
item rule (``ITEMS``).
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

import refeval
import refscan
import reftokens
from conftest import EXAMPLE_DIR
from ssi import tokens as tk
from ssi.config import load_config
from ssi.errors import SsiError
from ssi.interp import Interp
from ssi.islands import Corpus, find_function_definition
from ssi.session import Session


def outcome(read, *args):
    try:
        return read(*args)
    except SsiError as e:
        return type(e).__name__


def defines_line_by_line(source, file_id):
    """The reference ``scan_defines`` run on the per-character tokens of
    each ``#define`` line alone; the lines are the reference tokenizer's
    directive tokens, not read from the index under test."""
    plain = reftokens.plain_tokenize(source)
    token_at = {t.byte_offset: k for k, t in enumerate(plain)}
    out = {}
    for d in reftokens.tokenize(source):
        if d.kind != tk.DIRECTIVE:
            continue
        line = plain[token_at[d.byte_offset] : token_at.get(d.byte_offset + len(d.text))]
        j = reftokens.skip_trivia(line, 1, len(line))
        if j < len(line) and line[j].text == "define":
            out.update(refscan.scan_defines(line, file_id))
    return out


# The reference readers of each rule: (functions, layouts, typedefs and
# global declarations, module info).
ANY_DEPTH = (refscan.find_function_definition, refscan.layout_from_corpus,
             refscan.scan_corpus_names, refscan.scrape_module_info)
ITEMS = (refscan.item_function, refscan.item_layout, refscan.item_names,
         refscan.item_module_info)


def reference_world(sources, readers):
    """A session whose type environment and layouts come from the
    reference readers."""
    session = Session(Corpus.from_sources(sources))
    interp = Interp(session)
    session.typedefs.clear()
    session.global_decls.clear()
    session.store.layout_source = lambda tag: readers[1](interp, tag)
    readers[2](interp)
    return session, interp


def assert_readers_agree(sources, readers=ANY_DEPTH):
    new = Session(Corpus.from_sources(sources))
    new_interp = Interp(new)
    ref, ref_interp = reference_world(sources, readers)
    find_function, layout, _, module_info = readers
    corpus = new.corpus
    macros, names = {}, set()
    for fid in corpus.files:
        macros.update(defines_line_by_line(corpus.source(fid), fid))
        names.update(t.text for t in corpus.tokens(fid) if t.kind == tk.IDENTIFIER)
    assert {name: (m.name, m.params, m.body, m.file_id, m.line)
            for name, m in corpus.macros.items()} == macros
    assert new.global_decls == ref.global_decls
    assert new.typedefs == ref.typedefs
    assert corpus.module_info() == module_info(ref.corpus)
    for name in sorted(names):
        assert find_function_definition(corpus, name) == find_function(ref.corpus, name), name
        assert outcome(new_interp._layout_from_corpus, name) == \
            outcome(layout, ref_interp, name), name


def test_readers_agree_on_the_bundled_driver():
    config = load_config(EXAMPLE_DIR / "pinctrl.json")
    assert_readers_agree({p.name: p.read_text() for p in config.corpus})


def test_readers_agree_on_refeval_programs():
    rng = random.Random(11)
    for index in range(300):
        stmts, _ = refeval.gen_program(rng, max_stmts=24)
        coverage = {}
        refeval.run_program(stmts, coverage)
        sites = refeval.untaken_sites(stmts, coverage) if index % 2 else []
        assert_readers_agree(
            {"prog.c": refeval.render_program(stmts, garbage_at=set(sites), rng=rng)})


def test_readers_agree_on_a_header_of_400_defines():
    rng = random.Random(5)
    defines = "\n".join(f"#define R{k}\t0x{rng.randrange(0x1000):03x}" for k in range(400))
    fields = "\n".join(f"\tunsigned int r{k}[R{k} % 4 + 1];" for k in range(400))
    assert_readers_agree({"regs.h": f"{defines}\nstruct regs {{\n{fields}\n}} REGS;\n"
                                    "int f(void) { return R7 + R399; }\nint after;\n"})


# Token soup: file-scope shapes (functions, structs, typedefs, module
# fields, object-like macros that name a type) and directive lines, in
# whole fragments and cut into single tokens.
SOUP = [
    "int", "char", "unsigned", "static", "struct", "union", "typedef", "enum",
    "void", "const", "f", "g", "s", "t", "x", "M", "u8", "MODULE_AUTHOR",
    "(", ")", "[", "]", "{", "}", ";", ",", "*", "=", ".", "->", "#", "\\",
    "1", '"s"', "define", "\n", "\n", " ", "/* c\n */", "\\\n",
    "\n#define M unsigned char\n", "\n#define F(a) (a)\n", "\n#define B(x\n",
    "\n#define OPEN {\n", "\n#define SHUT }\n", "\n#if 0 \\\n#define C 3\n",
    "\n#\n", "\n#define\n", "\n#include <x.h>\n",
    "int f(void) { return 1; }", "static int g(int a) { if (a) { a = 2; } return a; }",
    "struct s { int a; char b[4]; };", "union t { int a; long b; };",
    "typedef unsigned char u8;", "u8 G = 3;", "static int A[2] = {1, 2};",
    "M H;", 'MODULE_AUTHOR("me");', "struct s *p, q;", "int (*fp)(int);",
    "struct s { struct t inner; int n[3]; } S;", "f(void) { return 1; }",
    "g(int a) {", "s {", 'MODULE_LICENSE("GPL")',
    "struct big { " + " ".join(f"int m{k};" for k in range(24)) + " } B;",
]

soups = st.lists(st.sampled_from(SOUP), max_size=50).map(" ".join)


@settings(max_examples=2000)
@given(soups)
@example("int f(void){ if (0) { { { } return 1; } int g(void){ return 7; }")
@example("#define B(x\n#define GOOD 3\nint GOOD;")
@example("int f(void) {\n#define OPEN {\n return 1; }\nint after;")
@example("int a, b, c, d, e, f, g, (*h)(void);")
@example("int hits; void walk(unsigned m) { int i; for_each_set_bit(i, &m, 32) { hits++; } }")
@example("int f(void) { int x; int g(void) { return 7; } struct s { int a; } S;")
def test_readers_agree_on_token_soup(source):
    assert_readers_agree({"soup.c": source}, ITEMS)
