"""Tolerant tokenization and island parsing.

The tokenizer is lossless and total: every byte lands in a token, and
joining the token texts reproduces the file exactly. A corpus keeps only a
file's code tokens, with its preprocessor lines beside them, and reads any
span's text from the source by the offsets of its first and last token. The island parser then matches
coarse statement shapes and captures balanced spans as holes, so code it
never executes is never analyzed -- even if it is not valid C.
"""

from ssi import Corpus, RuleRegistry, parse_hole_as_block, tokenize

source = """\
int pick(int x) {
    if (x > 0) {
        return 1;
    } else {
        @@@ this branch is not even C (((
    }
}
"""

# Round trip: nothing is lost.
toks = tokenize(source, "demo.c")
assert "".join(t.text for t in toks) == source
print(f"{len(toks)} tokens, round-trips byte for byte")

# Parse just the first statement of the function body.
corpus = Corpus.from_sources({"demo.c": source})
code = corpus.tokens("demo.c")


def hole_text(hole):
    return corpus.text(hole.file_id, code[hole.start], code[hole.end - 1])


fdef = corpus.find_function("pick")
print(f"found pick() at line {fdef.line}; body is an unparsed hole")

nodes = parse_hole_as_block(corpus, fdef.body, RuleRegistry())
branch = nodes[0]
print(f"one {type(branch).__name__} with condition "
      f"{hole_text(branch.cond)!r}")

# The garbage sits inside the else hole. Nobody has complained because
# nobody has looked: holes are only parsed when execution enters them.
print(f"else hole carries {hole_text(branch.orelse)!r} -- still unparsed:",
      branch.orelse.nodes is None)
