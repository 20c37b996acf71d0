"""The semi-symbolic value algebra.

Unknown inputs are symbolic roots; operations over them build terms, and
any operation whose operands are (or become) constants computes eagerly.
Every value remembers where it came from, so you can always ask for the
chain of program steps behind it.
"""

from ssi import ValueTable
from ssi.values import Concrete, make_concrete, to_int

vals = ValueTable()
HERE = ("demo.c", 1)

# A value nobody modeled yet, exactly as the interpreter would mint it for
# an unmodeled call.
ret = vals.fresh_symbol("ret:of_address_to_resource@1212", HERE)
masked = vals.apply_binop("%", ret, vals.concrete(32, 32, HERE), HERE)

blocked = vals.resolve(masked)
print("before binding:", vals.labels_for(blocked.blockers))

# Learn the concrete value (say, from a branch or the user) and everything
# built over it resolves.
vals.concretize(ret, make_concrete(32, 35), "user-supplied", HERE)
print("after binding: 35 % 32 =", to_int(vals.resolve(masked)))

# Constants fold greedily, including identities over symbols.
s = vals.fresh_symbol("s", HERE)
assert vals.apply_binop("+", s, vals.concrete(32, 0, HERE, signed=True), HERE) is s
# ... but not an identity of another type: s + 0u is unsigned, as in C.
below = vals.apply_binop("<", vals.apply_binop("+", s, vals.concrete(32, 0, HERE), HERE),
                         vals.concrete(32, 0, HERE, signed=True), HERE)
vals.concretize(s, make_concrete(32, -1, True), "user-supplied", HERE)
assert to_int(vals.resolve(below)) == 0
print("(s + 0u) < 0 with s = -1:", to_int(vals.resolve(below)))
eight = vals.apply_binop("<<", vals.concrete(32, 1, HERE, signed=True),
                         vals.concrete(32, 3, HERE), HERE)
assert isinstance(eight.payload, Concrete) and to_int(eight.payload) == 8
print("1 << 3 computed eagerly as", to_int(eight.payload))

print("\nprovenance of the masked value:")
for vid, (file, line), desc, parents in vals.provenance_trace(masked):
    joined = ", ".join(f"v{p}" for p in parents)
    print(f"  v{vid} <- {file}:{line} {desc}({joined})")
