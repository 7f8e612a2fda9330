"""Kernelize rainbow-free coloring instances through the polynomial basis.

Builds a capture pair over GF(p), verifies it exhaustively, shrinks a random
instance, and certifies the kernel by comparing full solution sets.
"""

from ccker import build_capture, check_captures, kernelize_urfc, solve_urfc
from ccker.generate import gen_urfc

# A capture pair: q color vectors in GF(p)^m plus a polynomial on an
# m x (d*l) variable matrix that is nonzero exactly on the uniformly rainbow
# color patterns.  For (d, l, q) = (2, 2, 3) the q = d + 1 construction
# applies, with degree at most d*l - 1 = 3.
cp = build_capture(2, 2, 3)
print(f"capture pair for (2,2,3): item {cp.item}, field GF({cp.p})")
print(f"  color vectors: {cp.colors}")
print(f"  polynomial: {len(cp.poly.terms)} monomials, degree {cp.poly.degree}")
print("  exhaustive capture check:", check_captures(cp))

# A dense random instance on 7 vertices: one block of (2, 2) tuples.
inst = gen_urfc(n=7, d=2, l=2, q=3, density=1.0, edge_density=0.3, seed=42)
tuples = len(inst.blocks[0].tuples)
print(f"\ninstance: n={inst.graph.n}, {inst.graph.m} edges, {tuples} tuples")

result = kernelize_urfc(inst)
(report,) = result.reports
print(f"kernel: method={report.method}, basis size {report.basis_size}")
print(f"  dimension bound C(m*n + r, r) = {report.binom_bound}")

before = solve_urfc(inst)
after = solve_urfc(result.instance)
print(f"\nsolution sets: before {len(before)}, after {len(after)}")
print("identical:", before.colorings == after.colorings)

# Shapes with exponent d*l only deduplicate; degenerate shapes are solved
# outright and replaced by a constant-size equivalent instance.
for d, l, q in [(1, 2, 3), (2, 1, 2)]:
    small = gen_urfc(n=5, d=d, l=l, q=q, density=0.5, edge_density=0.3, seed=7)
    r = kernelize_urfc(small)
    (rep,) = r.reports
    print(f"\n({d},{l},{q}) -> method={rep.method}", end="")
    if rep.answer is not None:
        print(f", answer={'YES' if rep.answer else 'NO'}", end="")
        print(f", emitted constant instance on {r.instance.graph.n} vertices", end="")
    print()
