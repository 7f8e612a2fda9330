"""Not-all-equal satisfiability, rainbow-free 2-coloring, and uniform
hypergraph coloring, tied together by equisatisfiable transformations."""

from ccker import (
    nae_to_urfc,
    solve_cnf,
    solve_hypergraph_qcol,
    solve_urfc,
    urfc_to_hypergraph,
)
from ccker.generate import gen_cnf, gen_urfc

formula = gen_cnf(n=4, k=3, m=5, seed=11)
nae = solve_cnf(formula, "nae")
print(f"formula: {len(formula.clauses)} clauses on {formula.n} vars, "
      f"{len(nae)} not-all-equal assignments")

# Both encodings place literals on a perfect matching; truth values become
# the two colors.  Solution counts match the assignment count exactly.
for variant in ("singletons", "pairs"):
    inst, report = nae_to_urfc(formula, variant)
    sols = solve_urfc(inst)
    (block,) = inst.blocks
    print(f"  {variant:10s}: shape (d={block.d}, l={block.l}) on "
          f"{report.output_vertices} vertices, {len(sols)} colorings")
    assert len(sols) == len(nae)

# Singleton-shape instances translate further into uniform hypergraph
# coloring: tuple unions become edges, padded to size l from a fresh set Z.
inst = gen_urfc(n=5, d=1, l=3, q=3, density=0.4, edge_density=0.3, seed=5)
hg, report = urfc_to_hypergraph(inst)
print(f"\nrainbow-free (1,3,3) instance: n={inst.graph.n}, "
      f"{len(inst.blocks[0].tuples)} tuples")
print(f"  -> 3-uniform hypergraph on {hg.n} vertices "
      f"(+{report.additive} pad), {hg.m} edges")
a = solve_urfc(inst).is_yes
b = solve_hypergraph_qcol(hg, 3, limit=1).is_yes
print(f"  rainbow-free YES={a}  3-colorable={b}")
assert a == b
