"""Gadget constructions and problem transformations.

Every transformation returns the constructed instance together with a
ReductionReport that accounts for the output size exactly.  All
constructions are deterministic: helper colors are chosen minimal, fresh
vertices are numbered in creation order, and constraint collections are
canonicalized by the instance constructors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .instances import (
    CliqueKvInstance,
    CnfFormula,
    Graph,
    GurfcBlock,
    GurfcInstance,
    Hypergraph,
    ListAssignment,
    RccInstance,
)
from .polykernel import kernelize_gurfc
from .relations import OrWitness, Relation, is_permutation_invariant, r_clique

__all__ = [
    "ReductionReport",
    "forbid_pair_gadget",
    "sat_to_rclc",
    "decode_sat_coloring",
    "rclc_to_rcc",
    "nae_to_urfc",
    "urfc_to_hypergraph",
    "extract_clique_constraints",
    "gurfc_to_cliquekv",
    "kernelize_cliquekv",
]


@dataclass(frozen=True)
class ReductionReport:
    """Size bookkeeping: output parameter <= multiplicative * input + additive."""

    name: str
    input_parameter: int
    output_vertices: int
    multiplicative: int
    additive: int
    gadget_counts: tuple[tuple[str, int], ...] = ()

    def lines(self) -> list[str]:
        out = [
            f"reduction={self.name}",
            f"input_parameter={self.input_parameter}",
            f"output_vertices={self.output_vertices}",
            f"multiplicative={self.multiplicative}",
            f"additive={self.additive}",
        ]
        out.extend(f"gadget_{kind}={count}" for kind, count in self.gadget_counts)
        return out


def forbid_pair_gadget(
    graph: Graph,
    lists: ListAssignment,
    u1: int,
    u2: int,
    a1: int,
    a2: int,
    q: int,
) -> tuple[Graph, ListAssignment]:
    """Extend (graph, lists) so that proper list-colorings of the base extend
    to the new vertices iff (c(u1), c(u2)) != (a1, a2).

    For a1 != a2 a path u1-v1-v2-u2 is added with lists {a1, b} and {a2, b},
    b the smallest color outside {a1, a2}.  For a1 = a2 a path
    u1-v1-v2-v3-u2 is added with lists {a1, b}, {b, g}, {a1, g}, where b < g
    are the two smallest colors other than a1.  Requires q >= 3.
    """
    if q < 3:
        raise ValueError(f"gadget needs q >= 3, got {q}")
    if lists.q != q or lists.n != graph.n:
        raise ValueError("list assignment does not match graph/q")
    if u1 == u2:
        raise ValueError("gadget endpoints must be distinct")
    for u in (u1, u2):
        if not 1 <= u <= graph.n:
            raise ValueError(f"vertex {u} out of range")
    for a in (a1, a2):
        if not 1 <= a <= q:
            raise ValueError(f"color {a} out of range 1..{q}")
    n = graph.n
    if a1 != a2:
        b = min(set(range(1, q + 1)) - {a1, a2})
        new_lists = (frozenset({a1, b}), frozenset({a2, b}))
        new_edges = ((u1, n + 1), (n + 1, n + 2), (n + 2, u2))
    else:
        b, g = sorted(set(range(1, q + 1)) - {a1})[:2]
        new_lists = (frozenset({a1, b}), frozenset({b, g}), frozenset({a1, g}))
        new_edges = ((u1, n + 1), (n + 1, n + 2), (n + 2, n + 3), (n + 3, u2))
    return (
        Graph(n + len(new_lists), graph.edges + new_edges),
        ListAssignment(q, lists.lists + new_lists),
    )


def _sat_layout(formula: CnfFormula, witness: OrWitness):
    """Vertex numbering shared by the construction and the decoder."""
    k = witness.k
    n = formula.n

    def t_vertex(i: int, s: int) -> int:
        return (i - 1) * 2 * k + 2 * (s - 1) + 1

    def f_vertex(i: int, s: int) -> int:
        return t_vertex(i, s) + 1

    positions = witness.positions
    off_positions = tuple(
        j for j in range(1, witness.arity + 1) if j not in set(positions)
    )
    v_vertex = {j: 2 * n * k + idx + 1 for idx, j in enumerate(off_positions)}
    return t_vertex, f_vertex, positions, off_positions, v_vertex


def sat_to_rclc(
    formula: CnfFormula, rel: Relation, witness: OrWitness
) -> tuple[RccInstance, ReductionReport]:
    """Encode width-k satisfiability as constrained list coloring.

    Per variable and witness position, an adjacent true/false vertex pair
    with the position's two-value list; one isolated singleton-list vertex
    per off-witness position; pair gadgets between consecutive true-vertices
    forbidding mixed patterns; and one relation constraint per clause whose
    entries point at the literal's true or false vertex.  The formula is
    satisfiable iff the instance is a yes instance.
    """
    k = witness.k
    if k < 3:
        raise ValueError(f"witness arity must be at least 3, got {k}")
    if rel.q < 3:
        raise ValueError(f"relation domain must have q >= 3, got {rel.q}")
    formula.validate_width(k)
    if not witness.check(rel):
        raise ValueError("witness does not validate against the relation")

    n, q, r = formula.n, rel.q, rel.r
    t_vertex, f_vertex, positions, off_positions, v_vertex = _sat_layout(
        formula, witness
    )
    beta_at = dict(zip(positions, witness.beta))
    alpha_at = {j: witness.alpha[j - 1] for j in range(1, r + 1)}

    core = 2 * n * k + (r - k)
    lists: list[frozenset] = [frozenset()] * core
    edges = []
    for i in range(1, n + 1):
        for s, j in enumerate(positions, start=1):
            domain = frozenset({alpha_at[j], beta_at[j]})
            lists[t_vertex(i, s) - 1] = domain
            lists[f_vertex(i, s) - 1] = domain
            edges.append((t_vertex(i, s), f_vertex(i, s)))
    for j in off_positions:
        lists[v_vertex[j] - 1] = frozenset({alpha_at[j]})

    graph = Graph(core, tuple(edges))
    assignment = ListAssignment(q, tuple(lists))
    distinct = equal = 0
    for i in range(1, n + 1):
        for s in range(1, k):
            j1, j2 = positions[s - 1], positions[s]
            for c1, c2 in (
                (alpha_at[j1], beta_at[j2]),
                (beta_at[j1], alpha_at[j2]),
            ):
                graph, assignment = forbid_pair_gadget(
                    graph, assignment, t_vertex(i, s), t_vertex(i, s + 1), c1, c2, q
                )
                if c1 != c2:
                    distinct += 1
                else:
                    equal += 1

    constraints = []
    for clause in formula.clauses:
        entry = {}
        for s, lit in enumerate(clause, start=1):
            i = abs(lit)
            j = positions[s - 1]
            entry[j] = t_vertex(i, s) if lit > 0 else f_vertex(i, s)
        for j in off_positions:
            entry[j] = v_vertex[j]
        constraints.append(tuple(entry[j] for j in range(1, r + 1)))

    inst = RccInstance(graph, rel, tuple(constraints), lists=assignment)
    per_variable = (graph.n - (r - k)) // n if n else 0
    report = ReductionReport(
        "sat_to_rclc",
        n,
        graph.n,
        per_variable,
        r - k,
        (
            ("tf_pair", n * k),
            ("forbid_pair_distinct", distinct),
            ("forbid_pair_equal", equal),
        ),
    )
    assert report.output_vertices == report.multiplicative * n + report.additive
    assert per_variable <= 2 * k + 6 * (k - 1) or n == 0
    return inst, report


def decode_sat_coloring(
    formula: CnfFormula, witness: OrWitness, coloring
) -> tuple[bool, ...]:
    """Read a truth assignment off a coloring of the sat_to_rclc output:
    variable i is true iff its first true-vertex carries the beta color."""
    t_vertex, _, positions, _, _ = _sat_layout(formula, witness)
    beta_first = witness.beta[0]
    return tuple(
        coloring[t_vertex(i, 1) - 1] == beta_first for i in range(1, formula.n + 1)
    )


def rclc_to_rcc(inst: RccInstance) -> tuple[RccInstance, ReductionReport]:
    """Replace lists by a q-clique palette: vertex v is wired to the palette
    vertex of every color missing from its list.  Requires an instance with
    lists and a permutation-invariant relation."""
    if inst.lists is None:
        raise ValueError("instance has no color lists")
    if not is_permutation_invariant(inst.relation):
        raise ValueError("relation is not permutation-invariant")
    q = inst.relation.q
    n = inst.graph.n
    edges = list(inst.graph.edges)
    for i in range(1, q + 1):
        for j in range(i + 1, q + 1):
            edges.append((n + i, n + j))
    for v in range(1, n + 1):
        for i in sorted(set(range(1, q + 1)) - inst.lists.get(v)):
            edges.append((v, n + i))
    out = RccInstance(
        Graph(n + q, tuple(edges)), inst.relation, inst.constraints, inst.nur_shape
    )
    report = ReductionReport(
        "rclc_to_rcc", n, n + q, 1, q, (("palette_clique", 1),)
    )
    return out, report


def nae_to_urfc(
    formula: CnfFormula, variant: str, width: int | None = None
) -> tuple[GurfcInstance, ReductionReport]:
    """Encode not-all-equal satisfiability as rainbow-free 2-coloring.

    The graph is the perfect matching of literal vertices (x_i at i, its
    negation at n+i).  The singletons variant adds, per clause, the k-tuple
    of literal singletons; the pairs variant adds the (k-1)-tuple of pairs
    {y_1, not y_j} for j >= 2.
    """
    if variant not in ("singletons", "pairs"):
        raise ValueError(f"variant must be 'singletons' or 'pairs', got {variant!r}")
    if width is None:
        width = formula.width
        if width is None:
            raise ValueError("clause width not determined; pass width explicitly")
    if width < 2:
        raise ValueError(f"clause width must be at least 2, got {width}")
    formula.validate_width(width)

    n = formula.n

    def vertex(lit: int) -> int:
        return abs(lit) if lit > 0 else n + abs(lit)

    def neg_vertex(lit: int) -> int:
        return vertex(-lit)

    graph = Graph(2 * n, tuple((i, n + i) for i in range(1, n + 1)))
    tuples = []
    if variant == "singletons":
        d, l = 1, width
        for clause in formula.clauses:
            tuples.append(tuple((vertex(lit),) for lit in clause))
    else:
        d, l = 2, width - 1
        for clause in formula.clauses:
            first = clause[0]
            tuples.append(
                tuple(
                    tuple(sorted((vertex(first), neg_vertex(lit))))
                    for lit in clause[1:]
                )
            )
    inst = GurfcInstance(graph, 2, (GurfcBlock(d, l, tuple(tuples)),))
    report = ReductionReport(
        f"nae_to_urfc_{variant}",
        n,
        2 * n,
        2,
        0,
        (("clause_tuple", len(formula.clauses)),),
    )
    return inst, report


def urfc_to_hypergraph(inst: GurfcInstance) -> tuple[Hypergraph, ReductionReport]:
    """Turn a one-block singleton-shape rainbow-free instance into uniform
    hypergraph coloring.

    Step one collects the graph edges and, per constraint tuple, the union of
    its singletons.  Step two adds a pad set Z of (l-1)*q fresh vertices with
    every l-subset of Z as an edge, and replaces each undersized edge e by
    all e union S for S an (l-|e|)-subset of Z.
    """
    if len(inst.blocks) != 1:
        raise ValueError(
            f"transformation needs exactly one block, got {len(inst.blocks)}"
        )
    (block,) = inst.blocks
    if block.d != 1:
        raise ValueError(f"transformation needs d = 1, got d = {block.d}")
    if block.l < 2:
        raise ValueError(f"transformation needs l >= 2, got l = {block.l}")
    if inst.q < 2:
        raise ValueError(f"transformation needs q >= 2, got q = {inst.q}")
    l, q, n = block.l, inst.q, inst.graph.n
    small = {e for e in inst.graph.edges}
    for tp in block.tuples:
        small.add(tuple(sorted({s[0] for s in tp})))
    pad = tuple(range(n + 1, n + (l - 1) * q + 1))
    edges = {tuple(sorted(c)) for c in itertools.combinations(pad, l)}
    for e in small:
        if len(e) == l:
            edges.add(e)
        else:
            for extra in itertools.combinations(pad, l - len(e)):
                edges.add(tuple(sorted(e + extra)))
    out = Hypergraph(n + len(pad), tuple(sorted(edges)))
    assert out.is_uniform(l)
    report = ReductionReport(
        "urfc_to_hypergraph", n, out.n, 1, len(pad), (("pad_vertices", len(pad)),)
    )
    return out, report


def extract_clique_constraints(
    inst: CliqueKvInstance, q: int, t: int
) -> tuple[GurfcInstance, ReductionReport]:
    """The rainbow-free system on the modulator that governs extendability.

    For every l-subset {v_1 < ... < v_l} of a residual clique, l in 1..t,
    and every choice of (q-l+1)-subsets F_i of the modulator neighborhood of
    v_i, emit the tuple (F_1, ..., F_l); canonicalization merges symmetric
    duplicates.  A proper modulator coloring extends to the whole graph iff
    no emitted tuple is uniformly rainbow under it.  Modulator vertices are
    renumbered 1..k in sorted order.
    """
    if not 1 <= t <= q:
        raise ValueError(f"need 1 <= t <= q, got t={t}, q={q}")
    if inst.max_clique_size > t:
        raise ValueError(
            f"clique of size {inst.max_clique_size} exceeds t = {t}"
        )
    sub, mapping = inst.graph.induced(inst.modulator)
    xs = set(inst.modulator)
    blocks: dict[int, set] = {l: set() for l in range(1, t + 1)}
    for clique in inst.cliques:
        hoods = {
            v: sorted(mapping[u] for u in inst.graph.neighbors(v) if u in xs)
            for v in clique
        }
        for l in range(1, min(t, len(clique)) + 1):
            size = q - l + 1
            for subset in itertools.combinations(clique, l):
                pools = [
                    list(itertools.combinations(hoods[v], size)) for v in subset
                ]
                if any(not pool for pool in pools):
                    continue
                for choice in itertools.product(*pools):
                    blocks[l].add(tuple(sorted(choice)))
    out = GurfcInstance(
        sub,
        q,
        tuple(
            GurfcBlock(q - l + 1, l, tuple(sorted(blocks[l])))
            for l in range(1, t + 1)
        ),
    )
    report = ReductionReport(
        "extract_clique_constraints",
        inst.k,
        inst.k,
        1,
        0,
        tuple((f"block_l{l}", len(blocks[l])) for l in range(1, t + 1)),
    )
    return out, report


def gurfc_to_cliquekv(inst: GurfcInstance) -> tuple[CliqueKvInstance, ReductionReport]:
    """Realize modulator-shaped rainbow-free constraints as residual cliques.

    Each block must have shape (q-l+1, l) for some l <= q.  Per tuple, a
    fresh l-clique is added with its i-th vertex wired to the set F_i; the
    modulator is the original vertex set, so the parameter equals n.
    """
    q = inst.q
    for b in inst.blocks:
        if not (1 <= b.l <= q and b.d == q - b.l + 1):
            raise ValueError(
                f"block (d={b.d}, l={b.l}) is not of modulator shape for q={q}"
            )
    n = inst.graph.n
    edges = list(inst.graph.edges)
    nxt = n
    added = 0
    for b in inst.blocks:
        for tp in b.tuples:
            fresh = list(range(nxt + 1, nxt + b.l + 1))
            nxt += b.l
            added += 1
            for u, v in itertools.combinations(fresh, 2):
                edges.append((u, v))
            for v, members in zip(fresh, tp):
                for u in members:
                    edges.append((min(u, v), max(u, v)))
    out = CliqueKvInstance(Graph(nxt, tuple(edges)), tuple(range(1, n + 1)))
    report = ReductionReport(
        "gurfc_to_cliquekv", n, nxt, 1, nxt - n, (("fresh_cliques", added),)
    )
    return out, report


def kernelize_cliquekv(
    inst: CliqueKvInstance, q: int, t: int | None = None, budget: int | None = None
) -> tuple[CliqueKvInstance, ReductionReport]:
    """Shrink a clique-modulator coloring instance, preserving q-colorability.

    Pipeline: extract the modulator constraint system, kernelize it per
    block, and rebuild the graph from the induced modulator plus one fresh
    clique per surviving tuple.  With t absent, clique sizes are unbounded: a
    clique larger than q makes the graph trivially uncolorable and a fixed
    constant no-instance is returned; otherwise t = q applies.  ``budget``
    goes to the polynomial kernel of each block.
    """
    if q < 3:
        raise ValueError(f"q must be at least 3, got {q}")
    if t is None:
        if inst.max_clique_size > q:
            no = CliqueKvInstance(
                Graph(
                    q + 2,
                    tuple(itertools.combinations(range(1, q + 3), 2)),
                ),
                (),
            )
            report = ReductionReport(
                "kernelize_cliquekv",
                inst.k,
                no.graph.n,
                1,
                no.graph.n,
                (("oversized_clique_rejected", 1),),
            )
            return no, report
        t = q
    extracted, _ = extract_clique_constraints(inst, q, t)
    kernel = kernelize_gurfc(extracted, budget)
    out, _ = gurfc_to_cliquekv(kernel.instance)
    surviving = sum(len(b.tuples) for b in kernel.instance.blocks)
    report = ReductionReport(
        "kernelize_cliquekv",
        inst.k,
        out.graph.n,
        1,
        out.graph.n - inst.k,
        (
            ("surviving_tuples", surviving),
            ("exponent", r_clique(q, t)),
        ),
    )
    return out, report
