"""Exhaustive ground-truth solvers used to certify kernels and reductions.

Two engines back the solvers.  A depth-first search over colorings with list
pruning serves every predicate oracle: (list) coloring with constraints,
hypergraph coloring, CNF (two colors, a check per clause) and clique
modulators (a check that the coloring extends across the cliques).  Its
vertex schedule is a fixed, instance-determined maximum-cardinality order so
that gadget-heavy instances refute in reasonable time.  Rainbow-free
coloring extends partial colorings vertex by vertex in numpy, dropping each
at its first violated edge or tuple, directly on the set semantics.  It
tests tuples with the same uniformly-rainbow mask that ``make_nur`` builds
the NUR tables with, so its agreement with the relational oracles on NUR
encodings checks the search engines but not the mask.  The independent
checks of the mask are the scalar-predicate tests: ``make_nur`` against
``is_uniformly_rainbow`` on every small shape, and ``solve_urfc`` against an
array reference pinned to the scalar ``urfc_predicate``.

Budgets are hard errors.  Full enumeration charges q^n against the budget;
decision mode (``limit`` set) instead charges explored search nodes, except
in the CNF and clique-modulator oracles, which charge q^n in both modes.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass

import numpy as np

from .budget import DEFAULT_SEARCH_BUDGET, charge, resolve_budget
from .instances import (
    CliqueKvInstance,
    CnfFormula,
    GurfcInstance,
    Hypergraph,
    RccInstance,
    RclcInstance,
    UrfcInstance,
)
from .relations import _radix_weights, _uniformly_rainbow_mask

__all__ = [
    "SolutionSet",
    "solve_rcc",
    "solve_rclc",
    "solve_urfc",
    "solve_hypergraph_qcol",
    "solve_cnf",
    "extend_to_cliques",
    "cliquekv_colorable",
]


@dataclass(frozen=True)
class SolutionSet:
    """All accepted colorings of an instance, sorted lexicographically."""

    q: int
    colorings: tuple[tuple[int, ...], ...]

    @property
    def is_yes(self) -> bool:
        return bool(self.colorings)

    def __len__(self) -> int:
        return len(self.colorings)

    def __iter__(self):
        return iter(self.colorings)

    def __contains__(self, coloring) -> bool:
        coloring = tuple(coloring)
        i = bisect.bisect_left(self.colorings, coloring)
        return i < len(self.colorings) and self.colorings[i] == coloring


# ---------------------------------------------------------------------------
# Depth-first engine
# ---------------------------------------------------------------------------


def _schedule(n: int, lists, adjacency, groups) -> list[int]:
    """Static maximum-cardinality vertex order: repeatedly take the vertex
    with the most already-scheduled constraint neighbors (graph edges or
    shared constraint tuples), breaking ties toward smaller lists and then
    smaller ids.  Fixed per instance; keeps backtracking local on gadget
    heavy graphs."""
    touch = [set(adjacency[v]) for v in range(n + 1)]
    for group in groups:
        vs = set(group)
        for v in vs:
            touch[v] |= vs - {v}
    count = [0] * (n + 1)
    remaining = set(range(1, n + 1))
    order = []
    while remaining:
        v = max(remaining, key=lambda u: (count[u], -len(lists[u]), -u))
        order.append(v)
        remaining.discard(v)
        for u in touch[v]:
            count[u] += 1
    return order


def _dfs_colorings(n, lists, adjacency, checks, limit, node_budget):
    """Enumerate colorings passing list, edge, and group checks.

    ``lists`` and ``adjacency`` are indexed by vertex (index 0 is unused).
    ``checks`` is a list of (vertex_tuple, predicate) pairs; a predicate is
    evaluated on the colors of its vertices as soon as the last of them is
    assigned.  It stops after ``limit`` solutions, if set, and meters its
    nodes against ``node_budget``.  Returns colorings in vertex order, sorted.
    """
    for vs, _ in checks:
        for v in vs:
            if not 1 <= v <= n:
                raise ValueError(f"constraint vertex {v} out of range")
    order = _schedule(n, lists, adjacency, [vs for vs, _ in checks])
    pos = {v: i for i, v in enumerate(order)}
    due: list[list] = [[] for _ in range(n + 1)]
    for vs, pred in checks:
        last = max(pos[v] for v in vs) if vs else -1
        if last < 0:
            if not pred(()):
                return []
        else:
            due[last].append((vs, pred))

    domains = {v: set(lists[v]) for v in range(1, n + 1)}
    colors = [0] * (n + 1)
    solutions: list[tuple[int, ...]] = []
    nodes = 0

    def rec(depth: int) -> bool:
        nonlocal nodes
        if depth == n:
            solutions.append(tuple(colors[1 : n + 1]))
            return limit is not None and len(solutions) >= limit
        v = order[depth]
        for c in sorted(domains[v]):
            nodes += 1
            if nodes > node_budget:
                charge("coloring search nodes", nodes, node_budget)
            colors[v] = c
            ok = all(
                pred(tuple(colors[u] for u in vs)) for vs, pred in due[depth]
            )
            removed = []
            if ok:
                for u in adjacency[v]:
                    if colors[u] == 0 and c in domains[u]:
                        domains[u].discard(c)
                        removed.append(u)
                        if not domains[u]:
                            ok = False
                if ok and rec(depth + 1):
                    return True
            for u in removed:
                domains[u].add(c)
            colors[v] = 0
        return False

    try:
        rec(0)
    finally:
        del rec  # rec refers to itself; drop the cycle before returning
    solutions.sort()
    return solutions


def _node_budget(what: str, q: int, n: int, budget, up_front: bool = True):
    """Node budget for a search over q^n colorings: unbounded once q^n is
    charged up front under ``what``, else the resolved budget, against which
    the search meters its nodes (decision mode)."""
    b = resolve_budget(budget, DEFAULT_SEARCH_BUDGET)
    if not up_front:
        return b
    charge(what, q**n, b)
    return math.inf


def _solve_relational(inst, lists, limit, budget) -> SolutionSet:
    rel = inst.relation
    n, q = inst.graph.n, rel.q
    nodes = _node_budget("coloring enumeration", q, n, budget, limit is None)
    # colors are in 1..q, so a tuple's code is its weighted sum minus this
    weights = _radix_weights([q] * rel.r).tolist()
    offset, table = sum(weights), rel.table.tobytes()

    def member(colors) -> int:
        return table[sum(map(operator.mul, colors, weights)) - offset]

    checks = [(t, member) for t in inst.constraints]
    sols = _dfs_colorings(n, lists, inst.graph._adj, checks, limit, nodes)
    return SolutionSet(q, tuple(sols))


def solve_rcc(
    inst: RccInstance, limit: int | None = None, budget: int | None = None
) -> SolutionSet:
    """All proper colorings landing every constraint tuple in the relation."""
    lists = [frozenset(range(1, inst.relation.q + 1))] * (inst.graph.n + 1)
    return _solve_relational(inst, lists, limit, budget)


def solve_rclc(
    inst: RclcInstance, limit: int | None = None, budget: int | None = None
) -> SolutionSet:
    """As solve_rcc, additionally respecting the per-vertex color lists."""
    return _solve_relational(inst, (frozenset(),) + inst.lists.lists, limit, budget)


def solve_hypergraph_qcol(
    h: Hypergraph, q: int, limit: int | None = None, budget: int | None = None
) -> SolutionSet:
    """All q-colorings of the hypergraph with no monochromatic edge."""
    nodes = _node_budget("coloring enumeration", q, h.n, budget, limit is None)
    pair_edges = [e for e in h.edges if len(e) == 2]
    adjacency = [set() for _ in range(h.n + 1)]
    for u, v in pair_edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    checks = [
        (e, lambda cs: len(set(cs)) > 1) for e in h.edges if len(e) != 2
    ]
    lists = [frozenset(range(1, q + 1))] * (h.n + 1)
    sols = _dfs_colorings(h.n, lists, adjacency, checks, limit, nodes)
    return SolutionSet(q, tuple(sols))


# ---------------------------------------------------------------------------
# Level-wise rainbow-free solver
# ---------------------------------------------------------------------------

_CHUNK_ROWS = 1 << 13
_TUPLE_BATCH = 512


def solve_urfc(
    inst: UrfcInstance | GurfcInstance, budget: int | None = None
) -> SolutionSet:
    """All proper colorings with no uniformly rainbow constraint tuple.

    Implemented directly on the set semantics, not on a relation.  Step k
    extends the surviving colorings of vertices 1..k-1 by each color of k,
    in color order so the rows stay sorted, and drops those with a
    monochromatic edge back from k or a uniformly rainbow tuple whose
    largest vertex is k.
    """
    graph, q, n = inst.graph, inst.q, inst.graph.n
    _node_budget("coloring enumeration", q, n, budget)
    if not n:  # the one empty coloring; the conversion below needs a column
        return SolutionSet(q, ((),))

    back: list[list[int]] = [[] for _ in range(n)]
    for u, v in graph.edges:
        back[v - 1].append(u - 1)
    due: list[dict] = [{} for _ in range(n)]
    blocks = inst.blocks if isinstance(inst, GurfcInstance) else (inst,)
    for block in blocks:  # a UrfcInstance has the d, l and tuples of one block
        shape = (block.d, block.l)
        for tp in block.tuples:
            last = max(s[-1] for s in tp) - 1
            due[last].setdefault(shape, []).append([v - 1 for s in tp for v in s])

    colors = np.arange(1, q + 1, dtype=np.min_scalar_type(q))
    front = np.zeros((1, 0), dtype=colors.dtype)
    for k in range(n):
        front = np.column_stack(
            (np.repeat(front, q, axis=0), np.tile(colors, len(front)))
        )
        front = front[(front[:, back[k]] != front[:, k : k + 1]).all(axis=1)]
        for (d, l), rows in due[k].items():
            idx = np.array(rows, dtype=np.intp)
            ok = np.ones(len(front), dtype=bool)
            for r in range(0, len(front), _CHUNK_ROWS):
                for t in range(0, len(idx), _TUPLE_BATCH):
                    batch = idx[t : t + _TUPLE_BATCH]
                    cols = front[r : r + _CHUNK_ROWS, batch.reshape(-1)]
                    cols = cols.reshape(-1, len(batch), l, d)
                    mask = _uniformly_rainbow_mask(cols)
                    ok[r : r + _CHUNK_ROWS] &= ~mask.any(axis=1)
            front = front[ok]
        if not len(front):
            break
    colorings: list[tuple[int, ...]] = []
    for r in range(0, len(front), _CHUNK_ROWS):
        colorings.extend(zip(*front[r : r + _CHUNK_ROWS].T.tolist()))
    del front  # the tuple copy below is the peak of memory
    return SolutionSet(q, tuple(colorings))


# ---------------------------------------------------------------------------
# Satisfiability
# ---------------------------------------------------------------------------


def solve_cnf(
    formula: CnfFormula,
    mode: str = "sat",
    limit: int | None = None,
    budget: int | None = None,
) -> tuple[tuple[bool, ...], ...]:
    """All satisfying assignments, in SAT or not-all-equal mode, sorted.

    Variables are colored 1 (false) or 2 (true); a clause needs a true
    literal, and in ``nae`` mode a false one as well.  All 2^n assignments
    are charged up front in both modes; with ``limit``, the result is the
    first ``limit`` solutions the search finds.
    """
    if mode not in ("sat", "nae"):
        raise ValueError(f"mode must be 'sat' or 'nae', got {mode!r}")
    n = formula.n
    nodes = _node_budget("assignment enumeration", 2, n, budget)
    wanted = {True} if mode == "sat" else {True, False}  # values a clause must show

    def satisfied(clause):
        return lambda cs: {(c == 2) == (x > 0) for c, x in zip(cs, clause)} >= wanted

    checks = [(tuple(map(abs, cl)), satisfied(cl)) for cl in formula.clauses]
    lists = [frozenset((1, 2))] * (n + 1)
    sols = _dfs_colorings(n, lists, [()] * (n + 1), checks, limit, nodes)
    return tuple(tuple(c == 2 for c in coloring) for coloring in sols)


# ---------------------------------------------------------------------------
# Clique modulator extension
# ---------------------------------------------------------------------------


def _check_proper_on_modulator(inst: CliqueKvInstance, q: int, coloring):
    for v in inst.modulator:
        if v not in coloring or not 1 <= coloring[v] <= q:
            raise ValueError(f"coloring must assign vertex {v} a color in 1..{q}")
    xs = set(inst.modulator)
    for u, v in inst.graph.edges:
        if u in xs and v in xs and coloring[u] == coloring[v]:
            raise ValueError(f"coloring is not proper on edge ({u},{v})")


def _modulator_neighbours(inst: CliqueKvInstance):
    """Per residual clique, each vertex with the modulator positions of its
    modulator neighbours."""
    at = {v: i for i, v in enumerate(inst.modulator)}
    return tuple(
        tuple(
            (v, tuple(at[u] for u in inst.graph.neighbors(v) if u in at))
            for v in clique
        )
        for clique in inst.cliques
    )


def _augment(v, avail, owner, visited) -> bool:
    for c in avail[v]:
        if c in visited:
            continue
        visited.add(c)
        if c not in owner or _augment(owner[c], avail, owner, visited):
            owner[c] = v
            return True
    return False


def _extend_cliques(cliques, q: int, colors) -> dict[int, int] | None:
    """Color every residual clique given the modulator colors by position
    (``cliques`` from _modulator_neighbours), or None if some clique cannot
    be colored."""
    result = {}
    for clique in cliques:
        avail = {}
        for v, nbrs in clique:
            taken = {colors[i] for i in nbrs}
            avail[v] = [c for c in range(1, q + 1) if c not in taken]
        owner: dict[int, int] = {}
        for v, _ in clique:
            if not _augment(v, avail, owner, set()):
                return None
        for c, v in owner.items():
            result[v] = c
    return result


def extend_to_cliques(
    inst: CliqueKvInstance, q: int, coloring
) -> dict[int, int] | None:
    """Extend a proper modulator coloring to the whole graph, if possible.

    Each residual clique is handled by a maximum bipartite matching between
    its vertices and their available colors (augmenting paths, deterministic
    vertex order); the extension exists iff every clique is saturated.
    """
    coloring = dict(coloring)
    _check_proper_on_modulator(inst, q, coloring)
    colors = [coloring[v] for v in inst.modulator]
    extension = _extend_cliques(_modulator_neighbours(inst), q, colors)
    if extension is None:
        return None
    return dict(zip(inst.modulator, colors)) | extension


def cliquekv_colorable(
    inst: CliqueKvInstance, q: int, budget: int | None = None
) -> bool:
    """Brute-force q-colorability: search the proper colorings of the
    modulator for one that extends across the residual cliques."""
    nodes = _node_budget("modulator enumeration", q, inst.k, budget)
    graph, _ = inst.graph.induced(inst.modulator)  # modulator[i] becomes i + 1
    cliques = _modulator_neighbours(inst)

    def extends(colors) -> bool:  # the search only offers proper colorings
        return _extend_cliques(cliques, q, colors) is not None

    check = (tuple(range(1, graph.n + 1)), extends)
    lists = [frozenset(range(1, q + 1))] * (graph.n + 1)
    return bool(_dfs_colorings(graph.n, lists, graph._adj, [check], 1, nodes))
