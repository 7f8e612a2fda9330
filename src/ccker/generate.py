"""Seeded random instance generation.

All generators draw from one ``random.Random(seed)``; identical arguments
produce identical instances.  Densities are fractions of the full canonical
constraint space, so density 1.0 yields every possible edge or tuple.
"""

from __future__ import annotations

import itertools
import random

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
from .relations import Relation, UrfcShape

__all__ = [
    "gen_graph",
    "gen_urfc",
    "gen_gurfc",
    "gen_rcc",
    "gen_rclc",
    "gen_cnf",
    "gen_cliquekv",
    "gen_hypergraph",
]


def _sample(rng: random.Random, pool: list, density: float) -> list:
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    count = round(density * len(pool))
    return rng.sample(pool, count)


def _edges(rng: random.Random, n: int, density: float):
    return _sample(rng, list(itertools.combinations(range(1, n + 1), 2)), density)


def gen_graph(n: int, density: float, seed: int) -> Graph:
    rng = random.Random(seed)
    return Graph(n, tuple(_edges(rng, n, density)))


def _all_tuples(n: int, d: int, l: int) -> list:
    sets = list(itertools.combinations(range(1, n + 1), d))
    return list(itertools.combinations_with_replacement(sets, l))


def gen_urfc(
    n: int,
    d: int,
    l: int,
    q: int,
    density: float = 0.5,
    edge_density: float = 0.3,
    seed: int = 0,
) -> GurfcInstance:
    """The one-block instance of gen_gurfc."""
    return gen_gurfc(n, q, [(d, l)], density, edge_density, seed)


def gen_gurfc(
    n: int,
    q: int,
    shapes,
    density: float = 0.5,
    edge_density: float = 0.3,
    seed: int = 0,
) -> GurfcInstance:
    shapes = [UrfcShape(d, l, q) for d, l in shapes]  # before the pools are built
    rng = random.Random(seed)
    edges = _edges(rng, n, edge_density)
    blocks = []
    for s in shapes:
        tuples = _sample(rng, _all_tuples(n, s.d, s.l), density)
        blocks.append(GurfcBlock(s.d, s.l, tuple(tuples)))
    return GurfcInstance(Graph(n, tuple(edges)), q, tuple(blocks))


def _gen_constrained(
    n, relation, density, edge_density, seed, nur_shape, with_lists
) -> RccInstance:
    """Edges, then constraints, then with ``with_lists`` one nonempty list per
    vertex, all drawn from one generator."""
    rng = random.Random(seed)
    edges = _edges(rng, n, edge_density)
    pool = list(itertools.product(range(1, n + 1), repeat=relation.r))
    constraints = _sample(rng, pool, density)
    lists = None
    if with_lists:
        q = relation.q
        draws = (rng.sample(range(1, q + 1), rng.randint(1, q)) for _ in range(n))
        lists = ListAssignment(q, tuple(map(frozenset, draws)))
    graph = Graph(n, tuple(edges))
    return RccInstance(graph, relation, tuple(constraints), nur_shape, lists)


def gen_rcc(
    n: int,
    relation: Relation,
    density: float = 0.3,
    edge_density: float = 0.2,
    seed: int = 0,
    nur_shape: UrfcShape | None = None,
) -> RccInstance:
    return _gen_constrained(
        n, relation, density, edge_density, seed, nur_shape, with_lists=False
    )


def gen_rclc(
    n: int,
    relation: Relation,
    density: float = 0.3,
    edge_density: float = 0.2,
    seed: int = 0,
    nur_shape: UrfcShape | None = None,
) -> RccInstance:
    """As gen_rcc, with the same draws, followed by a color list per vertex."""
    return _gen_constrained(
        n, relation, density, edge_density, seed, nur_shape, with_lists=True
    )


def gen_cnf(n: int, k: int, m: int, seed: int = 0) -> CnfFormula:
    if k > n:
        raise ValueError(f"clause width {k} exceeds variable count {n}")
    rng = random.Random(seed)
    clauses = []
    for _ in range(m):
        vs = sorted(rng.sample(range(1, n + 1), k))
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return CnfFormula(n, tuple(clauses))


def gen_cliquekv(
    k: int,
    t: int,
    n_cliques: int = 3,
    seed: int = 0,
    edge_density: float = 0.4,
    attach_density: float = 0.5,
) -> CliqueKvInstance:
    """Modulator of k vertices plus ``n_cliques`` residual cliques of random
    size 1..t, each clique vertex wired to a random modulator subset."""
    rng = random.Random(seed)
    edges = set(_edges(rng, k, edge_density))
    n = k
    for _ in range(n_cliques):
        size = rng.randint(1, t)
        fresh = list(range(n + 1, n + size + 1))
        n += size
        for e in itertools.combinations(fresh, 2):
            edges.add(e)
        for v in fresh:
            for x in range(1, k + 1):
                if rng.random() < attach_density:
                    edges.add((x, v))
    return CliqueKvInstance(
        Graph(n, tuple(sorted(edges))), tuple(range(1, k + 1))
    )


def gen_hypergraph(
    n: int, l: int, density: float = 0.2, seed: int = 0
) -> Hypergraph:
    rng = random.Random(seed)
    pool = list(itertools.combinations(range(1, n + 1), l))
    return Hypergraph(n, tuple(_sample(rng, pool, density)))
