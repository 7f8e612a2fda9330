import gc
import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccker import generate, oracles
from ccker.budget import BudgetExceededError
from ccker.instances import (
    CliqueKvInstance,
    CnfFormula,
    Graph,
    GurfcBlock,
    GurfcInstance,
    Hypergraph,
    RccInstance,
    ListAssignment,
)
from ccker.oracles import (
    cliquekv_colorable,
    extend_to_cliques,
    solve_cnf,
    solve_hypergraph_qcol,
    solve_rcc,
    solve_rclc,
    solve_urfc,
)
from ccker.relations import Relation, is_uniformly_rainbow, make_nur


def urfc(graph, q, d, l, tuples):
    """The instance of one (d, l) block."""
    return GurfcInstance(graph, q, (GurfcBlock(d, l, tuples),))


def urfc_predicate(inst, coloring):
    """Direct evaluation of the rainbow-free acceptance condition."""
    for u, v in inst.graph.edges:
        if coloring[u - 1] == coloring[v - 1]:
            return False
    for block in inst.blocks:
        for tp in block.tuples:
            flat = [coloring[v - 1] for s in tp for v in s]
            if is_uniformly_rainbow(flat, block.d, block.l):
                return False
    return True


def rainbow_free_reference(inst):
    """The sorted colorings that ``urfc_predicate`` accepts, by filtering
    arrays rather than one coloring at a time.

    It starts from all q^n colorings and drops those with a monochromatic
    edge.  Then, for each batch of tuples, it ORs ``1 << color`` over each
    set; a tuple is uniformly rainbow when its first set's mask has d bits
    and every set's mask equals the first's.  Only the colorings with no
    uniformly rainbow tuple survive the batch.
    """
    n, q = inst.graph.n, inst.q
    every = itertools.product(range(1, q + 1), repeat=n)
    grid = np.array(list(every), dtype=np.int64).reshape(q**n, n)
    for u, v in inst.graph.edges:
        grid = grid[grid[:, u - 1] != grid[:, v - 1]]
    for block in inst.blocks:
        d, l = block.d, block.l
        sets = np.array(block.tuples, dtype=np.int64).reshape(-1, l, d) - 1
        step = max(1, (1 << 20) // max(1, len(grid) * l * d))
        for t in range(0, len(sets), step):
            masks = np.bitwise_or.reduce(1 << grid[:, sets[t : t + step]], axis=3)
            first = masks[:, :, 0]
            bits = sum((first >> c) & 1 for c in range(1, q + 1))
            rainbow = (bits == d) & (masks == first[:, :, None]).all(axis=2)
            grid = grid[~rainbow.any(axis=1)]
    return tuple(map(tuple, grid.tolist()))


@st.composite
def rainbow_free_instances(draw):
    """One-block and mixed-block instances, n=0..7 and q=1..4, with tuple
    densities from none to every tuple of each shape."""
    n = draw(st.integers(0, 7))
    q = draw(st.integers(1, 4))
    shape = st.tuples(st.integers(1, q), st.integers(1, 3))
    shapes = draw(st.lists(shape, min_size=1, max_size=3, unique=True))
    density = draw(st.sampled_from((0.0, 0.1, 0.4, 1.0)))
    edge_density = draw(st.sampled_from((0.0, 0.2, 0.6)))
    seed = draw(st.integers(0, 2**16))
    return generate.gen_gurfc(n, q, shapes, density, edge_density, seed)


def relational_reference(inst, lists=None):
    """Every coloring in lex order that is proper, puts each constraint
    tuple's colors among the relation's listed members and, given ``lists``,
    takes each vertex's color from its list."""
    members = set(inst.relation.tuples)
    every = itertools.product(range(1, inst.relation.q + 1), repeat=inst.graph.n)
    return tuple(
        c
        for c in every
        if all(c[u - 1] != c[v - 1] for u, v in inst.graph.edges)
        and all(tuple(c[v - 1] for v in t) in members for t in inst.constraints)
        and (lists is None or all(x in s for x, s in zip(c, lists)))
    )


@st.composite
def relational_instances(draw):
    """Rcc instances on n=1..6 vertices over explicit relations (q, r <= 3,
    rows drawn with duplicates), whose constraint tuples may repeat a
    vertex, and color lists for rclc, empty ones included."""
    n, q, r = draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    grid = list(itertools.product(range(1, q + 1), repeat=r))
    rows = draw(st.lists(st.sampled_from(grid), max_size=len(grid) + 2))
    relation = Relation.from_rows(q, r, np.array(rows, dtype=np.int64).reshape(-1, r))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=4, unique=True)) if pairs else []
    vertex = st.integers(1, n)
    constraints = draw(st.lists(st.tuples(*[vertex] * r), max_size=6))
    lists = draw(st.lists(st.frozensets(st.integers(1, q)), min_size=n, max_size=n))
    inst = RccInstance(Graph(n, tuple(edges)), relation, tuple(constraints))
    return inst, ListAssignment(q, tuple(lists))


class TestSolveRcc:
    def test_single_edge_two_colors(self):
        inst = RccInstance(Graph(2, ((1, 2),)), make_nur(1, 2, 2), ())
        assert len(solve_rcc(inst)) == 2

    def test_nur_1_2_2_constraint_forbids_equal(self):
        # the relation holds the distinct pairs, so the constraint acts as an
        # edge between its two vertices
        inst = RccInstance(Graph(2, ()), make_nur(1, 2, 2), ((1, 2),))
        assert solve_rcc(inst).colorings == ((1, 2), (2, 1))

    def test_one_color_with_edge(self):
        inst = RccInstance(Graph(2, ((1, 2),)), make_nur(1, 1, 1), ())
        assert not solve_rcc(inst).is_yes

    def test_limit_short_circuits(self):
        inst = RccInstance(Graph(3, ()), make_nur(1, 2, 3), ())
        assert len(solve_rcc(inst, limit=1)) == 1

    def test_budget_error(self):
        inst = RccInstance(Graph(12, ()), make_nur(1, 2, 3), ())
        with pytest.raises(BudgetExceededError):
            solve_rcc(inst, budget=1000)

    def test_budget_from_environment(self, monkeypatch):
        inst = RccInstance(Graph(12, ()), make_nur(1, 2, 3), ())
        monkeypatch.setenv("CCKER_BUDGET", "1000")
        with pytest.raises(BudgetExceededError):
            solve_rcc(inst)
        monkeypatch.setenv("CCKER_BUDGET", str(2**30))
        assert solve_rcc(inst, limit=1).is_yes

    def test_repeated_vertex_constraint(self):
        inst = RccInstance(Graph(2, ()), make_nur(1, 2, 3), ((1, 1),))
        # (c, c) is never in the distinct-pair relation
        assert not solve_rcc(inst).is_yes

    @settings(max_examples=150, deadline=None)
    @given(relational_instances())
    def test_matches_product_reference(self, drawn):
        inst, _ = drawn
        ref = relational_reference(inst)
        assert solve_rcc(inst).colorings == ref
        first = solve_rcc(inst, limit=1)
        assert first.is_yes == bool(ref) and set(first) <= set(ref)

    def test_distinct_pair_tuples_prune_like_edges(self):
        # K5 with q = 4 takes 64 nodes to refute, as constraints over the
        # distinct-pair relation or as edges; a search that tests each tuple
        # only once both its vertices are colored needs 260
        pairs = tuple(itertools.combinations(range(1, 6), 2))
        as_tuples = RccInstance(Graph(5, ()), make_nur(1, 2, 4), pairs)
        as_edges = RccInstance(Graph(5, pairs), make_nur(1, 2, 4), ())
        for inst in (as_tuples, as_edges):
            assert not solve_rcc(inst, limit=1, budget=64).is_yes
            with pytest.raises(BudgetExceededError, match="search nodes"):
                solve_rcc(inst, limit=1, budget=63)


class TestSolveRclc:
    def test_consistent_singletons(self):
        lists = ListAssignment(3, (frozenset({2}), frozenset({1})))
        inst = RccInstance(Graph(2, ((1, 2),)), make_nur(1, 2, 3), (), lists=lists)
        assert solve_rclc(inst).colorings == ((2, 1),)

    def test_empty_list_forces_no(self):
        lists = ListAssignment(3, (frozenset(), frozenset({1})))
        inst = RccInstance(Graph(2, ()), make_nur(1, 2, 3), (), lists=lists)
        assert not solve_rclc(inst).is_yes

    @settings(max_examples=150, deadline=None)
    @given(relational_instances())
    def test_matches_product_reference(self, drawn):
        rcc, lists = drawn
        inst = RccInstance(rcc.graph, rcc.relation, rcc.constraints, lists=lists)
        ref = relational_reference(rcc, lists.lists)
        assert solve_rclc(inst).colorings == ref
        first = solve_rclc(inst, limit=1)
        assert first.is_yes == bool(ref) and set(first) <= set(ref)


class TestSolveUrfc:
    def test_single_rainbow_set_excluded(self):
        inst = urfc(Graph(3, ()), 3, 3, 1, (((1, 2, 3),),))
        sols = solve_urfc(inst)
        assert len(sols) == 27 - 6
        assert all(len(set(c)) < 3 for c in sols)

    def test_constant_coloring_survives(self):
        inst = urfc(Graph(4, ()), 3, 2, 1, (((1, 2),), ((3, 4),)))
        sols = solve_urfc(inst)
        assert (1, 1, 1, 1) in sols
        assert [2, 2, 3, 3] in sols
        assert (1, 2, 1, 1) not in sols  # {1, 2} is rainbow
        assert [3, 3, 2, 1] not in sols

    def test_members_satisfy_direct_predicate(self):
        rng = random.Random(5)
        for _ in range(20):
            inst = generate.gen_urfc(5, 2, 2, 3, 0.5, 0.4, rng.randint(0, 10**6))
            sols = solve_urfc(inst)
            accepted = {c for c in itertools.product(range(1, 4), repeat=5)
                        if urfc_predicate(inst, c)}
            assert set(sols.colorings) == accepted

    def test_agrees_with_rcc_encoding(self):
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(1, 6)
            q = rng.randint(1, 3)
            d = rng.randint(1, q)
            l = rng.randint(1, max(1, 4 // d))
            if n < d:
                continue
            inst = generate.gen_urfc(
                n, d, l, q, rng.random(), rng.random() * 0.5, rng.randint(0, 10**6)
            )
            flat = [[v for s in tp for v in s] for tp in inst.blocks[0].tuples]
            rcc = RccInstance(inst.graph, make_nur(d, l, q), flat)
            assert solve_urfc(inst).colorings == solve_rcc(rcc).colorings

    def test_gurfc_blocks_intersect(self):
        inst = generate.gen_gurfc(5, 3, [(2, 2), (1, 2)], 0.5, 0.3, 4)
        sols = solve_urfc(inst)
        for block in inst.blocks:
            sub = GurfcInstance(inst.graph, inst.q, (block,))
            assert set(sols.colorings) <= set(solve_urfc(sub).colorings)

    def test_empty_graph(self):
        inst = urfc(Graph(0, ()), 2, 1, 2, ())
        assert solve_urfc(inst).colorings == ((),)

    @settings(max_examples=150, deadline=None)
    @given(
        rainbow_free_instances(),
        st.sampled_from((1, 7, 1 << 13)),
        st.sampled_from((1, 3, 512)),
    )
    def test_matches_direct_predicate(self, inst, chunk_rows, tuple_batch):
        # small row chunks and tuple batches run every gather loop
        with (
            mock.patch.object(oracles, "_CHUNK_ROWS", chunk_rows),
            mock.patch.object(oracles, "_TUPLE_BATCH", tuple_batch),
        ):
            got = solve_urfc(inst).colorings
        assert got == rainbow_free_reference(inst)
        assert all(a < b for a, b in zip(got, got[1:]))
        assert all(type(c) is int for coloring in got for c in coloring)

    def test_reference_matches_scalar_predicate(self):
        # pins the array reference of test_matches_direct_predicate on
        # instances small enough for the scalar predicate
        rng = random.Random(17)
        for _ in range(80):
            n, q = rng.randint(0, 5), rng.randint(1, 3)
            shapes = {(rng.randint(1, q), rng.randint(1, 3)) for _ in range(3)}
            density = rng.choice((0.0, 0.1, 0.4, 1.0))
            seed = rng.randint(0, 10**6)
            inst = generate.gen_gurfc(n, q, sorted(shapes), density, 0.2, seed)
            every = itertools.product(range(1, q + 1), repeat=n)
            expected = tuple(c for c in every if urfc_predicate(inst, c))
            assert rainbow_free_reference(inst) == expected

    def test_unconstrained_lists_every_coloring_in_order(self):
        # 3^9 rows, more than one conversion chunk
        inst = urfc(Graph(9, ()), 3, 1, 2, ())
        every = tuple(itertools.product(range(1, 4), repeat=9))
        assert solve_urfc(inst).colorings == every

    def test_budget_charged_before_pruning(self):
        # a 2-colored triangle is refuted at vertex 3, but 2^3 is charged first
        inst = urfc(Graph(3, ((1, 2), (1, 3), (2, 3))), 2, 1, 2, ())
        with pytest.raises(BudgetExceededError, match="coloring enumeration"):
            solve_urfc(inst, budget=2**3 - 1)
        assert not solve_urfc(inst, budget=2**3).is_yes


class TestSearchAccounting:
    def test_full_enumeration_charges_colorings_only(self):
        # 8 colorings fit a budget of 8, although the search visits 14 nodes
        assert len(solve_hypergraph_qcol(Hypergraph(3, ()), 2, budget=8)) == 8
        with pytest.raises(BudgetExceededError, match="coloring enumeration"):
            solve_hypergraph_qcol(Hypergraph(3, ()), 2, budget=7)

    def test_decision_mode_charges_nodes(self):
        assert solve_hypergraph_qcol(Hypergraph(3, ()), 2, limit=1, budget=3).is_yes
        with pytest.raises(BudgetExceededError, match="search nodes"):
            solve_hypergraph_qcol(Hypergraph(3, ()), 2, limit=1, budget=2)

    def test_search_leaves_no_cyclic_garbage(self):
        inst = RccInstance(Graph(4, ((1, 2),)), make_nur(1, 2, 3), ((1, 3), (2, 4)))
        gc.collect()
        gc.disable()
        try:
            assert solve_rcc(inst).is_yes
            assert gc.collect() == 0
        finally:
            gc.enable()


def hypergraph_reference(h, q):
    """Every q-coloring in lex order that shows two colors on each edge."""
    every = itertools.product(range(1, q + 1), repeat=h.n)
    return tuple(
        c for c in every if all(len({c[v - 1] for v in e}) > 1 for e in h.edges)
    )


@st.composite
def hypergraphs(draw):
    """Hypergraphs on n=0..7 vertices with edges of sizes 1..4."""
    n = draw(st.integers(0, 7))
    sizes = st.sampled_from([k for k in (1, 2, 2, 3, 3, 3, 4, 4) if k <= n])
    edges = set()
    for _ in range(draw(st.integers(0, 10)) if n else 0):
        k = draw(sizes)
        edges.add(tuple(sorted(draw(st.sets(st.integers(1, n), min_size=k, max_size=k)))))
    return Hypergraph(n, tuple(edges))


class TestSolveHypergraph:
    def test_single_triple_two_colors(self):
        assert len(solve_hypergraph_qcol(Hypergraph(3, ((1, 2, 3),)), 2)) == 6

    def test_complete_uniform_on_pad_size_is_colorable(self):
        # complete l-uniform hypergraph on (l-1)*q vertices, each color used
        # on l-1 vertices
        l, q = 3, 2
        n = (l - 1) * q
        h = Hypergraph(n, tuple(itertools.combinations(range(1, n + 1), l)))
        assert solve_hypergraph_qcol(h, q, limit=1).is_yes

    def test_edgeless(self):
        assert len(solve_hypergraph_qcol(Hypergraph(2, ()), 3)) == 9

    def test_pair_edges_behave_like_graph(self):
        h = Hypergraph(3, ((1, 2), (2, 3), (1, 3)))
        assert len(solve_hypergraph_qcol(h, 3)) == 6

    @settings(max_examples=150, deadline=None)
    @given(hypergraphs(), st.integers(1, 3))
    def test_matches_product_reference(self, h, q):
        ref = hypergraph_reference(h, q)
        assert solve_hypergraph_qcol(h, q).colorings == ref
        first = solve_hypergraph_qcol(h, q, limit=1)
        assert first.is_yes == bool(ref) and set(first) <= set(ref)

    def test_complete_3_uniform_refuted_by_propagation(self):
        # propagation refutes this in 270 nodes; a search that tests each
        # hyperedge only once it is fully colored needs 813
        h = Hypergraph(7, tuple(itertools.combinations(range(1, 8), 3)))
        assert not solve_hypergraph_qcol(h, 3, limit=1, budget=300).is_yes

    def test_size_one_hyperedge_forces_no(self):
        # a single vertex is monochromatic under every coloring
        h = Hypergraph(3, ((2,), (1, 3)))
        assert not solve_hypergraph_qcol(h, 3).is_yes
        assert not solve_hypergraph_qcol(h, 3, limit=1).is_yes


def cnf_reference(formula, mode):
    """Every assignment in lex order, each clause evaluated directly."""
    out = []
    for assignment in itertools.product((False, True), repeat=formula.n):
        values = [
            [assignment[abs(lit) - 1] == (lit > 0) for lit in clause]
            for clause in formula.clauses
        ]
        if all(any(v) and (mode == "sat" or not all(v)) for v in values):
            out.append(assignment)
    return tuple(out)


@st.composite
def cnf_formulas(draw):
    """Formulas over n=0..8 variables with clause widths 1..3."""
    n = draw(st.integers(0, 8))
    if not n:
        return CnfFormula(0, ())
    literal = st.tuples(st.integers(1, n), st.booleans())
    clause = st.lists(literal, min_size=1, max_size=min(3, n), unique_by=lambda x: x[0])
    clauses = draw(st.lists(clause, max_size=12))
    return CnfFormula(
        n, tuple(tuple(v if pos else -v for v, pos in cl) for cl in clauses)
    )


class TestSolveCnf:
    @given(cnf_formulas(), st.sampled_from(("sat", "nae")))
    @settings(max_examples=200, deadline=None)
    def test_matches_product_reference(self, formula, mode):
        ref = cnf_reference(formula, mode)
        assert solve_cnf(formula, mode) == ref
        first = solve_cnf(formula, mode, limit=1)
        assert set(first) <= set(ref) and len(first) == min(1, len(ref))

    def test_examples(self):
        assert len(solve_cnf(CnfFormula(2, ((1, 2),)), "sat")) == 3
        assert len(solve_cnf(CnfFormula(3, ((1, 2, 3),)), "nae")) == 6
        assert len(solve_cnf(CnfFormula(2, ()), "sat")) == 4

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            solve_cnf(CnfFormula(1, ()), "xor")

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_nae_self_complementary(self, seed):
        f = generate.gen_cnf(5, 3, 4, seed)
        sols = set(solve_cnf(f, "nae"))
        assert all(tuple(not v for v in a) in sols for a in sols)

    def test_nae_subset_of_sat(self):
        f = generate.gen_cnf(5, 3, 6, 3)
        assert set(solve_cnf(f, "nae")) <= set(solve_cnf(f, "sat"))


def brute_force_extension(inst, q, coloring):
    """Try every coloring of the non-modulator vertices."""
    rest = [v for v in range(1, inst.graph.n + 1) if v not in set(inst.modulator)]
    for values in itertools.product(range(1, q + 1), repeat=len(rest)):
        full = dict(coloring)
        full.update(zip(rest, values))
        if all(full[u] != full[v] for u, v in inst.graph.edges):
            return full
    return None


def graph_colorable(graph, q):
    """Backtracking over vertices 1..n in order, whole graph at once."""
    colors = [0] * (graph.n + 1)

    def extend(v):
        if v > graph.n:
            return True
        for c in range(1, q + 1):
            if all(colors[u] != c for u in graph.neighbors(v) if u < v):
                colors[v] = c
                if extend(v + 1):
                    return True
        colors[v] = 0
        return False

    return extend(1)


class TestExtendToCliques:
    def test_free_clique_always_extends(self):
        g = Graph(4, ((2, 3), (2, 4), (3, 4)))
        inst = CliqueKvInstance(g, (1,))
        assert extend_to_cliques(inst, 3, {1: 1}) is not None

    def test_deficient_neighborhood(self):
        # both clique vertices see colors {1, 2}: one color for two vertices
        g = Graph(6, ((1, 2), (1, 3), (1, 4), (2, 5), (2, 6)))
        inst = CliqueKvInstance(g, (3, 4, 5, 6))
        assert extend_to_cliques(inst, 3, {3: 1, 4: 2, 5: 1, 6: 2}) is None
        assert extend_to_cliques(inst, 3, {3: 1, 4: 2, 5: 1, 6: 1}) is not None

    def test_improper_coloring_rejected(self):
        g = Graph(3, ((1, 2),))
        inst = CliqueKvInstance(g, (1, 2))
        with pytest.raises(ValueError):
            extend_to_cliques(inst, 2, {1: 1, 2: 1})

    def test_matches_brute_force(self):
        rng = random.Random(2)
        for _ in range(25):
            inst = generate.gen_cliquekv(
                rng.randint(1, 4), 3, rng.randint(1, 2), rng.randint(0, 10**6)
            )
            if inst.graph.n > 10:
                continue
            q = 3
            xs = inst.modulator
            for values in itertools.product(range(1, q + 1), repeat=len(xs)):
                coloring = dict(zip(xs, values))
                if any(
                    coloring[u] == coloring[v]
                    for u, v in inst.graph.edges
                    if u in coloring and v in coloring
                ):
                    continue
                fast = extend_to_cliques(inst, q, coloring)
                slow = brute_force_extension(inst, q, coloring)
                assert (fast is None) == (slow is None)
                if fast is not None:
                    assert all(fast[u] != fast[v] for u, v in inst.graph.edges)

    def test_colorable_decision(self):
        triangle_plus = CliqueKvInstance(
            Graph(4, ((1, 2), (1, 3), (2, 3), (3, 4))), (4,)
        )
        assert cliquekv_colorable(triangle_plus, 3)
        k4 = CliqueKvInstance(
            Graph(4, tuple(itertools.combinations(range(1, 5), 2))), ()
        )
        assert not cliquekv_colorable(k4, 3)

    @pytest.mark.parametrize("q", [3, 4])
    def test_colorable_matches_whole_graph_search(self, q):
        rng = random.Random(q)
        seen = set()
        for _ in range(40):
            inst = generate.gen_cliquekv(
                rng.randint(1, 4),
                rng.randint(1, q),
                rng.randint(1, 3),
                rng.randint(0, 10**6),
                rng.choice((0.4, 0.8, 1.0)),
                rng.choice((0.5, 0.9)),
            )
            if inst.graph.n > 9:
                continue
            expected = graph_colorable(inst.graph, q)
            assert cliquekv_colorable(inst, q) == expected
            seen.add(expected)
        assert seen == {False, True}
