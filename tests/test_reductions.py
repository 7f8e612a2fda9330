import itertools
import random

import pytest

from ccker import generate
from ccker.budget import BudgetExceededError
from ccker.instances import (
    CliqueKvInstance,
    CnfFormula,
    Graph,
    GurfcBlock,
    GurfcInstance,
    Hypergraph,
    ListAssignment,
    RccInstance,
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
from ccker.reductions import (
    decode_sat_coloring,
    extract_clique_constraints,
    forbid_pair_gadget,
    gurfc_to_cliquekv,
    kernelize_cliquekv,
    nae_to_urfc,
    rclc_to_rcc,
    sat_to_rclc,
    urfc_to_hypergraph,
)
from ccker.relations import make_nur, nur_or_witness


def urfc(graph, q, d, l, tuples):
    """The instance of one (d, l) block."""
    return GurfcInstance(graph, q, (GurfcBlock(d, l, tuples),))


def full_lists(q, n):
    return ListAssignment(q, (frozenset(range(1, q + 1)),) * n)


class TestForbidPairGadget:
    def test_distinct_colors_sizes(self):
        g, lists = forbid_pair_gadget(Graph(2, ()), full_lists(3, 2), 1, 2, 1, 2, 3)
        assert g.n == 4 and g.m == 3
        assert lists.get(3) == frozenset({1, 3}) and lists.get(4) == frozenset({2, 3})

    def test_equal_colors_sizes(self):
        g, lists = forbid_pair_gadget(Graph(2, ()), full_lists(3, 2), 1, 2, 2, 2, 3)
        assert g.n == 5 and g.m == 4
        assert lists.get(3) == frozenset({1, 2})
        assert lists.get(4) == frozenset({1, 3})
        assert lists.get(5) == frozenset({2, 3})

    def test_requires_three_colors(self):
        with pytest.raises(ValueError):
            forbid_pair_gadget(Graph(2, ()), full_lists(2, 2), 1, 2, 1, 2, 2)

    @pytest.mark.parametrize("q", [3, 4])
    def test_extension_predicate_exhaustive(self, q):
        base = Graph(2, ())
        rel = make_nur(1, 2, q)
        for a1 in range(1, q + 1):
            for a2 in range(1, q + 1):
                g, lists = forbid_pair_gadget(base, full_lists(q, 2), 1, 2, a1, a2, q)
                for c1 in range(1, q + 1):
                    for c2 in range(1, q + 1):
                        pinned = ListAssignment(
                            q, (frozenset({c1}), frozenset({c2})) + lists.lists[2:]
                        )
                        inst = RccInstance(g, rel, (), lists=pinned)
                        extends = solve_rclc(inst, limit=1).is_yes
                        assert extends == ((c1, c2) != (a1, a2))


class TestSatToRclc:
    rel = make_nur(1, 3, 5)
    witness = nur_or_witness(1, 3, 5, 1)

    def test_empty_formula_yes(self):
        inst, report = sat_to_rclc(CnfFormula(0, ()), self.rel, self.witness)
        assert not inst.constraints
        assert solve_rclc(inst, limit=1).is_yes
        assert report.output_vertices == inst.graph.n

    def test_single_clause_yes(self):
        inst, report = sat_to_rclc(
            CnfFormula(3, ((1, 2, 3),)), self.rel, self.witness
        )
        assert solve_rclc(inst, limit=1).is_yes
        assert report.output_vertices == report.multiplicative * 3 + report.additive
        assert report.multiplicative <= 2 * 3 + 6 * 2

    def test_all_sign_patterns_no(self):
        clauses = tuple(
            tuple(v * s for v, s in zip((1, 2, 3), signs))
            for signs in itertools.product((1, -1), repeat=3)
        )
        formula = CnfFormula(3, clauses)
        assert not solve_cnf(formula, "sat", limit=1)
        inst, _ = sat_to_rclc(formula, self.rel, self.witness)
        assert not solve_rclc(inst, limit=1).is_yes

    def test_decoded_assignment_satisfies(self):
        rng = random.Random(13)
        for _ in range(10):
            formula = generate.gen_cnf(4, 3, rng.randint(1, 6), rng.randint(0, 10**6))
            inst, _ = sat_to_rclc(formula, self.rel, self.witness)
            sols = solve_rclc(inst, limit=1)
            expected = bool(solve_cnf(formula, "sat", limit=1))
            assert sols.is_yes == expected
            if sols.is_yes:
                assignment = decode_sat_coloring(formula, self.witness, sols.colorings[0])
                for clause in formula.clauses:
                    assert any(
                        assignment[abs(lit) - 1] == (lit > 0) for lit in clause
                    )

    def test_off_witness_positions_get_isolated_vertices(self):
        rel = make_nur(2, 2, 4)
        witness = nur_or_witness(2, 2, 4, 2)  # arity 3 on a 4-position relation
        formula = CnfFormula(3, ((1, -2, 3),))
        inst, report = sat_to_rclc(formula, rel, witness)
        assert report.additive == 1
        assert solve_rclc(inst, limit=1).is_yes == bool(
            solve_cnf(formula, "sat", limit=1)
        )

    def test_rejects_mismatched_width(self):
        with pytest.raises(ValueError):
            sat_to_rclc(CnfFormula(2, ((1, 2),)), self.rel, self.witness)

    def test_rejects_invalid_witness(self):
        from ccker.relations import OrWitness

        # alpha is non-constant, so it lies inside the relation: not a witness
        bad = OrWitness(3, (1, 2, 3), (1, 2, 3), (2, 3, 1))
        with pytest.raises(ValueError, match="witness"):
            sat_to_rclc(CnfFormula(3, ((1, 2, 3),)), self.rel, bad)


class TestRclcToRcc:
    def test_requires_lists(self):
        inst = RccInstance(Graph(2, ()), make_nur(1, 2, 3), ())
        with pytest.raises(ValueError, match="no color lists"):
            rclc_to_rcc(inst)

    def test_full_lists_isolated_palette(self):
        rel = make_nur(1, 2, 3)
        inst = RccInstance(Graph(2, ()), rel, (), lists=full_lists(3, 2))
        out, report = rclc_to_rcc(inst)
        assert out.graph.n == 5
        assert report.additive == 3
        palette = {3, 4, 5}
        for u, v in out.graph.edges:
            assert u in palette and v in palette

    def test_requires_permutation_invariance(self):
        from ccker.relations import Relation

        rel = Relation(3, 2, ((1, 2),))
        inst = RccInstance(Graph(2, ()), rel, (), lists=full_lists(3, 2))
        with pytest.raises(ValueError, match="invariant"):
            rclc_to_rcc(inst)

    def test_random_equisatisfiability(self):
        rng = random.Random(19)
        rel = make_nur(1, 2, 3)
        for _ in range(20):
            inst = generate.gen_rclc(
                rng.randint(1, 5), rel, rng.random() * 0.5, 0.3, rng.randint(0, 10**6)
            )
            out, report = rclc_to_rcc(inst)
            assert out.graph.n == inst.graph.n + 3
            assert solve_rclc(inst, limit=1).is_yes == solve_rcc(out, limit=1).is_yes


class TestNaeToUrfc:
    def test_matching_shape(self):
        formula = generate.gen_cnf(4, 3, 3, 0)
        inst, report = nae_to_urfc(formula, "singletons")
        assert inst.graph.n == 8 and inst.graph.m == 4
        assert inst.graph.edges == tuple((i, 4 + i) for i in range(1, 5))
        (block,) = inst.blocks
        assert (block.d, block.l) == (1, 3)
        assert report.multiplicative == 2

    def test_pairs_shape(self):
        formula = generate.gen_cnf(4, 3, 3, 0)
        inst, _ = nae_to_urfc(formula, "pairs")
        (block,) = inst.blocks
        assert (block.d, block.l) == (2, 2)

    def test_width_two_pairs_variant(self):
        formula = CnfFormula(2, ((1, 2),))
        inst, _ = nae_to_urfc(formula, "pairs")
        (block,) = inst.blocks
        assert (block.d, block.l) == (2, 1)
        assert len(solve_urfc(inst)) == len(solve_cnf(formula, "nae"))

    def test_counts_match_both_variants(self):
        rng = random.Random(29)
        for _ in range(15):
            n = rng.randint(2, 5)
            k = rng.randint(2, min(3, n))
            formula = generate.gen_cnf(n, k, rng.randint(0, 5), rng.randint(0, 10**6))
            nae = solve_cnf(formula, "nae")
            for variant in ("singletons", "pairs"):
                inst, _ = nae_to_urfc(formula, variant, width=k)
                assert len(solve_urfc(inst)) == len(nae)

    def test_rejects_width_one(self):
        with pytest.raises(ValueError):
            nae_to_urfc(CnfFormula(2, ((1,), (2,))), "singletons")

    def test_empty_formula_needs_width(self):
        with pytest.raises(ValueError):
            nae_to_urfc(CnfFormula(2, ()), "singletons")
        inst, _ = nae_to_urfc(CnfFormula(2, ()), "singletons", width=3)
        assert [b.l for b in inst.blocks] == [3]


class TestUrfcToHypergraph:
    def test_pad_size(self):
        inst = urfc(Graph(4, ()), 3, 1, 3, (((1,), (2,), (3,)),))
        h, report = urfc_to_hypergraph(inst)
        assert h.n == 4 + 6
        assert report.additive == 6
        assert h.is_uniform(3)

    def test_plain_tuples_stay_as_edges(self):
        inst = urfc(Graph(4, ()), 3, 1, 3, (((1,), (2,), (3,)),))
        h, _ = urfc_to_hypergraph(inst)
        assert (1, 2, 3) in h.edges

    def test_degenerate_tuple_padded(self):
        # both singletons name the same vertex: the union has size 1
        inst = urfc(Graph(2, ()), 2, 1, 2, (((1,), (1,)),))
        h, _ = urfc_to_hypergraph(inst)
        assert h.is_uniform(2)
        assert not solve_urfc(inst).is_yes
        assert not solve_hypergraph_qcol(h, 2, limit=1).is_yes

    def test_graph_edges_padded(self):
        inst = urfc(Graph(3, ((1, 2),)), 3, 1, 3, ())
        h, _ = urfc_to_hypergraph(inst)
        assert all(len(e) == 3 for e in h.edges)
        assert any(set(e) >= {1, 2} for e in h.edges)

    @pytest.mark.parametrize("shapes", [[], [(1, 3), (1, 2)]])
    def test_requires_one_block(self, shapes):
        inst = generate.gen_gurfc(4, 3, shapes, 0.5, 0.3, 1)
        with pytest.raises(ValueError, match="exactly one block"):
            urfc_to_hypergraph(inst)

    def test_requires_singleton_shape(self):
        with pytest.raises(ValueError):
            urfc_to_hypergraph(urfc(Graph(4, ()), 3, 2, 2, ()))
        with pytest.raises(ValueError):
            urfc_to_hypergraph(urfc(Graph(4, ()), 3, 1, 1, ()))

    def test_random_oracle_pairs(self):
        rng = random.Random(37)
        for _ in range(15):
            inst = generate.gen_urfc(
                rng.randint(2, 5), 1, 3, 3, rng.random(), 0.3, rng.randint(0, 10**6)
            )
            h, _ = urfc_to_hypergraph(inst)
            assert (
                solve_urfc(inst).is_yes
                == solve_hypergraph_qcol(h, 3, limit=1).is_yes
            )


class TestExtractCliqueConstraints:
    def test_small_neighborhood_contributes_nothing(self):
        g = Graph(4, ((1, 4), (2, 4)))  # clique {4} sees only 2 of X = {1,2,3}
        inst = CliqueKvInstance(g, (1, 2, 3))
        out, _ = extract_clique_constraints(inst, 3, 1)
        assert all(not b.tuples for b in out.blocks)

    def test_single_vertex_full_neighborhood(self):
        g = Graph(4, ((1, 4), (2, 4), (3, 4)))
        inst = CliqueKvInstance(g, (1, 2, 3))
        out, _ = extract_clique_constraints(inst, 3, 1)
        assert out.blocks[0].d == 3 and out.blocks[0].l == 1
        assert out.blocks[0].tuples == (((1, 2, 3),),)

    def test_clique_too_large(self):
        g = Graph(3, ((1, 2), (1, 3), (2, 3)))
        inst = CliqueKvInstance(g, ())
        with pytest.raises(ValueError, match="exceeds"):
            extract_clique_constraints(inst, 3, 2)

    def test_extension_equivalence_exhaustive(self):
        rng = random.Random(41)
        for _ in range(12):
            inst = generate.gen_cliquekv(
                rng.randint(2, 5), 2, rng.randint(1, 3), rng.randint(0, 10**6)
            )
            out, _ = extract_clique_constraints(inst, 3, 2)
            accepted = set(solve_urfc(out).colorings)
            graph, _ = inst.graph.induced(inst.modulator)
            for key in solve_hypergraph_qcol(Hypergraph(graph.n, graph.edges), 3):
                extended = extend_to_cliques(inst, 3, zip(inst.modulator, key))
                assert (extended is not None) == (key in accepted)


class TestGurfcToCliquekv:
    def test_empty_collection(self):
        inst = GurfcInstance(Graph(3, ((1, 2),)), 3, (GurfcBlock(3, 1, ()),))
        out, report = gurfc_to_cliquekv(inst)
        assert out.graph.n == 3 and not out.cliques
        assert report.input_parameter == report.output_vertices == 3

    def test_parameter_equals_vertex_count(self):
        inst = generate.gen_gurfc(4, 3, [(3, 1), (2, 2)], 0.3, 0.3, 2)
        out, report = gurfc_to_cliquekv(inst)
        assert out.k == inst.graph.n
        assert report.multiplicative == 1

    def test_rejects_non_modulator_shape(self):
        inst = GurfcInstance(Graph(3, ()), 3, (GurfcBlock(1, 2, ()),))
        with pytest.raises(ValueError, match="modulator shape"):
            gurfc_to_cliquekv(inst)

    def test_round_trip_solution_set(self):
        rng = random.Random(43)
        for _ in range(10):
            inst = generate.gen_gurfc(
                rng.randint(2, 5), 3, [(3, 1), (2, 2)], 0.4, 0.3, rng.randint(0, 10**6)
            )
            ck, _ = gurfc_to_cliquekv(inst)
            back, _ = extract_clique_constraints(ck, 3, 2)
            assert solve_urfc(inst).colorings == solve_urfc(back).colorings


class TestKernelizeCliquekv:
    def test_no_cliques_roundtrips(self):
        g = Graph(3, ((1, 2),))
        inst = CliqueKvInstance(g, (1, 2, 3))
        out, _ = kernelize_cliquekv(inst, 3, 3)
        assert out.graph.n == 3
        assert cliquekv_colorable(out, 3) == cliquekv_colorable(inst, 3)

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_colorability_preserved(self, t):
        rng = random.Random(47 + t)
        for _ in range(8):
            inst = generate.gen_cliquekv(
                rng.randint(2, 5), t, rng.randint(1, 3), rng.randint(0, 10**6)
            )
            out, report = kernelize_cliquekv(inst, 3, t)
            assert cliquekv_colorable(inst, 3) == cliquekv_colorable(out, 3)
            assert report.output_vertices == out.graph.n

    def test_unbounded_rejects_oversized_clique(self):
        g = Graph(5, tuple(itertools.combinations(range(1, 6), 2)))
        inst = CliqueKvInstance(g, (5,))
        out, report = kernelize_cliquekv(inst, 3, None)
        assert dict(report.gadget_counts).get("oversized_clique_rejected") == 1
        assert not cliquekv_colorable(out, 3)
        assert not cliquekv_colorable(inst, 3)

    def test_unbounded_falls_back_to_t_equals_q(self):
        inst = generate.gen_cliquekv(4, 3, 2, 11)
        a, _ = kernelize_cliquekv(inst, 3, None)
        b, _ = kernelize_cliquekv(inst, 3, 3)
        assert a == b

    def test_requires_q_at_least_three(self):
        inst = generate.gen_cliquekv(3, 2, 1, 0)
        with pytest.raises(ValueError):
            kernelize_cliquekv(inst, 2, 2)

    def test_budget_reaches_kernel_matrix(self):
        inst = generate.gen_cliquekv(4, 2, 2, 1)
        with pytest.raises(BudgetExceededError, match="polynomial kernel matrix"):
            kernelize_cliquekv(inst, 3, 2, budget=1)
        full = kernelize_cliquekv(inst, 3, 2)
        assert kernelize_cliquekv(inst, 3, 2, budget=10**6) == full
