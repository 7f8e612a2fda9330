import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccker.budget import BudgetExceededError
from ccker.instances import Graph, RccInstance, parse, serialize
from ccker.relations import (
    OrWitness,
    Relation,
    eta,
    find_or_witness,
    full_relation,
    is_permutation_invariant,
    is_uniformly_rainbow,
    make_nur,
    max_or_arity,
    nur_membership,
    nur_or_witness,
    nur_witness_items,
    r_clique,
)


def brute_force_invariant(rel):
    """Direct transcription of the definition: all q! permutations, both
    directions of membership."""
    for perm in itertools.permutations(range(1, rel.q + 1)):
        for t in itertools.product(range(1, rel.q + 1), repeat=rel.r):
            image = tuple(perm[x - 1] for x in t)
            if (t in rel) != (image in rel):
                return False
    return True


def reference_find_or_witness(rel, k):
    """The search find_or_witness ran over a frozenset of member tuples
    before relations became tables: candidates in the same order, each
    product enumerated tuple by tuple."""
    q, r = rel.q, rel.r
    members = frozenset(rel.tuples)
    pair_choices = list(itertools.combinations(range(1, q + 1), 2))
    single_choices = [(v,) for v in range(1, q + 1)]
    target = (1 << k) - 1
    for js in itertools.combinations(range(1, r + 1), k):
        jset = set(js)
        per_pos = [
            pair_choices if j in jset else single_choices for j in range(1, r + 1)
        ]
        for domains in itertools.product(*per_pos):
            hit = 0
            missing = None
            ok = True
            for t in itertools.product(*domains):
                if t in members:
                    hit += 1
                elif missing is None:
                    missing = t
                else:
                    ok = False
                    break
            if ok and hit == target and missing is not None:
                beta = tuple(
                    domains[j - 1][0]
                    if domains[j - 1][1] == missing[j - 1]
                    else domains[j - 1][1]
                    for j in js
                )
                return OrWitness(k, js, missing, beta)
    return None


@st.composite
def explicit_relations(draw):
    """(q, r, tuples) with q, r <= 4: a random subset of [q]^r at a drawn
    density, or a union of orbits under all color permutations, listed in
    random order with some tuples repeated."""
    q, r = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**16)))
    grid = list(itertools.product(range(1, q + 1), repeat=r))
    if draw(st.booleans()):
        density = draw(st.sampled_from((0.0, 0.1, 0.5, 0.9, 1.0)))
        tuples = [t for t in grid if rng.random() < density]
    else:
        reps = rng.sample(grid, rng.randint(0, min(3, len(grid))))
        perms = itertools.permutations(range(1, q + 1))
        tuples = [tuple(g[x - 1] for x in t) for g in perms for t in reps]
    tuples += rng.choices(tuples, k=len(tuples) // 2) if tuples else []
    rng.shuffle(tuples)
    return q, r, tuples


class TestRelation:
    @settings(max_examples=150, deadline=None)
    @given(explicit_relations())
    def test_table_matches_tuple_set(self, drawn):
        q, r, tuples = drawn
        rel = Relation(q, r, tuples)
        members = set(tuples)
        assert rel.tuples == tuple(sorted(members))
        assert len(rel) == len(members)
        grid = itertools.product(range(1, q + 1), repeat=r)
        assert all((t in rel) == (t in members) for t in grid)
        assert Relation.from_rows(q, r, np.array(tuples).reshape(-1, r)) == rel
        text = serialize(rel)
        assert parse("relation", text) == (rel, None) and serialize(rel) == text
        inst = RccInstance(Graph(r, ()), rel, ())
        again = parse("rcc", serialize(inst))
        assert again == inst and hash(again) == hash(inst)
        assert is_permutation_invariant(rel) == brute_force_invariant(rel)
        for k in range(1, r + 1):
            assert find_or_witness(rel, k) == reference_find_or_witness(rel, k)

    def test_membership_of_malformed_tuples_is_false(self):
        rel = full_relation(3, 2)
        for t in ((), (1,), (1, 2, 3), (0, 1), (1, 4), (-1, 2), (2, 2, 2)):
            assert t not in rel
        assert (3, 3) in rel and [1, 2] in rel and iter((2, 1)) in rel

    def test_equality_and_hash_follow_the_table(self):
        a = Relation(3, 2, ((1, 2), (2, 1)))
        b = Relation(3, 2, ((2, 1), (1, 2), (1, 2)))
        assert a == b and hash(a) == hash(b)
        assert a != Relation(3, 2, ((1, 2),))
        assert a != Relation(2, 2, ((1, 2), (2, 1)))
        assert len({a, b}) == 1

    def test_table_is_read_only(self):
        rel = make_nur(1, 2, 3)
        with pytest.raises(ValueError):
            rel.table[0] = True

    def test_from_table_checks_its_shape(self):
        with pytest.raises(ValueError, match="table needs shape"):
            Relation.from_table(3, 2, np.ones(8, dtype=bool))

    def test_from_rows_checks_every_row(self):
        with pytest.raises(ValueError, match="out of range 1..3"):
            Relation.from_rows(3, 2, np.array([[1, 2], [3, 4]]))
        with pytest.raises(ValueError, match="2 entries"):
            Relation.from_rows(3, 2, np.array([[1, 2, 3]]))

    def test_canonical_storage(self):
        rel = Relation(3, 2, ((2, 1), (1, 2), (2, 1)))
        assert rel.tuples == ((1, 2), (2, 1))
        assert (2, 1) in rel and (1, 1) not in rel

    def test_rejects_bad_tuples(self):
        with pytest.raises(ValueError):
            Relation(2, 2, ((1, 3),))
        with pytest.raises(ValueError):
            Relation(2, 2, ((1,),))


class TestMakeNur:
    def test_2_1_3_excludes_distinct_pairs(self):
        rel = make_nur(2, 1, 3)
        assert len(rel) == 9 - 6
        assert rel.tuples == ((1, 1), (2, 2), (3, 3))

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_1_2_q_is_distinct_pairs(self, q):
        rel = make_nur(1, 2, q)
        assert len(rel) == q * q - q
        assert all(a != b for a, b in rel.tuples)

    @pytest.mark.parametrize(
        "d,l,q", [(1, 2, 3), (2, 1, 3), (2, 2, 2), (2, 2, 3), (1, 3, 2), (3, 1, 4)]
    )
    def test_always_permutation_invariant(self, d, l, q):
        assert is_permutation_invariant(make_nur(d, l, q))

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            make_nur(3, 4, 5, budget=1000)

    def test_matches_scalar_predicate_on_every_small_shape(self):
        # every shape with q <= 6 (and l <= 16 at q = 1) whose grid has at
        # most 10^5 points; the scalar predicate shares no code with the
        # mask that builds the table
        shapes = [(1, l, 1) for l in range(1, 17)] + [
            (d, l, q)
            for q in range(2, 7)
            for d in range(1, q + 1)
            for l in range(1, 17)
            if q ** (d * l) <= 10**5
        ]
        assert len(shapes) == 16 + 86
        for d, l, q in shapes:
            grid = itertools.product(range(1, q + 1), repeat=d * l)
            expected = [not is_uniformly_rainbow(t, d, l) for t in grid]
            assert make_nur(d, l, q).table.tolist() == expected, (d, l, q)

    def test_membership_predicate_matches(self):
        rel = make_nur(2, 2, 3)
        contains = nur_membership(2, 2)
        for t in itertools.product(range(1, 4), repeat=4):
            assert contains(t) == (t in rel)


class TestPermutationInvariance:
    def test_full_relation(self):
        assert is_permutation_invariant(full_relation(3, 2))

    def test_single_tuple_not_invariant(self):
        assert not is_permutation_invariant(Relation(2, 2, ((1, 2),)))

    def test_generator_path_agrees_with_factorial_path(self):
        rng = random.Random(11)
        for _ in range(200):
            q = rng.randint(1, 5)
            r = rng.randint(1, 3)
            pool = list(itertools.product(range(1, q + 1), repeat=r))
            # unions of orbits under all of S_q, under the rotations only and
            # under one swap only, besides plain random sets
            colors = list(range(1, q + 1))
            groups = (
                list(itertools.permutations(colors)),
                [colors[i:] + colors[:i] for i in range(q)],
                [colors, colors[1::-1] + colors[2:]],
            )
            reps = rng.sample(pool, rng.randint(0, min(3, len(pool))))
            group = rng.choice(groups)
            if rng.random() < 0.25:
                tuples = rng.sample(pool, rng.randint(0, len(pool)))
            else:
                tuples = [tuple(g[x - 1] for x in t) for g in group for t in reps]
            rel = Relation(q, r, tuple(tuples))
            assert is_permutation_invariant(rel) == brute_force_invariant(rel)


class TestOrWitness:
    def test_find_for_nur_1_2_3(self):
        w = find_or_witness(make_nur(1, 2, 3), 2)
        assert w is not None and w.check(make_nur(1, 2, 3))

    def test_nur_2_1_2(self):
        rel = make_nur(2, 1, 2)
        assert rel.tuples == ((1, 1), (2, 2))
        assert find_or_witness(rel, 2) is None
        w = find_or_witness(rel, 1)
        assert w is not None and w.check(rel)

    def test_full_relation_has_none(self):
        rel = full_relation(3, 2)
        for k in (1, 2):
            assert find_or_witness(rel, k) is None

    def test_deterministic(self):
        rel = make_nur(2, 2, 3)
        assert find_or_witness(rel, 3) == find_or_witness(rel, 3)

    def test_rejects_bad_k(self):
        rel = make_nur(1, 2, 3)
        with pytest.raises(ValueError):
            find_or_witness(rel, 0)
        with pytest.raises(ValueError):
            find_or_witness(rel, 3)

    def test_budget(self, monkeypatch):
        # the worst case, 120 * 3^3 * 3^7 * 2^3, is charged only to a budget
        # given explicitly or by the environment
        rel = make_nur(2, 5, 3)
        monkeypatch.delenv("CCKER_BUDGET", raising=False)
        assert find_or_witness(rel, 3).check(rel)
        with pytest.raises(BudgetExceededError, match="56687040 steps exceed"):
            find_or_witness(rel, 3, budget=10**7)
        monkeypatch.setenv("CCKER_BUDGET", str(10**7))
        with pytest.raises(BudgetExceededError, match="56687040 steps exceed"):
            find_or_witness(rel, 3)

    def test_witness_validation_catches_corruption(self):
        rel = make_nur(1, 2, 3)
        bad = OrWitness(2, (1, 2), (2, 2), (3, 3))
        assert not bad.check(rel)

    def test_beta_must_differ_from_alpha(self):
        with pytest.raises(ValueError):
            OrWitness(1, (1,), (1, 2), (1,))


class TestMaxOrArity:
    def test_values(self):
        assert max_or_arity(make_nur(1, 2, 3)) == 2
        assert max_or_arity(make_nur(2, 1, 2)) == 1
        assert max_or_arity(Relation(2, 2, ())) == 0
        assert max_or_arity(full_relation(2, 2)) == 0

    def test_nur_2_2_3(self):
        # q = d + 1 shape: the arity-(d*l - 1) construction is optimal
        assert max_or_arity(make_nur(2, 2, 3)) == 3

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            max_or_arity(full_relation(12, 4), budget=10**6)


class TestNurWitnessConstructions:
    @pytest.mark.parametrize("q,item,k", [(5, 1, 12), (4, 2, 11), (3, 3, 8)])
    def test_figure_shapes(self, q, item, k):
        w = nur_or_witness(3, 4, q, item)
        assert w.k == k
        assert w.alpha == (1, 2, 3) * 4
        assert w.check_membership(nur_membership(3, 4))

    def test_item1_beta_values(self):
        w = nur_or_witness(3, 4, 5, 1)
        beta_at = dict(zip(w.positions, w.beta))
        for p in range(1, 13):
            col = (p - 1) // 3 + 1
            assert beta_at[p] == (4 if col == 1 else 5)

    def test_item2_skips_first_entry(self):
        w = nur_or_witness(3, 4, 4, 2)
        assert 1 not in w.positions
        beta_at = dict(zip(w.positions, w.beta))
        for p in w.positions:
            row = (p - 1) % 3 + 1
            assert beta_at[p] == (4 if row == 1 else 1)

    def test_item3_rows_below_first(self):
        w = nur_or_witness(3, 4, 3, 3)
        assert all((p - 1) % 3 + 1 >= 2 for p in w.positions)
        assert set(w.beta) == {1}

    def test_preconditions(self):
        with pytest.raises(ValueError):
            nur_or_witness(2, 1, 4, 1)  # item 1 needs l >= 2
        with pytest.raises(ValueError):
            nur_or_witness(2, 2, 2, 2)  # item 2 needs q >= d + 1
        with pytest.raises(ValueError):
            nur_or_witness(2, 2, 3, 4)

    def test_validates_against_materialized_relation(self):
        for d, l, q in [(1, 2, 3), (2, 2, 3), (2, 2, 4), (3, 1, 3), (2, 3, 2)]:
            rel = make_nur(d, l, q)
            for item in nur_witness_items(d, l, q):
                assert nur_or_witness(d, l, q, item).check(rel)

    def test_max_arity_reaches_construction(self):
        for d, l, q in [(1, 2, 3), (2, 1, 3), (1, 3, 2), (2, 2, 2)]:
            rel = make_nur(d, l, q)
            best = max(
                nur_or_witness(d, l, q, item).k
                for item in nur_witness_items(d, l, q)
            )
            assert max_or_arity(rel) >= best

    def test_applicable_items(self):
        assert nur_witness_items(1, 2, 3) == (1, 2, 3)
        assert nur_witness_items(2, 2, 3) == (2, 3)
        assert nur_witness_items(3, 2, 3) == (3,)


class TestEta:
    @pytest.mark.parametrize(
        "d,l,q,value",
        [
            (1, 2, 3, 2),
            (2, 2, 3, 3),
            (1, 2, 2, 0),
            (3, 1, 3, 2),
            (2, 2, 2, 2),
            (1, 3, 2, 2),
            (2, 1, 2, 0),
            (1, 1, 1, 0),
            (1, 1, 3, 2),
            (2, 3, 5, 6),
        ],
    )
    def test_values(self, d, l, q, value):
        assert eta(d, l, q) == value

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            eta(3, 1, 2)
        with pytest.raises(ValueError):
            eta(0, 1, 1)


class TestRClique:
    @pytest.mark.parametrize(
        "q,t,value", [(3, 1, 2), (3, 3, 3), (5, 5, 9), (7, 3, 15), (3, 2, 3), (4, 4, 6)]
    )
    def test_values(self, q, t, value):
        assert r_clique(q, t) == value

    def test_preconditions(self):
        with pytest.raises(ValueError):
            r_clique(2, 1)
        with pytest.raises(ValueError):
            r_clique(3, 4)


class TestUniformlyRainbow:
    def test_basic(self):
        assert is_uniformly_rainbow((1, 2, 2, 1), 2, 2)
        assert not is_uniformly_rainbow((1, 2, 1, 3), 2, 2)
        assert not is_uniformly_rainbow((1, 1, 1, 1), 2, 2)
        assert is_uniformly_rainbow((3, 3, 3), 1, 3)
        assert not is_uniformly_rainbow((3, 3, 1), 1, 3)
