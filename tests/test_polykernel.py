import functools
import hashlib
import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ccker import generate
from ccker.budget import BudgetExceededError
from ccker.instances import (
    Graph,
    GurfcBlock,
    GurfcInstance,
    RccInstance,
    canonical_subset,
)
from ccker.oracles import solve_urfc
from ccker.polykernel import (
    CapturePair,
    CaptureUnavailableError,
    SparsePoly,
    build_capture,
    check_captures,
    kernelize_product_pruning,
    kernelize_gurfc,
    kernelize_poly,
    kernelize_urfc,
    smallest_prime_geq,
    vandermonde_set,
)
from ccker.polykernel import _check_exact, _ones_det
from ccker.relations import _radix_weights, make_nur


def urfc(graph, q, d, l, tuples):
    """The instance of one (d, l) block."""
    return GurfcInstance(graph, q, (GurfcBlock(d, l, tuples),))


def reference_kernel_tuples(block, cp):
    """The sparse dict engine that kernelize_poly used before the dense one:
    instantiate each tuple's capture polynomial term by term, then keep the
    row basis in reduced row-echelon form.  Returns the kept tuples."""
    p, m = cp.p, cp.m
    terms = [
        (coeff, tuple((var // m, var % m) for var in mono))
        for mono, coeff in cp.poly.terms.items()
    ]
    ids: dict = {}
    keys: list = []
    pivot_rows: dict = {}
    kept = []
    for tp in block.tuples:
        base = [(v - 1) * m for v in (v for s in tp for v in s)]
        poly: dict = {}
        for coeff, tvars in terms:
            exps: dict = {}
            for col, row in tvars:
                g = base[col] + row
                exps[g] = exps.get(g, 0) + 1
            mono = tuple(sorted(exps.items()))
            if mono not in ids:
                ids[mono] = len(keys)
                keys.append((-sum(e for _, e in mono), tuple((v, -e) for v, e in mono)))
            key = ids[mono]
            c = (poly.get(key, 0) + coeff) % p
            if c:
                poly[key] = c
            else:
                poly.pop(key, None)
        for mid in [mid for mid in poly if mid in pivot_rows]:
            c = poly.get(mid, 0)
            for m2, c2 in pivot_rows[mid].items():
                nc = (poly.get(m2, 0) - c * c2) % p
                if nc:
                    poly[m2] = nc
                else:
                    poly.pop(m2, None)
        if not poly:
            continue
        lead = min(poly, key=lambda mid: keys[mid])
        inv = pow(poly[lead], -1, p)
        row = {mid: c * inv % p for mid, c in poly.items()}
        for other in pivot_rows.values():
            c = other.get(lead, 0)
            if c:
                for m2, c2 in row.items():
                    nc = (other.get(m2, 0) - c * c2) % p
                    if nc:
                        other[m2] = nc
                    else:
                        other.pop(m2, None)
        pivot_rows[lead] = row
        kept.append(tp)
    return tuple(kept)


def evaluate(poly, point):
    """The value of ``poly`` at ``point``, indexable by variable, term by term."""
    total = 0
    for mono, coeff in poly.terms.items():
        for v in mono:
            coeff *= point[v]
        total += coeff
    return total % poly.p


def modular_rank(rows, p):
    """Plain Gaussian elimination rank over GF(p) on dense rows."""
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class TestPrimeField:
    """The prime p of a capture's field GF(p)."""

    def test_smallest_prime(self):
        assert smallest_prime_geq(1) == 2
        assert smallest_prime_geq(4) == 5
        assert smallest_prime_geq(7) == 7

    def test_rejects_composite(self):
        with pytest.raises(ValueError, match="6 is not prime"):
            build_capture(2, 2, 3, 6)


poly_coeffs = st.lists(
    st.tuples(st.lists(st.integers(0, 3), max_size=4), st.integers(-6, 6)),
    max_size=5,
)


def build_poly(p, raw):
    out = SparsePoly(p, {})
    for variables, coeff in raw:
        out = out + SparsePoly(p, {tuple(sorted(variables)): coeff})
    return out


class TestSparsePoly:
    @given(poly_coeffs, poly_coeffs, st.lists(st.integers(0, 6), min_size=4, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_evaluation_is_ring_homomorphism(self, raw1, raw2, point):
        p = 7
        a, b = build_poly(p, raw1), build_poly(p, raw2)
        assert evaluate(a + b, point) == (evaluate(a, point) + evaluate(b, point)) % p
        assert evaluate(a * b, point) == evaluate(a, point) * evaluate(b, point) % p

    def test_no_zero_coefficients_stored(self):
        p = 5
        a = SparsePoly(p, {(0,): 3})
        b = SparsePoly(p, {(0,): 2})
        assert (a + b).terms == {}

    def test_product_merges_exponents(self):
        p = 5
        a = SparsePoly(p, {(0, 1): 2, (): 1})
        assert (a * a).terms == {(0, 0, 1, 1): 4, (0, 1): 4, (): 1}
        assert (a * a).degree == 4


class TestVandermonde:
    def test_fixed_points(self):
        assert vandermonde_set(2, 3, 3) == ((1, 0), (1, 1), (1, 2))

    def test_first_entries_are_ones(self):
        assert all(v[0] == 1 for v in vandermonde_set(4, 6, 7))

    def test_field_too_small(self):
        with pytest.raises(ValueError, match="too small"):
            vandermonde_set(2, 4, 3)

    @pytest.mark.parametrize("m,q,p", [(2, 3, 3), (3, 4, 5), (4, 4, 5)])
    def test_prefix_independence(self, m, q, p):
        vectors = vandermonde_set(m, q, p)
        for t in range(1, m + 1):
            for subset in itertools.combinations(vectors, t):
                rows = [[v[a] for v in subset] for a in range(t)]
                assert modular_rank(rows, p) == t


def variable_det(m, t, p):
    """The ones-row determinant on the first t columns of an m x t matrix of
    variables, flattened column-major."""
    columns = [
        [SparsePoly(p, {(b * m + a,): 1}) for a in range(1, t)] for b in range(t)
    ]
    return _ones_det(columns, p)


class TestDetPoly:
    def test_2_2_is_difference(self):
        poly = variable_det(2, 2, 3)
        for a in range(3):
            for b in range(3):
                assert evaluate(poly, [1, a, 1, b]) == (b - a) % 3

    def test_degree(self):
        assert variable_det(3, 3, 5).degree == 2
        assert variable_det(4, 2, 5).degree == 1
        assert variable_det(2, 1, 5).degree == 0

    def test_zero_on_equal_columns(self):
        poly = variable_det(3, 3, 5)
        vecs = vandermonde_set(3, 5, 5)
        for i, j in itertools.combinations(range(5), 2):
            # column-major flattening: columns are vecs[i], vecs[i], vecs[j]
            flat = list(vecs[i]) + list(vecs[i]) + list(vecs[j])
            assert evaluate(poly, flat) == 0
        for i, j, h in itertools.combinations(range(5), 3):
            distinct = list(vecs[i]) + list(vecs[j]) + list(vecs[h])
            assert evaluate(poly, distinct) != 0


# (d, l, q, largest n) for the reference-engine comparison: p = 2, 3 and 5,
# small enough that the dict engine stays fast
REFERENCE_SHAPES = [
    (2, 2, 2, 7),
    (1, 3, 2, 7),
    (2, 3, 2, 6),
    (2, 2, 3, 6),
    (3, 2, 3, 5),
    (2, 3, 3, 5),
    (3, 1, 4, 7),
    (4, 1, 5, 7),
]

CAPTURE_SHAPES = [(2, 1, 3), (3, 1, 4), (2, 2, 2), (2, 2, 3), (3, 2, 3), (2, 3, 3), (3, 2, 4)]

# (d, l, q) -> (term count, sha256 prefix of the sorted (variables repeated
# by exponent, coefficient) pairs), recorded before the capture polynomial's
# monomial encoding changed; they pin every capture term for term.
CAPTURE_DIGESTS = {
    (2, 1, 3): (2, "5684d1e1d1c4d9c3"),
    (3, 1, 4): (6, "00b40e4bac607112"),
    (2, 2, 2): (4, "f26356e2e55d6b77"),
    (2, 2, 3): (20, "849be80c8b0fba6e"),
    (3, 2, 3): (36, "dea0ef9001c1286a"),
    (2, 3, 3): (184, "9ffe33ae170c4c6b"),
    (3, 2, 4): (396, "d8e0e40c7d41adbd"),
    (1, 3, 2): (7, "94636f9d6a86c2d8"),
    (4, 1, 5): (24, "e944c4fb7878fbde"),
    (2, 3, 2): (8, "5459ee36733fdd05"),
}


@pytest.mark.parametrize("shape", sorted(CAPTURE_DIGESTS))
def test_capture_terms_pinned(shape):
    assert set(CAPTURE_SHAPES) <= set(CAPTURE_DIGESTS)
    terms = build_capture(*shape).poly.terms
    pairs = sorted(terms.items())
    digest = hashlib.sha256(repr(pairs).encode()).hexdigest()[:16]
    assert (len(pairs), digest) == CAPTURE_DIGESTS[shape]


class TestCapture:
    @pytest.mark.parametrize("d,l,q", CAPTURE_SHAPES)
    def test_items_and_degrees(self, d, l, q):
        cp = build_capture(d, l, q)
        bounds = {1: d - 1, 2: (d - 1) * l, 3: d * l - 1}
        assert cp.degree_bound == bounds[cp.item]
        assert cp.poly.degree <= cp.degree_bound

    def test_dispatch(self):
        assert build_capture(2, 2, 3).item == 3
        assert build_capture(3, 1, 5).item == 1
        assert build_capture(2, 3, 2).item == 2

    def test_unavailable_shape(self):
        with pytest.raises(CaptureUnavailableError):
            build_capture(1, 2, 4)  # q >= d + 2: trivial kernel territory

    def test_memoized(self):
        assert build_capture(2, 2, 3) is build_capture(2, 2, 3)

    @pytest.mark.parametrize("d,l,q", [(2, 1, 3), (3, 1, 4), (2, 2, 3), (2, 2, 2)])
    def test_check_captures_passes(self, d, l, q):
        assert check_captures(build_capture(d, l, q))

    def test_corrupted_pair_fails(self):
        cp = build_capture(2, 2, 3)
        mono = next(iter(cp.poly.terms))
        broken = SparsePoly(cp.p, {m: c for m, c in cp.poly.terms.items() if m != mono})
        bad = CapturePair(
            cp.p, cp.m, cp.d, cp.l, cp.q, cp.colors, broken, cp.item, cp.degree_bound
        )
        assert not check_captures(bad)

    def test_budget(self):
        cp = build_capture(2, 3, 3)
        with pytest.raises(BudgetExceededError):
            check_captures(cp, budget=10)

    def test_vectorized_matches_scalar_evaluation(self):
        cp = build_capture(2, 2, 3)
        p = cp.p
        for assign in itertools.product(range(3), repeat=4):
            point = [0] * (cp.m * 4)
            for col, color in enumerate(assign):
                for row in range(cp.m):
                    point[col * cp.m + row] = cp.colors[color][row]
            value = evaluate(cp.poly, point)
            flat = [c + 1 for c in assign]
            from ccker.relations import is_uniformly_rainbow

            assert (value != 0) == is_uniformly_rainbow(flat, 2, 2)


class TestKernelizePoly:
    def test_empty_collection(self):
        out = kernelize_poly(GurfcBlock(2, 2, ()), build_capture(2, 2, 3))
        assert out == GurfcBlock(2, 2, ())

    def test_zero_capture_keeps_nothing(self):
        cp = build_capture(2, 2, 3)
        zero = CapturePair(
            cp.p, cp.m, cp.d, cp.l, cp.q, cp.colors, SparsePoly(cp.p),
            cp.item, cp.degree_bound,
        )
        (block,) = generate.gen_urfc(5, 2, 2, 3, 0.5, 0.3, 1).blocks
        assert kernelize_poly(block, zero).tuples == ()

    def test_shape_mismatch(self):
        # a block has no q, so only a capture of another (d, l) is refused
        (block,) = generate.gen_urfc(5, 2, 2, 3, 0.5, 0.3, 1).blocks
        for d, l, q in [(2, 3, 3), (3, 2, 3), (3, 1, 4)]:
            with pytest.raises(ValueError, match="does not match block"):
                kernelize_poly(block, build_capture(d, l, q))

    def test_solution_preservation_random(self):
        rng = random.Random(17)
        for d, l, q in [(2, 2, 3), (3, 2, 3), (2, 3, 3)]:
            cp = build_capture(d, l, q)
            for _ in range(8):
                inst = generate.gen_urfc(
                    6, d, l, q, rng.random(), 0.3, rng.randint(0, 10**6)
                )
                (block,) = inst.blocks
                out = kernelize_poly(block, cp)
                assert set(out.tuples) <= set(block.tuples)
                kernel = canonical_subset(inst, blocks=(out,))
                assert solve_urfc(inst).colorings == solve_urfc(kernel).colorings

    def test_basis_bound(self):
        cp = build_capture(2, 2, 3)
        inst = generate.gen_urfc(6, 2, 2, 3, 1.0, 0.2, 3)
        out = kernelize_poly(inst.blocks[0], cp)
        n = inst.graph.n
        assert len(out.tuples) <= math.comb(cp.m * n + cp.degree_bound, cp.degree_bound)

    def test_deterministic(self):
        cp = build_capture(2, 2, 3)
        (block,) = generate.gen_urfc(6, 2, 2, 3, 0.8, 0.2, 9).blocks
        assert kernelize_poly(block, cp) == kernelize_poly(block, cp)

    def test_exactness_guards(self):
        # 8191 is the largest prime whose batch updates fit int32
        with pytest.raises(ValueError, match="float64"):
            _check_exact(2**28, 184, 8191)
        with pytest.raises(ValueError, match="float64"):
            _check_exact(1, 2**53, 3)
        with pytest.raises(ValueError, match="int32"):
            _check_exact(10, 184, 8209)
        _check_exact(10**6, 10**6, 8191)

    def test_large_field_refused(self):
        cp = build_capture(2, 2, 3, 8209)
        (block,) = generate.gen_urfc(5, 2, 2, 3, 0.5, 0.3, 1).blocks
        with pytest.raises(ValueError, match="int32"):
            kernelize_poly(block, cp)

    def test_matrix_charged_against_budget(self):
        cp = build_capture(2, 2, 3)
        (block,) = generate.gen_urfc(6, 2, 2, 3, 0.5, 0.3, 1).blocks
        full = kernelize_poly(block, cp)
        with pytest.raises(BudgetExceededError, match="polynomial kernel matrix"):
            kernelize_poly(block, cp, budget=len(block.tuples))
        assert kernelize_poly(block, cp, budget=10**6) == full

    @given(st.data())
    @settings(
        max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_matches_reference_engine(self, data):
        d, l, q, n_max = data.draw(st.sampled_from(REFERENCE_SHAPES), label="shape")
        n = data.draw(st.integers(d, n_max), label="n")
        vertex_set = st.lists(
            st.integers(1, n), min_size=d, max_size=d, unique=True
        )
        tuples = data.draw(
            st.lists(st.lists(vertex_set, min_size=l, max_size=l), max_size=80),
            label="tuples",
        )
        (block,) = urfc(Graph(n, ()), q, d, l, tuples).blocks
        cp = build_capture(d, l, q)
        assert kernelize_poly(block, cp).tuples == reference_kernel_tuples(block, cp)

    @pytest.mark.parametrize(
        "d,l,q,n", [(2, 2, 2, 8), (2, 3, 2, 6), (2, 2, 3, 7), (3, 1, 4, 11), (4, 1, 5, 10)]
    )
    def test_dependent_runs_match_reference(self, d, l, q, n):
        # every tuple of a small space: the rank saturates early, so long runs
        # of consecutive tuples (whole elimination batches) are dependent
        (block,) = generate.gen_urfc(n, d, l, q, 1.0, 0.0, 0).blocks
        cp = build_capture(d, l, q)
        kept = kernelize_poly(block, cp).tuples
        assert kept == reference_kernel_tuples(block, cp)
        index = {tp: i for i, tp in enumerate(block.tuples)}
        marks = [-1] + [index[tp] for tp in kept] + [len(block.tuples)]
        assert max(b - a for a, b in zip(marks, marks[1:])) > 64


ETA0_SHAPES = [(1, 1, 1), (1, 2, 1), (1, 3, 1), (1, 1, 2), (1, 2, 2), (2, 1, 2)]


class TestKernelizeUrfc:
    def test_dedup_shape_returns_input(self):
        inst = generate.gen_urfc(6, 1, 2, 3, 0.6, 0.3, 1)
        result = kernelize_urfc(inst)
        assert [r.method for r in result.reports] == ["dedup"]
        assert result.instance == inst

    def test_poly_shape(self):
        inst = generate.gen_urfc(6, 2, 2, 3, 0.9, 0.3, 2)
        result = kernelize_urfc(inst)
        (report,) = result.reports
        assert report.method == "poly"
        assert report.capture_item == 3
        assert report.basis_size == len(result.instance.blocks[0].tuples)
        n = inst.graph.n
        assert report.binom_bound == math.comb(3 * n + 3, 3)
        assert solve_urfc(inst).colorings == solve_urfc(result.instance).colorings

    def test_idempotent(self):
        inst = generate.gen_urfc(6, 2, 2, 3, 0.9, 0.3, 8)
        once = kernelize_urfc(inst)
        twice = kernelize_urfc(once.instance)
        assert twice.instance == once.instance

    @staticmethod
    def check_eta0(inst):
        result = kernelize_urfc(inst)
        (report,) = result.reports
        assert report.method == "solved"
        assert report.answer == solve_urfc(inst).is_yes
        assert solve_urfc(result.instance).is_yes == report.answer
        assert result.instance.graph.n <= 3
        assert [b.tuples for b in result.instance.blocks] == [()]

    @pytest.mark.parametrize("seed", range(6))
    def test_eta0_merge_shape(self, seed):
        # (2, 1, 2): forbidden rainbow pairs force vertex merges
        self.check_eta0(generate.gen_urfc(5, 2, 1, 2, 0.5, 0.3, seed))

    @pytest.mark.parametrize("seed", range(6))
    def test_eta0_edge_shape(self, seed):
        # (1, 2, 2): each tuple {x}, {y} forces x and y apart, like an edge
        self.check_eta0(generate.gen_urfc(5, 1, 2, 2, 0.5, 0.3, seed))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_eta0_every_shape(self, data):
        # every shape decided outright, with tuples that repeat a set
        d, l, q = data.draw(st.sampled_from(ETA0_SHAPES), label="shape")
        n = data.draw(st.integers(0, 7), label="n")
        density = data.draw(st.sampled_from((0.0, 0.2, 0.6)), label="edges")
        graph = generate.gen_graph(n, density, data.draw(st.integers(0, 2**16)))
        tuples = []
        if n >= d:
            vertex_set = st.lists(
                st.integers(1, n), min_size=d, max_size=d, unique=True
            )
            tuples = data.draw(
                st.lists(
                    st.one_of(
                        st.lists(vertex_set, min_size=l, max_size=l),
                        vertex_set.map(lambda s: [s] * l),
                    ),
                    max_size=8,
                ),
                label="tuples",
            )
        self.check_eta0(urfc(graph, q, d, l, tuples))

    def test_eta0_single_set_shape(self):
        yes = urfc(Graph(2, ((1, 2),)), 2, 1, 1, ())
        assert kernelize_urfc(yes).reports[0].answer is True
        no = urfc(Graph(2, ()), 2, 1, 1, (((1,),),))
        assert kernelize_urfc(no).reports[0].answer is False

    def test_eta0_one_color(self):
        yes = urfc(Graph(3, ()), 1, 1, 2, ())
        assert kernelize_urfc(yes).reports[0].answer is True
        no_edge = urfc(Graph(3, ((1, 2),)), 1, 1, 2, ())
        assert kernelize_urfc(no_edge).reports[0].answer is False
        no_tuple = urfc(Graph(3, ()), 1, 1, 2, (((1,), (2,)),))
        assert kernelize_urfc(no_tuple).reports[0].answer is False

    def test_trivial_small_arity_shape(self):
        inst = generate.gen_urfc(6, 2, 1, 4, 0.5, 0.3, 3)
        result = kernelize_urfc(inst)
        assert [r.method for r in result.reports] == ["dedup"]

    @pytest.mark.parametrize("shapes", [[], [(2, 2), (1, 2)]])
    def test_refuses_other_block_counts(self, shapes):
        inst = generate.gen_gurfc(5, 3, shapes, 0.5, 0.3, 1)
        with pytest.raises(ValueError, match="exactly one block"):
            kernelize_urfc(inst)


class TestKernelizeGurfc:
    def test_budget_reaches_kernel_matrix(self):
        inst = generate.gen_urfc(6, 2, 2, 3, 0.5, 0.3, 1)
        with pytest.raises(BudgetExceededError, match="polynomial kernel matrix"):
            kernelize_gurfc(inst, budget=10)
        with pytest.raises(BudgetExceededError, match="polynomial kernel matrix"):
            kernelize_urfc(inst, budget=10)
        assert kernelize_gurfc(inst, budget=10**6) == kernelize_gurfc(inst)

    def test_single_block_matches_urfc(self):
        inst = generate.gen_urfc(6, 2, 2, 3, 0.8, 0.3, 5)
        assert kernelize_gurfc(inst) == kernelize_urfc(inst)

    def test_blocks_are_not_canonicalized_again(self):
        inst = generate.gen_gurfc(6, 3, [(2, 2), (1, 2)], 0.6, 0.3, 7)
        with mock.patch("ccker.instances._canonical_urfc_tuples") as canon:
            result = kernelize_gurfc(inst)
        canon.assert_not_called()
        assert [r.method for r in result.reports] == ["poly", "dedup"]

    def test_mixed_blocks_preserve_solutions(self):
        rng = random.Random(23)
        for _ in range(8):
            inst = generate.gen_gurfc(
                6, 3, [(2, 2), (1, 2)], rng.random(), 0.3, rng.randint(0, 10**6)
            )
            result = kernelize_gurfc(inst)
            assert solve_urfc(inst).colorings == solve_urfc(result.instance).colorings
            assert result.instance.constraint_count <= inst.constraint_count

    def test_low_eta_block_rejected(self):
        inst = GurfcInstance(
            Graph(3, ()), 2, (GurfcBlock(1, 1, (((1,),),)),)
        )
        with pytest.raises(ValueError, match="exponent"):
            kernelize_gurfc(inst)


def reference_product_pruning(inst):
    """The restart loop that kernelize_product_pruning used before the single
    pass: scan the pairs of the sorted collection from the first pair, drop
    the all-max corner of the first full product, and start again.  Returns
    the kept constraints."""
    r = inst.relation.r
    members = set(inst.constraints)
    while True:
        ordered = sorted(members)
        found = None
        for i, s in enumerate(ordered):
            for t in ordered[i + 1 :]:
                if any(s[j] == t[j] for j in range(r)):
                    continue
                domains = [(min(s[j], t[j]), max(s[j], t[j])) for j in range(r)]
                if all(c in members for c in itertools.product(*domains)):
                    found = domains
                    break
            if found is not None:
                break
        if found is None:
            return tuple(sorted(members))
        members.remove(tuple(hi for _, hi in found))


# (arity r, vertices n): n = 0..8 at r=3, fewer vertices at larger arity.
PRUNING_SHAPES = [(3, n) for n in range(9)] + [(4, n) for n in range(5)] + [
    (5, n) for n in range(4)
]


@functools.cache
def _nur_of_arity(r):
    return make_nur(1, r, 2)


class TestKernelizeProductPruning:
    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from(PRUNING_SHAPES),
        density=st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.8, 0.95, 1.0]),
        duplicates=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_restart_loop(self, shape, density, duplicates, seed):
        r, n = shape
        rng = random.Random(seed)
        pool = list(itertools.product(range(1, n + 1), repeat=r))
        chosen = [t for t in pool if rng.random() < density]
        chosen += rng.choices(chosen, k=duplicates) if chosen else []
        rng.shuffle(chosen)
        inst = RccInstance(Graph(n, ()), _nur_of_arity(r), tuple(chosen))
        out = kernelize_product_pruning(inst)
        assert out.constraints == reference_product_pruning(inst)
        assert (out.graph, out.relation, out.nur_shape) == (
            inst.graph,
            inst.relation,
            inst.nur_shape,
        )

    def test_large_ids_match_restart_loop(self):
        # (n + 1) ** r overflows int64 here, so ids must be rank-compressed.
        n, r = 50_000, 5
        assert (n + 1) ** r >= 2**63
        rng = random.Random(5)
        pairs = [sorted(rng.sample(range(1, n + 1), 2)) for _ in range(r)]
        chosen = list(itertools.product(*pairs))
        chosen += [tuple(rng.randint(1, n) for _ in range(r)) for _ in range(8)]
        inst = RccInstance(Graph(n, ()), _nur_of_arity(r), tuple(chosen))
        out = kernelize_product_pruning(inst)
        assert out.constraints == reference_product_pruning(inst)
        assert len(out.constraints) < len(inst.constraints)

    def test_radix_guard(self):
        # Radices are column value counts, so r=3 needs 2^21 constraints here.
        assert _radix_weights([2**21 - 1] * 3).tolist() == [
            (2**21 - 1) ** 2,
            2**21 - 1,
            1,
        ]
        with pytest.raises(ValueError, match="overflow int64"):
            _radix_weights([2**21] * 3)
        with pytest.raises(ValueError, match="overflow int64"):
            _radix_weights([2, 2**62])
        assert _radix_weights([2, 2**62 - 1]).tolist() == [2**62 - 1, 1]
        assert _radix_weights([0, 7, 3]).tolist() == [21, 3, 1]

    def full_product_free(self, constraints, r):
        members = set(constraints)
        for x, y in itertools.combinations(sorted(members), 2):
            if all(x[j] != y[j] for j in range(r)):
                doms = [(min(x[j], y[j]), max(x[j], y[j])) for j in range(r)]
                if all(c in members for c in itertools.product(*doms)):
                    return False
        return True

    def test_full_product_collapses(self):
        rel = make_nur(1, 3, 2)
        F = tuple(itertools.product((1, 2), (3, 4), (5, 6)))
        inst = RccInstance(Graph(6, ()), rel, F)
        out = kernelize_product_pruning(inst)
        assert len(out.constraints) == 7
        assert (2, 4, 6) not in out.constraints
        assert self.full_product_free(out.constraints, 3)

    def test_no_product_unchanged(self):
        rel = make_nur(1, 3, 2)
        F = ((1, 3, 5), (2, 4, 5), (1, 4, 6))
        inst = RccInstance(Graph(6, ()), rel, F)
        assert kernelize_product_pruning(inst).constraints == inst.constraints

    def test_requires_arity_three(self):
        inst = RccInstance(Graph(3, ()), make_nur(1, 2, 2), ())
        with pytest.raises(ValueError):
            kernelize_product_pruning(inst)

    def test_refuses_color_lists(self):
        # no soundness argument covers list instances
        inst = generate.gen_rclc(4, make_nur(1, 3, 2), 0.5, 0.2, 1)
        with pytest.raises(ValueError, match="no color lists"):
            kernelize_product_pruning(inst)

    def test_output_product_free_random(self):
        rng = random.Random(31)
        rel = make_nur(1, 3, 2)
        for _ in range(15):
            inst = generate.gen_rcc(5, rel, rng.random(), 0.2, rng.randint(0, 10**6))
            out = kernelize_product_pruning(inst)
            assert self.full_product_free(out.constraints, 3)
            assert set(out.constraints) <= set(inst.constraints)
