"""Acceptance suite.

One test per acceptance criterion, each at its stated tolerance; the
conftest hook prints one PASS/FAIL line per criterion.  Expected values are
either fixed constants, independently recomputed reference formulas, or
exhaustive oracle runs.
"""

import hashlib
import itertools
import math
import time

import pytest

from ccker import generate
from ccker.instances import Graph, Hypergraph, ListAssignment, RccInstance, serialize
from ccker.oracles import (
    cliquekv_colorable,
    extend_to_cliques,
    solve_cnf,
    solve_hypergraph_qcol,
    solve_rcc,
    solve_rclc,
    solve_urfc,
)
from ccker.polykernel import build_capture, check_captures, kernelize_product_pruning, kernelize_urfc
from ccker.reductions import (
    extract_clique_constraints,
    forbid_pair_gadget,
    kernelize_cliquekv,
    nae_to_urfc,
    rclc_to_rcc,
    sat_to_rclc,
    urfc_to_hypergraph,
)
from ccker.relations import (
    eta,
    find_or_witness,
    make_nur,
    nur_membership,
    nur_or_witness,
    nur_witness_items,
    r_clique,
)

CAPTURE_SHAPES = [(2, 1, 3), (3, 1, 4), (2, 2, 2), (2, 2, 3), (3, 2, 3), (2, 3, 3), (3, 2, 4)]
KERNEL_SHAPES = [(2, 2, 3), (3, 2, 3), (2, 3, 3), (1, 2, 3)]
ITEM_DEGREE = {1: lambda d, l: d - 1, 2: lambda d, l: (d - 1) * l, 3: lambda d, l: d * l - 1}


@pytest.mark.acceptance("1 capture-property")
def test_capture_property():
    for d, l, q in CAPTURE_SHAPES:
        start = time.monotonic()
        cp = build_capture(d, l, q)
        assert (cp.d, cp.l, cp.q) == (d, l, q)
        assert check_captures(cp), f"capture fails on ({d},{l},{q})"
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"({d},{l},{q}) took {elapsed:.2f}s"
        assert cp.poly.degree <= ITEM_DEGREE[cp.item](d, l)


def eta_reference(d, l, q):
    """Independent transcription of the five-case exponent table; returns
    (value, number of cases that fired)."""
    hits = []
    if l >= 2 and q >= d + 2:
        hits.append(d * l)
    if l >= 2 and q == d + 1 and (d, l) != (1, 2):
        hits.append(d * l - 1)
    if (l >= 2 and q == d >= 2) or (l == 1 and d >= 3):
        hits.append((d - 1) * l)
    if l == 1 and d <= 2 and q >= 3:
        hits.append(2)
    if (q == 2 and d * l <= 2) or q == 1:
        hits.append(0)
    return hits


def r_clique_reference(q, t):
    if t == 1:
        return q - 1
    if t == 2 or (t == q == 3):
        return 2 * q - 3
    if 3 <= t and t < (q + 1) / 2:
        return (q - t + 1) * t
    return (q + 1) ** 2 // 4


@pytest.mark.acceptance("2 exponent-table")
def test_exponent_table():
    for d in range(1, 7):
        for l in range(1, 7):
            for q in range(d, 13):
                hits = eta_reference(d, l, q)
                assert len(hits) == 1, f"({d},{l},{q}) fired {len(hits)} cases"
                assert eta(d, l, q) == hits[0]
    for q in range(3, 13):
        for t in range(1, q + 1):
            by_max = max(eta(q - l + 1, l, q) for l in range(1, t + 1))
            assert by_max == r_clique_reference(q, t) == r_clique(q, t)
    assert eta(1, 2, 3) == 2
    assert eta(2, 2, 3) == 3
    assert r_clique(3, 3) == 3
    assert r_clique(5, 5) == 9


def _kernel_instances(shape_index, d, l, q):
    for i in range(100):
        n = max(d, 4 + i % 4)
        density = (i + 1) / 100
        yield generate.gen_urfc(n, d, l, q, density, 0.3, 10_000 * shape_index + i)


_KERNEL_RUNS: dict = {}


def _kernel_runs(idx, d, l, q):
    """Instance/kernel pairs for one shape, shared between criteria 3 and 4."""
    key = (idx, d, l, q)
    if key not in _KERNEL_RUNS:
        _KERNEL_RUNS[key] = [
            (inst, kernelize_urfc(inst)) for inst in _kernel_instances(idx, d, l, q)
        ]
    return _KERNEL_RUNS[key]


@pytest.mark.acceptance("3 kernel-soundness")
def test_kernel_soundness():
    start = time.monotonic()
    for idx, (d, l, q) in enumerate(KERNEL_SHAPES):
        for inst, result in _kernel_runs(idx, d, l, q):
            before = solve_urfc(inst)
            after = solve_urfc(result.instance)
            assert before.colorings == after.colorings, (d, l, q, inst)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"kernel soundness suite took {elapsed:.1f}s"


@pytest.mark.acceptance("4 kernel-size")
def test_kernel_size():
    for idx, (d, l, q) in enumerate(KERNEL_SHAPES):
        for inst, result in _kernel_runs(idx, d, l, q):
            n = inst.graph.n
            (report,) = result.reports
            if report.method == "poly":
                bound = report.binom_bound
            else:
                # deduplication shape: bounded by the canonical tuple space
                bound = math.comb(math.comb(n, d) + l - 1, l)
            assert len(result.instance.blocks[0].tuples) <= bound
    # fully dense (2, 2, 3): the basis must beat the trivial count whenever
    # the trivial count exceeds the dimension bound
    for n in (5, 6, 7):
        inst = generate.gen_urfc(n, 2, 2, 3, 1.0, 0.3, 777 + n)
        result = kernelize_urfc(inst)
        trivial = inst.constraint_count
        if trivial > result.reports[0].binom_bound:
            assert len(result.instance.blocks[0].tuples) < trivial


# sha256 over the serialized kernels of criteria 3 and 4, in order, as the
# sparse dict elimination engine produced them; any engine must reproduce it
KERNELS_SHA256 = "82bc675136e48791c6ecf5bcdc987c1a96d40e66f2121dedee51d5c4da9571bd"


def test_kernel_digest():
    digest = hashlib.sha256()
    for idx, (d, l, q) in enumerate(KERNEL_SHAPES):
        for _, result in _kernel_runs(idx, d, l, q):
            digest.update(serialize(result.instance).encode())
    assert digest.hexdigest() == KERNELS_SHA256


@pytest.mark.acceptance("5 reduction-soundness")
def test_reduction_soundness():
    start = time.monotonic()
    rel = make_nur(1, 3, 5)
    witness = nur_or_witness(1, 3, 5, 1)
    for i in range(100):
        n = 3 + i % 4
        m = 1 + (i * 7) % 12
        formula = generate.gen_cnf(n, 3, m, 20_000 + i)
        sat = bool(solve_cnf(formula, "sat", limit=1))
        rclc, _ = sat_to_rclc(formula, rel, witness)
        assert solve_rclc(rclc, limit=1).is_yes == sat
        rcc, _ = rclc_to_rcc(rclc)
        assert solve_rcc(rcc, limit=1).is_yes == sat

        nae = bool(solve_cnf(formula, "nae", limit=1))
        for variant in ("singletons", "pairs"):
            urfc, _ = nae_to_urfc(formula, variant)
            assert solve_urfc(urfc).is_yes == nae, (i, variant)
    for i in range(100):
        inst = generate.gen_urfc(2 + i % 4, 1, 3, 3, (i + 1) / 100, 0.3, 30_000 + i)
        hg, _ = urfc_to_hypergraph(inst)
        assert solve_urfc(inst).is_yes == solve_hypergraph_qcol(hg, 3, limit=1).is_yes
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"reduction soundness suite took {elapsed:.1f}s"


@pytest.mark.acceptance("6 clique-modulator-pipeline")
def test_clique_modulator_pipeline():
    q = 3
    for i in range(100):
        t = 1 + i % 3
        k = 3 + i % 4
        inst = generate.gen_cliquekv(k, t, 2 + i % 2, 40_000 + i)
        assert inst.max_clique_size <= min(t, 4)
        out, report = kernelize_cliquekv(inst, q, t)
        assert cliquekv_colorable(inst, q) == cliquekv_colorable(out, q), i
        r = r_clique(q, t)
        assert out.graph.n <= k + t * math.comb(3 * k + r, r)
        assert report.output_vertices == out.graph.n

        extracted, _ = extract_clique_constraints(inst, q, t)
        accepted = set(solve_urfc(extracted).colorings)
        graph, _ = inst.graph.induced(inst.modulator)
        for key in solve_hypergraph_qcol(Hypergraph(graph.n, graph.edges), q):
            extends = extend_to_cliques(inst, q, zip(inst.modulator, key)) is not None
            assert extends == (key in accepted), i


@pytest.mark.acceptance("7 product-pruning-kernel")
def test_product_pruning_kernel():
    rel = make_nur(1, 3, 2)
    # exhaustive search confirms no arity-3 OR is definable
    assert find_or_witness(rel, 3) is None

    def product_free(constraints):
        members = set(constraints)
        for x, y in itertools.combinations(sorted(members), 2):
            if all(x[j] != y[j] for j in range(3)):
                doms = [(min(x[j], y[j]), max(x[j], y[j])) for j in range(3)]
                if all(c in members for c in itertools.product(*doms)):
                    return False
        return True

    for i in range(40):
        inst = generate.gen_rcc(4 + i % 3, rel, (i + 1) / 40, 0.2, 50_000 + i)
        out = kernelize_product_pruning(inst)
        assert product_free(out.constraints), i
        assert solve_rcc(inst).colorings == solve_rcc(out).colorings, i


@pytest.mark.acceptance("8 gadget-exhaustiveness")
def test_gadget_exhaustiveness():
    for q in (3, 4):
        base = Graph(2, ())
        rel = make_nur(1, 2, q)
        free = (frozenset(range(1, q + 1)),) * 2
        for a1 in range(1, q + 1):
            for a2 in range(1, q + 1):
                g, lists = forbid_pair_gadget(
                    base, ListAssignment(q, free), 1, 2, a1, a2, q
                )
                for c1 in range(1, q + 1):
                    for c2 in range(1, q + 1):
                        pinned = ListAssignment(
                            q, (frozenset({c1}), frozenset({c2})) + lists.lists[2:]
                        )
                        inst = RccInstance(g, rel, (), lists=pinned)
                        extends = solve_rclc(inst, limit=1).is_yes
                        assert extends == ((c1, c2) != (a1, a2)), (q, a1, a2, c1, c2)


@pytest.mark.acceptance("9 witness-constructions")
def test_witness_constructions():
    cap = 10**6
    checked = 0
    for d in range(1, 5):
        for l in range(1, 5):
            for q in range(d, 9):
                if q ** (d * l) > cap:
                    continue
                rel = make_nur(d, l, q)
                for item in nur_witness_items(d, l, q):
                    assert nur_or_witness(d, l, q, item).check(rel), (d, l, q, item)
                    checked += 1
    assert checked > 50
    # figure shapes: (3,4,3) fits the enumeration cap and is covered above;
    # the q = 4 and q = 5 variants are validated against the membership
    # predicate, which defines the materialized relation
    for q in (4, 5):
        for item in nur_witness_items(3, 4, q):
            w = nur_or_witness(3, 4, q, item)
            assert w.check_membership(nur_membership(3, 4)), (q, item)
