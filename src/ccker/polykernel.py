"""Kernelization engines.

Capture pairs for the uniformly rainbow property (Vandermonde color vectors
and a capture polynomial over GF(p), held as an array of variable slots per
term and an array of coefficients), the polynomial-basis kernel, the
rainbow-free dispatchers, and the product-pruning kernel for constrained
coloring.

Variable layout for capture polynomials: the m x (d*l) matrix of variables is
flattened column-major, variable (row a, column b) (0-based) has index
b*m + a.  When a polynomial is instantiated on a constraint tuple, column b
carries the variable vector of the b-th vertex of the tuple (sets in
canonical order, vertices ascending within each set), and vertex v owns the
global variables (v-1)*m .. (v-1)*m + m - 1.

The polynomial-basis kernel runs on a dense numpy engine.  The capture is
instantiated on all tuples at once into a tuples x monomials coefficient
matrix over GF(p), and the kept tuples are the row rank profile of that
matrix: the rows independent of all rows before them.  Blocked elimination
finds it, with float64 GEMMs against the basis and int32 pivoting inside
each block of rows; ``kernelize_poly`` states when both are exact.  The
profile is a property of the row space, so neither the column order nor the
numbering of the monomials changes which tuples are kept.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .budget import DEFAULT_TUPLE_BUDGET, BudgetExceededError, charge, resolve_budget
from .instances import (
    Graph,
    GurfcBlock,
    GurfcInstance,
    RccInstance,
    canonical_subset,
)
from .relations import (
    UrfcShape,
    _grid_chunks,
    _radix_weights,
    _uniformly_rainbow_mask,
    eta,
)

__all__ = [
    "CapturePoly",
    "CapturePair",
    "CaptureUnavailableError",
    "smallest_prime_geq",
    "vandermonde_set",
    "build_capture",
    "check_captures",
    "kernelize_poly",
    "KernelReport",
    "KernelResult",
    "kernelize_urfc",
    "kernelize_gurfc",
    "kernelize_product_pruning",
]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


def smallest_prime_geq(q: int) -> int:
    p = max(2, q)
    while not _is_prime(p):
        p += 1
    return p


class CapturePoly(NamedTuple):
    """Polynomial over GF(p), one row per term: ``terms[t]`` holds the
    variable slots of term t in ascending order, each repeated by its
    exponent and padded with -1, and ``coeffs[t]`` its nonzero residue."""

    terms: np.ndarray
    coeffs: np.ndarray

    @property
    def degree(self) -> int:
        return int((self.terms >= 0).sum(axis=1).max(initial=0))


def vandermonde_set(m: int, q: int, p: int) -> tuple[tuple[int, ...], ...]:
    """q column vectors (1, a_i, a_i^2, ..., a_i^(m-1)) over GF(p), prime p,
    with a_i = i - 1.

    Any t <= m of them, restricted to their first t rows, are linearly
    independent.  Requires p >= q so the points are distinct.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if p < q:
        raise ValueError(f"field GF({p}) too small for {q} distinct points")
    return tuple(tuple(pow(i, a, p) for a in range(m)) for i in range(q))


def _det_terms(columns: list[list[list[tuple]]]) -> list[tuple]:
    """Leibniz expansion, a term per permutation and choice of entry terms, of
    the t x t determinant with a first row of ones and the affine entry
    columns[b][a - 1] in row a >= 1 of column b; entries and result are lists
    of (slots, coefficient) terms.  With variable entries, on t columns of a
    Vandermonde set, it is nonzero iff they are pairwise distinct, and its
    degree is t - 1."""
    t = len(columns)
    out = []
    for perm in itertools.permutations(range(t)):
        inversions = sum(i > j for i, j in itertools.combinations(perm, 2))
        entries = [columns[perm[a]][a - 1] for a in range(1, t)]
        for choice in itertools.product(*entries):
            slots = tuple(s for term, _ in choice for s in term)
            out.append((slots, (-1) ** inversions * math.prod(c for _, c in choice)))
    return out


def _expand(factors: list[list[tuple]], p: int) -> CapturePoly:
    """The product over GF(p) of factors given as lists of (slots,
    coefficient) terms, with like terms merged and zero ones dropped after
    each factor.  A product of degree 0 gets one column, all padding."""
    poly = {(): 1}
    for factor in factors:
        out: dict[tuple, int] = {}
        for m1, c1 in poly.items():
            for m2, c2 in factor:
                mono = tuple(sorted(m1 + m2))
                out[mono] = out.get(mono, 0) + c1 * c2
        poly = {mono: c % p for mono, c in out.items() if c % p}
    terms = np.full((len(poly), max([1, *map(len, poly)])), -1, dtype=np.int64)
    for t, mono in enumerate(poly):
        terms[t, : len(mono)] = mono
    return CapturePoly(terms, np.array(list(poly.values()), dtype=np.int64))


def _charge_expansion(item: int, d: int, l: int, budget: int) -> None:
    """Charge the product of the capture's determinants' Leibniz term counts:
    d! for a d x d one, and d! (1 + d(d+1)) for one extended by the column
    a - y (q = d + 1 columns; d * d! of its terms take one of that column's
    (d + 1)-term entries).  Each count is a product of factors >= 2, so, as
    in charge_grid, a product of more than 4096 factors that must exceed the
    budget is reported as its formula rather than computed."""
    dets, extended = (1 if item == 1 else l), (l - 1 if item == 3 else 0)
    if dets * (d - 1) + extended > max(4096, budget.bit_length()):
        size = f"{d}!^{dets}*{1 + d * (d + 1)}^{extended}"
        raise BudgetExceededError("capture expansion", size, budget)
    size = math.factorial(d) ** dets * (1 + d * (d + 1)) ** extended
    charge("capture expansion", size, budget)


class CaptureUnavailableError(ValueError):
    """No capture construction applies to this (d, l, q) shape."""


@dataclass(frozen=True)
class CapturePair:
    """Color vectors C in GF(p)^m, p prime, and a polynomial on an m x (d*l)
    variable matrix that is nonzero exactly on the uniformly rainbow
    C-colored matrices."""

    p: int
    m: int
    d: int
    l: int
    q: int
    colors: tuple[tuple[int, ...], ...]
    poly: CapturePoly
    item: int
    degree_bound: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if len(self.colors) != self.q:
            raise ValueError("need exactly q color vectors")
        if len(set(self.colors)) != self.q:
            raise ValueError("color vectors must be pairwise distinct")
        if any(len(v) != self.m for v in self.colors):
            raise ValueError("color vectors must have length m")
        if self.poly.degree > self.degree_bound:
            raise ValueError(
                f"polynomial degree {self.poly.degree} exceeds bound "
                f"{self.degree_bound}"
            )


def build_capture(
    d: int, l: int, q: int, p: int | None = None, budget: int | None = None
) -> CapturePair:
    """Construct a capture pair for the (d, l, q) uniformly rainbow property.

    Three constructions, dispatched in order: for single-set tuples
    (l = 1, q >= d) a d x d ones-row determinant of degree d - 1; for q = d a
    product of one such determinant per set, degree (d-1)*l; for q = d + 1 a
    first-block determinant times, per further block, a determinant extended
    by the column a - y, where a is the sum of all color vectors and y the
    sum of the first block's columns, degree d*l - 1.  Any other shape raises
    CaptureUnavailableError (the trivial kernel applies there).

    The field is GF(p), by default for the smallest prime p >= q.  The
    product of the determinants' term counts is charged against the tuple
    budget (explicit, else ``CCKER_BUDGET``, else DEFAULT_TUPLE_BUDGET) on
    every call, before anything is built.  Memoized per (d, l, q, p): equal
    arguments return the same pair, so no caller may mutate it.
    """
    UrfcShape(d, l, q)
    if l == 1 and q >= d:
        item, m, bound = 1, d, d - 1
    elif q == d:
        item, m, bound = 2, d, (d - 1) * l
    elif q == d + 1:
        item, m, bound = 3, q, d * l - 1
    else:
        raise CaptureUnavailableError(
            f"no capture construction for d={d}, l={l}, q={q}"
        )
    _charge_expansion(item, d, l, resolve_budget(budget, DEFAULT_TUPLE_BUDGET))
    p = smallest_prime_geq(q) if p is None else p
    return _build_capture(d, l, q, p, item, m, bound)


@functools.cache
def _build_capture(d, l, q, p, item, m, bound) -> CapturePair:
    def column(col: int, t: int) -> list[list[tuple]]:
        # rows 1..t-1 of variable column ``col``; t = m past block 1, where
        # item 3 appends the column a - y, and m = d otherwise
        return [[((col * m + a,), 1)] for a in range(1, t)]

    colors = vandermonde_set(m, q, p)
    blocks = [[column(i * d + b, m if i else d) for b in range(d)] for i in range(l)]
    if item == 3:
        last_col = [  # rows 1..m-1 of a - y; y sums block 1's columns
            [((), sum(v[a] for v in colors))] + [((b * m + a,), -1) for b in range(d)]
            for a in range(1, m)
        ]
        for columns in blocks[1:]:
            columns.append(last_col)
    poly = _expand([_det_terms(columns) for columns in blocks], p)
    return CapturePair(p, m, d, l, q, colors, poly, item, bound)


def check_captures(cp: CapturePair, budget: int | None = None) -> bool:
    """Exhaustively verify the capture property over all q^(d*l) C-colored
    matrices of the pair's shape: the polynomial is nonzero exactly on the
    uniformly rainbow ones."""
    d, l, q = cp.d, cp.l, cp.q
    b = resolve_budget(budget, DEFAULT_TUPLE_BUDGET)
    charge("capture check", q ** (d * l), b)

    p = cp.p
    colors = np.array(cp.colors, dtype=np.int64) % p
    for _, assign in _grid_chunks(q, d * l):
        rows = assign.shape[0]
        acc = np.zeros(rows, dtype=np.int64)
        for slots, coeff in zip(cp.poly.terms, cp.poly.coeffs.tolist()):
            term = np.full(rows, coeff, dtype=np.int64)
            for slot in slots[slots >= 0].tolist():
                col, row = divmod(slot, cp.m)
                term = term * colors[assign[:, col], row] % p
            acc += term
        nonzero = (acc % p) != 0
        expected = _uniformly_rainbow_mask(assign.reshape(rows, 1, l, d))[:, 0]
        if not np.array_equal(nonzero, expected):
            return False
    return True


# ---------------------------------------------------------------------------
# Polynomial-basis kernel
# ---------------------------------------------------------------------------


# Rows per elimination batch, and the id-array build's memory target.
_BATCH_ROWS = 32
_CHUNK_IDS = 1 << 18


def _monomial_ids(block: GurfcBlock, m: int, slots: np.ndarray):
    """Intern the monomials of every tuple's instantiated capture.

    Column ``col`` of the capture becomes the ``col``-th vertex v of the tuple,
    so slot (col, row) becomes global variable (v-1)*m + row.  Sorting each
    term's variables merges the exponents of a vertex shared between sets.
    Returns ``(ids, count)`` with ids[r, t] the monomial of term t on tuple r.
    """
    rows = len(block.tuples)
    terms, width = slots.shape
    vertices = np.array(
        [[v for s in tp for v in s] for tp in block.tuples], dtype=np.int64
    )
    pad = m * int(vertices.max())  # sorts after every variable
    valid = slots >= 0
    col = np.where(valid, slots // m, 0)
    offset = slots % m - m
    ids = np.empty((rows, terms, width), dtype=np.min_scalar_type(pad))
    step = max(1, _CHUNK_IDS // (terms * width))
    for r0 in range(0, rows, step):
        chunk = vertices[r0 : r0 + step, col] * m + offset
        chunk[:, ~valid] = pad
        chunk.sort(axis=2)
        ids[r0 : r0 + step] = chunk
    flat = ids.reshape(rows * terms, width)
    order = np.lexsort(flat.T)
    ranked = flat[order]
    fresh = np.ones(len(order), dtype=bool)
    fresh[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    mono = np.empty(len(order), dtype=np.int64)
    mono[order] = np.cumsum(fresh) - 1
    return mono.reshape(rows, terms), int(fresh.sum())


def _check_exact(rank: int, terms: int, p: int) -> None:
    """Refuse a field in which the elimination would not be exact.

    Float64 holds integers exactly below 2^53: the GEMMs sum ``rank``
    products of residues, and a fresh row sums ``terms`` coefficients.  The
    int32 batch step subtracts up to ``_BATCH_ROWS`` products of residues
    from a residue before reducing it.
    """
    if max(rank * (p - 1) ** 2, terms * (p - 1)) >= 2**53:
        raise ValueError(
            f"GF({p}) elimination over {rank} rows is not exact in float64"
        )
    if _BATCH_ROWS * (p - 1) ** 2 + p >= 2**31:
        raise ValueError(f"GF({p}) batch updates overflow int32")


def _triangular_inverse(upper: np.ndarray, p: int) -> np.ndarray:
    """Inverse mod p of a unit upper-triangular matrix, by back substitution."""
    k = upper.shape[0]
    inv = np.eye(k)
    for i in range(k - 2, -1, -1):
        inv[i] = (inv[i] - upper[i, i + 1 :] @ inv[i + 1 :]) % p
    return inv


def _grow(a: np.ndarray, rows: int, cols: int) -> np.ndarray:
    out = np.zeros((rows, cols))
    out[: a.shape[0], : a.shape[1]] = a
    return out


def _row_rank_profile(ids, coeffs, count: int, p: int) -> list[int]:
    """Indices of the rows that are independent of all earlier rows, for the
    rows x count matrix over GF(p) whose row r sums coeffs[t] at ids[r, t].

    Rows are processed in batches.  The basis B holds each kept row as it was
    when kept: reduced against every earlier basis row, normalized to 1 at
    its pivot column.  So B[:, piv] is unit upper triangular, and with its
    inverse M kept up to date a batch X is reduced in two float64 GEMMs as
    X - ((X[:, piv] M) mod p) B.  Pivots inside the batch are then found in
    row order in int32, with one rank-1 update per pivot; a row is reduced
    mod p only when its turn comes.
    """
    rows, terms = ids.shape
    most = min(rows, count)
    _check_exact(most, terms, p)
    weights = np.tile(coeffs, _BATCH_ROWS)
    size = min(2 * _BATCH_ROWS, most)
    basis = np.zeros((size, count))
    inverse = np.zeros((size, size))
    piv = np.empty(0, dtype=np.int64)
    kept: list[int] = []
    k = 0
    for r0 in range(0, rows, _BATCH_ROWS):
        b = min(_BATCH_ROWS, rows - r0)
        cells = (ids[r0 : r0 + b] + count * np.arange(b)[:, None]).ravel()
        x = np.bincount(cells, weights[: b * terms], b * count).reshape(b, count)
        if k:
            factor = ((x[:, piv] % p) @ inverse[:k, :k]) % p
            x -= factor @ basis[:k]
        x = (x.astype(np.int64) % p).astype(np.int32)
        fresh, cols = [], []
        for i in range(b):
            row = x[i] % p
            c = int(np.argmax(row != 0))
            if not row[c]:
                continue
            x[i] = row * pow(int(row[c]), -1, p) % p
            below = x[i + 1 :]
            below -= (below[:, c] % p)[:, None] * x[i]
            fresh.append(i)
            cols.append(c)
        if not fresh:
            continue
        new = len(fresh)
        if k + new > basis.shape[0]:
            size = min(max(2 * basis.shape[0], k + new), most)
            basis = _grow(basis, size, count)
            inverse = _grow(inverse, size, size)
        block = x[fresh].astype(np.float64)
        tail = _triangular_inverse(block[:, cols], p)
        if k:
            corner = (inverse[:k, :k] @ basis[:k, cols]) % p
            inverse[:k, k : k + new] = (-(corner @ tail)) % p
        inverse[k : k + new, k : k + new] = tail
        basis[k : k + new] = block
        piv = np.concatenate([piv, cols])
        kept.extend(r0 + i for i in fresh)
        k += new
    return kept


def kernelize_poly(
    block: GurfcBlock, cp: CapturePair, budget: int | None = None
) -> GurfcBlock:
    """Keep the greedy earliest subset of the block's tuples whose
    instantiated capture polynomials are linearly independent over GF(p).

    The kept set is the row rank profile of the tuples x monomials
    coefficient matrix, in canonical block order: tuple r is kept iff its
    row is not in the span of rows 0..r-1.  That set is a property of the
    row space alone, so it depends neither on the order of the columns nor
    on how monomials are numbered, and any exact elimination reproduces it.
    The surviving collection has the same solution set as the input, on any
    graph and with the capture's q colors, and size at most C(m*n + r, r).

    The engine is dense numpy.  Instantiation maps the capture's variable
    slots to global variables for all tuples at once and interns the
    monomials with one lexsort.  Elimination runs in batches of 32 rows (see
    _row_rank_profile): float64 GEMMs against the basis are exact while
    rank*(p-1)^2 < 2^53, and the int32 pivoting inside a batch while
    32*(p-1)^2 + p < 2^31, that is for p <= 8191.  A field outside either
    bound raises ValueError, and so does a capture of another (d, l).  The
    matrix size, rows x monomials, is charged against the tuple budget
    (explicit, else ``CCKER_BUDGET``, else DEFAULT_TUPLE_BUDGET) before
    elimination starts.
    """
    if (cp.d, cp.l) != (block.d, block.l):
        raise ValueError(
            f"capture shape ({cp.d},{cp.l}) does not match block "
            f"({block.d},{block.l})"
        )
    if not block.tuples or not len(cp.poly.coeffs):  # every row is zero
        return canonical_subset(block, tuples=())
    ids, count = _monomial_ids(block, cp.m, cp.poly.terms)
    b = resolve_budget(budget, DEFAULT_TUPLE_BUDGET)
    charge("polynomial kernel matrix", len(block.tuples) * count, b)
    kept = _row_rank_profile(ids, cp.poly.coeffs, count, cp.p)
    return canonical_subset(block, tuples=(block.tuples[r] for r in kept))


# ---------------------------------------------------------------------------
# Rainbow-free kernel dispatch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelReport:
    """What the kernelizer did to one constraint block."""

    method: str  # "dedup" | "poly" | "solved"
    d: int
    l: int
    q: int
    eta: int
    field_p: int | None = None
    capture_item: int | None = None
    basis_size: int | None = None
    binom_bound: int | None = None
    answer: bool | None = None

    def lines(self) -> list[str]:
        """``field=value`` for each field that is set, in declaration order."""
        out = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                if f.name == "answer":
                    value = "YES" if value else "NO"
                out.append(f"{f.name}={value}")
        return out


@dataclass(frozen=True)
class KernelResult:
    """A kernel and the report of each of its blocks, in block order."""

    instance: GurfcInstance
    reports: tuple[KernelReport, ...]


def _solve_eta0(graph: Graph, q: int, block: GurfcBlock) -> bool:
    """Polynomial-time decision for the shapes with kernel exponent 0.

    Under q = 1 every edge is monochromatic, and under q = 1 or d = l = 1
    every tuple is uniformly rainbow.  Otherwise q = 2, and each constraint
    says whether two vertices share a color: an edge or a (1, 2) tuple {x},
    {y} that they differ, a (2, 1) tuple {x, y} that they agree.  They all
    hold at once unless a union-find (by size) that stores, per vertex,
    whether its color differs from its parent's meets a contradiction.
    """
    tuples = block.tuples
    if tuples and (q == 1 or block.d * block.l == 1):
        return False
    if q == 1:
        return not graph.m
    pairs = [(u, v, 1) for u, v in graph.edges]
    pairs += [(tp[0][0], tp[-1][-1], int(block.d == 1)) for tp in tuples]
    parent = list(range(graph.n + 1))
    size = [1] * (graph.n + 1)
    flip = [0] * (graph.n + 1)  # the color differs from the parent's

    def find(v):
        odd = 0
        while parent[v] != v:
            odd ^= flip[v]
            v = parent[v]
        return v, odd

    for u, v, differ in pairs:
        (ru, pu), (rv, pv) = find(u), find(v)
        if ru == rv:
            if pu ^ pv != differ:
                return False
            continue
        if size[ru] < size[rv]:
            ru, rv = rv, ru
        parent[rv], flip[rv] = ru, pu ^ pv ^ differ
        size[ru] += size[rv]
    return True


def _const_instance(answer: bool, d: int, l: int, q: int) -> GurfcInstance:
    if answer:
        graph = Graph(1, ())
    elif q == 1:
        graph = Graph(2, ((1, 2),))
    else:
        graph = Graph(3, ((1, 2), (1, 3), (2, 3)))
    return GurfcInstance(graph, q, (GurfcBlock(d, l, ()),))


def kernelize_urfc(inst: GurfcInstance, budget: int | None = None) -> KernelResult:
    """Kernelize a one-block rainbow-free instance, dispatching on its
    exponent; an instance with any other number of blocks is a ValueError.

    Exponent d*l (or the l = 1, d <= 2 shapes): deduplication only, which the
    canonical instance form already performs.  Exponents d*l - 1 and
    (d-1)*l: polynomial-basis kernel with the matching capture construction.
    Exponent 0: the instance is decided outright and a constant-size
    equivalent instance with no tuples is emitted.  In all other cases the
    output is (G, F') with F' a subset of F and an identical solution set.
    ``budget`` goes to build_capture and kernelize_poly.
    """
    if len(inst.blocks) != 1:
        raise ValueError(
            f"urfc instance must have exactly one block, got {len(inst.blocks)}"
        )
    (block,) = inst.blocks
    d, l, q = block.d, block.l, inst.q
    e = eta(d, l, q)
    if e == 0:
        answer = _solve_eta0(inst.graph, q, block)
        report = KernelReport("solved", d, l, q, e, answer=answer)
        return KernelResult(_const_instance(answer, d, l, q), (report,))
    if e == d * l or (l == 1 and d <= 2):
        return KernelResult(inst, (KernelReport("dedup", d, l, q, e),))
    cp = build_capture(d, l, q, budget=budget)
    kept = kernelize_poly(block, cp, budget)
    bound = math.comb(cp.m * inst.graph.n + cp.degree_bound, cp.degree_bound)
    assert len(kept.tuples) <= bound
    report = KernelReport(
        "poly",
        d,
        l,
        q,
        e,
        field_p=cp.p,
        capture_item=cp.item,
        basis_size=len(kept.tuples),
        binom_bound=bound,
    )
    return KernelResult(canonical_subset(inst, blocks=(kept,)), (report,))


def kernelize_gurfc(inst: GurfcInstance, budget: int | None = None) -> KernelResult:
    """Kernelize each block independently, by kernelize_urfc on the instance
    of that block alone, and take the union; ``budget`` goes to each block's
    build_capture and kernelize_poly.

    Every block must have kernel exponent at least 2; a degenerate block is
    an error rather than a silently wrong kernel.
    """
    for b in inst.blocks:
        if eta(b.d, b.l, inst.q) < 2:
            raise ValueError(
                f"block (d={b.d}, l={b.l}) has kernel exponent "
                f"{eta(b.d, b.l, inst.q)} < 2"
            )
    blocks = []
    reports = []
    for b in inst.blocks:
        result = kernelize_urfc(canonical_subset(inst, blocks=(b,)), budget)
        blocks.extend(result.instance.blocks)
        reports.extend(result.reports)
    return KernelResult(canonical_subset(inst, blocks=blocks), tuple(reports))


# ---------------------------------------------------------------------------
# Product-pruning kernel for constrained coloring
# ---------------------------------------------------------------------------


def kernelize_product_pruning(inst: RccInstance) -> RccInstance:
    """Prune constraints until no full product of r vertex pairs remains.

    While some 2-element sets A_1..A_r have their whole product inside the
    constraint collection, the lexicographically last tuple of that product
    is dropped.  Sound whenever no OR relation of arity r is definable from
    the instance relation (the caller may verify via max_or_arity); an
    instance with color lists, which no such argument covers, is refused.

    The rule is applied in one pass over the sorted collection, and it drops
    exactly what restarting the scan of pairs (s, t), s before t, from the
    first pair after every drop would:
    - Drops only shrink the collection, so every pair before a hit stays
      non-full.  The dropped tuple, the componentwise maximum of s and t, is
      lexicographically greater than s, so no outer tuple already passed is
      dropped.
    - When the scan reaches s, a full pair (s, t) has s < t in every
      coordinate.  Otherwise the componentwise minimum of s and t is an
      earlier live tuple whose pair with the same maximum spans the same
      product, and the scan there would have dropped that maximum.
    So at s the scan drops every later live t > s whose product with s is
    full.  The dropped corner is t itself, and it is no corner of another
    such product with s, so these drops do not interact.

    Each column is rank-compressed and each tuple gets a mixed-radix int64
    code, which sorts like the tuple; a product's 2^r corners take their
    j-th entry from s or t, so they are coded from the same ranks and
    looked up in the sorted codes.
    """
    r = inst.relation.r
    if r < 3:
        raise ValueError(f"arity must be at least 3, got {r}")
    if inst.lists is not None:
        raise ValueError("product pruning takes no color lists")
    rows = np.array(inst.constraints, dtype=np.int64).reshape(-1, r)
    m = len(rows)
    ranks = np.empty_like(rows)
    radices = []
    for j in range(r):  # rank of each id among the ids in its column
        present = np.zeros(inst.graph.n + 1, dtype=np.int64)
        present[rows[:, j]] = 1
        ranks[:, j] = (np.cumsum(present) - 1)[rows[:, j]]
        radices.append(int(present.sum()))
    digits = ranks * _radix_weights(radices)
    codes = digits.sum(axis=1)  # strictly increasing: constraints are sorted
    alive = np.ones(m, dtype=bool)
    for i in range(m):
        if not alive[i]:
            continue
        above = i + 1 + np.flatnonzero(
            alive[i + 1 :] & (ranks[i + 1 :] > ranks[i]).all(axis=1)
        )
        if not above.size:
            continue
        corners = np.zeros((above.size, 1), dtype=np.int64)
        for j in range(r):
            corners = np.concatenate(
                (corners + digits[i, j], corners + digits[above, j, None]), axis=1
            )
        pos = np.minimum(np.searchsorted(codes, corners), m - 1)
        alive[above[((codes[pos] == corners) & alive[pos]).all(axis=1)]] = False
    kept = (c for c, keep in zip(inst.constraints, alive.tolist()) if keep)
    return canonical_subset(inst, constraints=kept)
