"""Finite-domain relation algebra.

Explicit relations over [q] as membership tables, permutation-invariance
testing, OR-definability search, the uniformly-rainbow-freeness (NUR)
relation family, and the closed form exponent formulas that drive kernel
dispatch.

Tuples of arity d*l are read as d x l matrices in column-major order:
position (i, j), 1-based, maps to flat index (j-1)*d + i.

A tuple t of [q]^r has the mixed-radix code sum_j (t_j - 1) * q^(r-j), its
first entry most significant, so codes sort like tuples.  The grid of all
codes, in chunks of rows of 0-based digits, is what the tables of
``make_nur`` and ``full_relation`` and the capture check are built from.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .budget import DEFAULT_TUPLE_BUDGET, charge, charge_grid, resolve_budget

__all__ = [
    "Relation",
    "OrWitness",
    "UrfcShape",
    "is_uniformly_rainbow",
    "nur_membership",
    "make_nur",
    "full_relation",
    "is_permutation_invariant",
    "find_or_witness",
    "max_or_arity",
    "nur_or_witness",
    "nur_witness_items",
    "eta",
    "r_clique",
]

# Rows per chunk of the code grid, and corners per batch of the witness search.
_GRID_ROWS = 1 << 14
_CORNER_BATCH = 1 << 16


def _radix_weights(radices) -> np.ndarray:
    """Place values of a mixed-radix int64 code whose digit j runs over
    range(radices[j]), most significant digit first, so codes sort like
    their digit tuples.  Raises ValueError if some code would not fit."""
    if math.prod(radices) >= 2**63:
        raise ValueError(
            f"mixed-radix codes over radices {list(radices)} overflow int64"
        )
    weights = [1] * len(radices)
    for j in range(len(radices) - 2, -1, -1):
        weights[j] = weights[j + 1] * radices[j + 1]
    return np.array(weights, dtype=np.int64)


def _grid_chunks(q: int, r: int):
    """The grid [q]^r in code order, as (first code, rows) pairs: each chunk
    holds the 0-based digits of consecutive codes, one tuple per row."""
    total = q**r
    weights = _radix_weights([q] * r)
    for start in range(0, total, _GRID_ROWS):
        codes = np.arange(start, min(start + _GRID_ROWS, total), dtype=np.int64)
        yield start, codes[:, None] // weights % q


def _uniformly_rainbow_mask(block_colors: np.ndarray) -> np.ndarray:
    """Rows x tuples boolean mask of uniformly rainbow evaluations.

    ``block_colors`` has shape (rows, tuples, l, d): the colors of each
    tuple's sets under each coloring.  It is sorted in place along d.  A
    tuple is uniformly rainbow when its first set is rainbow and every other
    set shows the same colors.
    """
    block_colors.sort(axis=3)
    first = block_colors[:, :, 0]
    mask = (first[:, :, 1:] != first[:, :, :-1]).all(axis=2)
    for j in range(1, block_colors.shape[2]):
        mask &= (block_colors[:, :, j] == first).all(axis=2)
    return mask


def is_uniformly_rainbow(values, d: int, l: int) -> bool:
    """True iff the flat d*l value sequence is uniformly rainbow.

    The l blocks of d consecutive entries must all consist of d distinct
    values and carry identical value sets.
    """
    first = set(values[:d])
    if len(first) != d:
        return False
    return all(set(values[j * d : (j + 1) * d]) == first for j in range(1, l))


def nur_membership(d: int, l: int):
    """Membership predicate for NUR(d, l, q), usable without materializing it."""

    def contains(values) -> bool:
        return not is_uniformly_rainbow(values, d, l)

    return contains


def _table_of_rows(q: int, r: int, rows: np.ndarray) -> np.ndarray:
    """The membership table of the checked rows of values in 1..q, coded a
    chunk of rows at a time."""
    table = np.zeros(q**r, dtype=bool)
    if rows.size:
        weights = _radix_weights([q] * r)
        for start in range(0, len(rows), _GRID_ROWS):
            chunk = rows[start : start + _GRID_ROWS].astype(np.int64)
            table[(chunk - 1) @ weights] = True
    return table


def _check_dimensions(q: int, r: int) -> None:
    if q < 1:
        raise ValueError(f"domain size must be positive, got {q}")
    if r < 1:
        raise ValueError(f"arity must be positive, got {r}")


@dataclass(frozen=True, init=False, eq=False)
class Relation:
    """An explicit relation of arity r over the domain [q].

    ``table`` is a read-only boolean array of q^r entries: entry c says
    whether the tuple with code c is a member.  ``Relation(q, r, tuples)``
    checks the tuples one by one, duplicates allowed, ``Relation.from_rows``
    the rows of an array all at once, and ``Relation.from_table`` takes a
    table already built.  Membership is one lookup, ``len`` counts the
    members, and ``tuples`` lists them sorted, built the first time it is
    asked for.  Relations are equal when their q, r and tables are.
    """

    q: int
    r: int
    table: np.ndarray = field(repr=False)

    def __init__(self, q: int, r: int, tuples):
        _check_dimensions(q, r)
        rows = []
        for t in tuples:
            t = tuple(t)
            if len(t) != r:
                raise ValueError(f"tuple needs {r} entries, got {len(t)}")
            if min(t) < 1 or max(t) > q:
                raise ValueError(f"tuple entry out of range 1..{q}")
            rows.append(t)
        self._adopt(q, r, _table_of_rows(q, r, np.array(rows, dtype=np.int64)))

    @classmethod
    def from_rows(cls, q: int, r: int, rows) -> "Relation":
        """The relation whose members are the rows of an integer array with r
        columns, duplicates allowed, checked all at once."""
        _check_dimensions(q, r)
        rows = np.asarray(rows)
        if rows.size:
            if not np.issubdtype(rows.dtype, np.integer):
                raise ValueError(f"tuple entries must be integers, got {rows.dtype}")
            if rows.ndim != 2 or rows.shape[1] != r:
                raise ValueError(f"tuples need {r} entries, got shape {rows.shape}")
            if rows.min() < 1 or rows.max() > q:
                raise ValueError(f"tuple entry out of range 1..{q}")
        return cls.from_table(q, r, _table_of_rows(q, r, rows))

    @classmethod
    def from_table(cls, q: int, r: int, table) -> "Relation":
        """The relation whose membership table, in code order, is ``table``:
        q^r booleans.  The array is kept, not copied, and made read-only."""
        _check_dimensions(q, r)
        table = np.asarray(table, dtype=bool)
        if table.shape != (q**r,):
            raise ValueError(f"table needs shape ({q**r},), got {table.shape}")
        rel = object.__new__(cls)
        rel._adopt(q, r, table)
        return rel

    def _adopt(self, q: int, r: int, table: np.ndarray) -> None:
        table.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_size", int(np.count_nonzero(table)))

    def rows(self) -> np.ndarray:
        """The members as an array of values in 1..q, of the smallest dtype
        that holds q, one row per tuple, in lexicographic order."""
        codes = np.flatnonzero(self.table)
        weights = _radix_weights([self.q] * self.r)
        rows = np.empty((len(codes), self.r), dtype=np.min_scalar_type(self.q))
        for start in range(0, len(codes), _GRID_ROWS):
            chunk = codes[start : start + _GRID_ROWS, None] // weights
            rows[start : start + _GRID_ROWS] = chunk % self.q + 1
        return rows

    @functools.cached_property
    def tuples(self) -> tuple[tuple[int, ...], ...]:
        """The members, sorted."""
        return tuple(map(tuple, self.rows().tolist()))

    def __contains__(self, t) -> bool:
        q, code, width = self.q, 0, 0
        for x in t:
            if not 1 <= x <= q:
                return False
            code = code * q + x - 1
            width += 1
        return width == self.r and bool(self.table[code])

    def __len__(self) -> int:
        return self._size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (self.q, self.r) == (other.q, other.r) and np.array_equal(
            self.table, other.table
        )

    def __hash__(self) -> int:
        return hash((self.q, self.r, self.table.tobytes()))


@dataclass(frozen=True)
class UrfcShape:
    """Shape constants of a uniformly-rainbow-free coloring problem."""

    d: int
    l: int
    q: int

    def __post_init__(self):
        if not (self.q >= self.d >= 1 and self.l >= 1):
            raise ValueError(f"invalid shape d={self.d} l={self.l} q={self.q}")

    @property
    def arity(self) -> int:
        return self.d * self.l


def make_nur(d: int, l: int, q: int, budget: int | None = None) -> Relation:
    """The arity-d*l relation over [q] of all non-uniformly-rainbow matrices."""
    UrfcShape(d, l, q)
    b = resolve_budget(budget, DEFAULT_TUPLE_BUDGET)
    charge_grid("nur enumeration", q, d * l, b)
    table = np.empty(q ** (d * l), dtype=bool)
    for start, digits in _grid_chunks(q, d * l):
        rows = len(digits)
        rainbow = _uniformly_rainbow_mask(digits.reshape(rows, 1, l, d))[:, 0]
        np.logical_not(rainbow, out=table[start : start + rows])
    return Relation.from_table(q, d * l, table)


def full_relation(q: int, r: int, budget: int | None = None) -> Relation:
    """The complete relation [q]^r."""
    b = resolve_budget(budget, DEFAULT_TUPLE_BUDGET)
    charge_grid("full relation enumeration", q, r, b)
    return Relation.from_table(q, r, np.ones(q**r, dtype=bool))


def is_permutation_invariant(rel: Relation) -> bool:
    """Decide whether domain permutations preserve membership, exactly.

    Checks closure under the transposition (1 2) and the q-cycle, which
    generate the symmetric group on [q]; closure under generators is closure
    under the group because the relation is finite.  A permutation maps the
    finite grid onto itself, so closure under it means that every tuple and
    its image have the same table entry: one gather of the relabelled
    digits' codes per generator.
    """
    q, r = rel.q, rel.r
    if q < 2:
        return True
    swap = np.array([1, 0] + list(range(2, q)))
    cycle = np.roll(np.arange(q), -1)
    weights = _radix_weights([q] * r)
    for start, digits in _grid_chunks(q, r):
        here = rel.table[start : start + len(digits)]
        for perm in (swap, cycle):
            if not np.array_equal(rel.table[perm[digits] @ weights], here):
                return False
    return True


@dataclass(frozen=True)
class OrWitness:
    """Certificate that an OR relation of arity k is definable.

    ``positions`` lists the k positions (1-based, sorted) whose domain is a
    pair; ``alpha`` is the full tuple excluded from the relation; ``beta``
    gives, parallel to ``positions``, the second domain value at each paired
    position.  The product of the induced domains has 2^k tuples, of which
    exactly alpha must lie outside the relation.
    """

    k: int
    positions: tuple[int, ...]
    alpha: tuple[int, ...]
    beta: tuple[int, ...]

    def __post_init__(self):
        if self.k != len(self.positions) or self.k != len(self.beta):
            raise ValueError("witness arity does not match positions/beta")
        if self.k < 0:
            raise ValueError("witness arity must be nonnegative")
        if list(self.positions) != sorted(set(self.positions)):
            raise ValueError("positions must be sorted and distinct")
        if self.positions and not (
            1 <= self.positions[0] and self.positions[-1] <= len(self.alpha)
        ):
            raise ValueError("positions out of range")
        for pos, b in zip(self.positions, self.beta):
            if b == self.alpha[pos - 1]:
                raise ValueError(f"beta equals alpha at position {pos}")

    @property
    def arity(self) -> int:
        return len(self.alpha)

    def domains(self) -> tuple[tuple[int, ...], ...]:
        """D_1..D_r: the pair {alpha_j, beta_j} on J, singleton {alpha_j} off J."""
        beta_at = dict(zip(self.positions, self.beta))
        out = []
        for j in range(1, self.arity + 1):
            if j in beta_at:
                out.append(tuple(sorted((self.alpha[j - 1], beta_at[j]))))
            else:
                out.append((self.alpha[j - 1],))
        return tuple(out)

    def product_tuples(self):
        return itertools.product(*self.domains())

    def check_membership(self, contains) -> bool:
        """Validate against a membership predicate in O(2^k) queries."""
        for t in self.product_tuples():
            if contains(t) != (t != self.alpha):
                return False
        return True

    def check(self, rel: Relation) -> bool:
        if rel.r != self.arity:
            return False
        if any(not 1 <= x <= rel.q for x in self.alpha + self.beta):
            return False
        return self.check_membership(lambda t: t in rel)


def find_or_witness(rel: Relation, k: int) -> OrWitness | None:
    """Search for an arity-k OR witness, lexicographically first.

    Position sets J are tried in lexicographic order; for each J, the per
    position domain choices (2-subsets of [q] on J, single values off J) are
    tried in lexicographic order.  Deterministic: repeated calls return the
    identical witness.

    The choices for one J are mixed-radix codes over the choices per
    position.  A batch of consecutive codes is decoded, the 2^k corner codes
    of each product are built position by position, and the table is
    gathered at all of them; a candidate is a witness when exactly one
    corner is missing.  Batches start small and double, so that a witness
    among the first candidates is found after little work.
    """
    if not 1 <= k <= rel.r:
        raise ValueError(f"witness arity must be in 1..{rel.r}, got {k}")
    q, r = rel.q, rel.r
    pairs = np.array(list(itertools.combinations(range(q), 2)), dtype=np.int64)
    weights = _radix_weights([q] * r)
    most = max(1, _CORNER_BATCH >> k)
    for js in itertools.combinations(range(r), k):
        radices = [len(pairs) if j in js else q for j in range(r)]
        choice_weights = _radix_weights(radices)
        total = math.prod(radices)
        start, batch = 0, min(8, most)
        while start < total:
            codes = np.arange(start, min(start + batch, total), dtype=np.int64)
            start, batch = start + batch, min(2 * batch, most)
            choice = codes[:, None] // choice_weights % radices
            corners = np.zeros((len(codes), 1), dtype=np.int64)
            for j in range(r):
                if j in js:
                    lo, hi = (pairs[choice[:, j]] * weights[j]).T[:, :, None]
                    corners = np.concatenate((corners + lo, corners + hi), axis=1)
                else:
                    corners += choice[:, j, None] * weights[j]
            members = rel.table[corners]
            found = np.flatnonzero((~members).sum(axis=1) == 1)
            if found.size:
                i = found[0]
                missing = corners[i, np.argmin(members[i])]
                alpha = tuple((missing // weights % q + 1).tolist())
                beta = tuple(
                    sum(pairs[choice[i, j]].tolist()) + 2 - alpha[j] for j in js
                )
                return OrWitness(k, tuple(j + 1 for j in js), alpha, beta)
    return None


def _witness_search_size(q: int, r: int, k: int) -> int:
    return math.comb(r, k) * math.comb(q, 2) ** k * q ** (r - k) * (1 << k)


def max_or_arity(rel: Relation, budget: int | None = None) -> int:
    """Largest k admitting an OR witness, 0 if none exists at any arity."""
    b = resolve_budget(budget, DEFAULT_TUPLE_BUDGET)
    for k in range(rel.r, 0, -1):
        charge("or-witness search", _witness_search_size(rel.q, rel.r, k), b)
        if find_or_witness(rel, k) is not None:
            return k
    return 0


def nur_or_witness(d: int, l: int, q: int, item: int) -> OrWitness:
    """The explicit OR witness for NUR(d, l, q), one of three constructions.

    alpha is the matrix with entry i in row i.  Item 1: beta is d+1 in
    column 1 and d+2 elsewhere, arity d*l.  Item 2: all positions but (1,1),
    beta is d+1 on row 1 and 1 below, arity d*l - 1.  Item 3: all positions
    off row 1, beta is 1, arity (d-1)*l.  ``nur_witness_items`` says which
    items apply to the shape.  The returned witness is validated against the
    NUR membership predicate before being returned.
    """
    items = nur_witness_items(d, l, q)
    if item not in items:
        raise ValueError(
            f"item {item} does not apply to nur({d},{l},{q}); items: {items}"
        )
    r = d * l
    alpha = tuple(((p - 1) % d) + 1 for p in range(1, r + 1))

    def rowcol(p: int) -> tuple[int, int]:
        return ((p - 1) % d) + 1, ((p - 1) // d) + 1

    if item == 1:
        positions = tuple(range(1, r + 1))
        beta = tuple(d + 1 if rowcol(p)[1] == 1 else d + 2 for p in positions)
    elif item == 2:
        positions = tuple(p for p in range(1, r + 1) if rowcol(p) != (1, 1))
        beta = tuple(d + 1 if rowcol(p)[0] == 1 else 1 for p in positions)
    else:
        positions = tuple(p for p in range(1, r + 1) if rowcol(p)[0] >= 2)
        beta = tuple(1 for _ in positions)

    witness = OrWitness(len(positions), positions, alpha, beta)
    if not witness.check_membership(nur_membership(d, l)):
        raise AssertionError(
            f"constructed witness fails validation for nur({d},{l},{q}) item {item}"
        )
    return witness


def nur_witness_items(d: int, l: int, q: int) -> tuple[int, ...]:
    """Which of the three witness constructions apply to this shape."""
    UrfcShape(d, l, q)
    items = []
    if l >= 2 and q >= d + 2:
        items.append(1)
    if q >= d + 1:
        items.append(2)
    if q >= d:
        items.append(3)
    return tuple(items)


def eta(d: int, l: int, q: int) -> int:
    """Optimal kernel-size exponent for the (d, l, q) rainbow-free problem."""
    UrfcShape(d, l, q)
    cases = (
        (l >= 2 and q >= d + 2, d * l),
        (l >= 2 and q == d + 1 and (d, l) != (1, 2), d * l - 1),
        ((l >= 2 and q == d >= 2) or (l == 1 and d >= 3), (d - 1) * l),
        (l == 1 and d <= 2 and q >= 3, 2),
        ((q == 2 and d * l <= 2) or q == 1, 0),
    )
    fired = [value for hit, value in cases if hit]
    assert len(fired) == 1, f"eta cases not disjoint/exhaustive at ({d},{l},{q})"
    return fired[0]


def _r_clique_closed_form(q: int, t: int) -> int:
    if t == 1:
        return q - 1
    if t == 2 or (t == q == 3):
        return 2 * q - 3
    if 3 <= t and 2 * t < q + 1:
        return (q - t + 1) * t
    return (q + 1) ** 2 // 4


def r_clique(q: int, t: int) -> int:
    """Kernel exponent for q-coloring with a modulator to cliques of size <= t.

    Computed as the maximum of eta(q-l+1, l, q) over l in 1..t, and checked
    against the equivalent closed form.
    """
    if q < 3:
        raise ValueError(f"q must be at least 3, got {q}")
    if not 1 <= t <= q:
        raise ValueError(f"t must be in 1..{q}, got {t}")
    value = max(eta(q - l + 1, l, q) for l in range(1, t + 1))
    closed = _r_clique_closed_form(q, t)
    assert value == closed, f"r({q},{t}): max formula {value} != closed form {closed}"
    return value
