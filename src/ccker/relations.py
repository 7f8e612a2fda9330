"""Finite-domain relation algebra.

Explicit relations over [q], permutation-invariance testing, OR-definability
search, the uniformly-rainbow-freeness (NUR) relation family, and the closed
form exponent formulas that drive kernel dispatch.

Tuples of arity d*l are read as d x l matrices in column-major order:
position (i, j), 1-based, maps to flat index (j-1)*d + i.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .budget import DEFAULT_TUPLE_BUDGET, charge, resolve_budget

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


@dataclass(frozen=True)
class Relation:
    """An explicit relation of arity r over the domain [q].

    Tuples are stored sorted and deduplicated; membership is O(1) via a
    frozenset built at construction.
    """

    q: int
    r: int
    tuples: tuple[tuple[int, ...], ...]
    _members: frozenset = field(
        init=False, repr=False, compare=False, default=frozenset()
    )

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"domain size must be positive, got {self.q}")
        if self.r < 1:
            raise ValueError(f"arity must be positive, got {self.r}")
        q, r = self.q, self.r

        def checked(t):
            t = tuple(t)
            if len(t) != r:
                raise ValueError(f"tuple needs {r} entries, got {len(t)}")
            if min(t) < 1 or max(t) > q:
                raise ValueError(f"tuple entry out of range 1..{q}")
            return t

        members = frozenset(map(checked, self.tuples))
        object.__setattr__(self, "tuples", tuple(sorted(members)))
        object.__setattr__(self, "_members", members)

    def __contains__(self, t) -> bool:
        return tuple(t) in self._members

    def __len__(self) -> int:
        return len(self.tuples)


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
    charge("nur enumeration", q ** (d * l), b)
    contains = nur_membership(d, l)
    tuples = [
        t for t in itertools.product(range(1, q + 1), repeat=d * l) if contains(t)
    ]
    return Relation(q, d * l, tuple(tuples))


def full_relation(q: int, r: int, budget: int | None = None) -> Relation:
    """The complete relation [q]^r."""
    b = resolve_budget(budget, DEFAULT_TUPLE_BUDGET)
    charge("full relation enumeration", q**r, b)
    return Relation(q, r, tuple(itertools.product(range(1, q + 1), repeat=r)))


def _closed_under(rel: Relation, perm: tuple[int, ...]) -> bool:
    # perm maps value v to perm[v-1]; forward closure under a generating set
    # of the symmetric group implies closure under the whole group.
    members = rel._members
    return all(tuple(perm[x - 1] for x in t) in members for t in rel.tuples)


def is_permutation_invariant(rel: Relation) -> bool:
    """Decide whether domain permutations preserve membership, exactly.

    Checks closure under the transposition (1 2) and the q-cycle, which
    generate the symmetric group on [q]; closure under generators is closure
    under the group because the relation is finite.
    """
    q = rel.q
    if q < 2:
        return True
    swap = (2, 1) + tuple(range(3, q + 1))
    cycle = tuple(range(2, q + 1)) + (1,)
    return _closed_under(rel, swap) and _closed_under(rel, cycle)


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
    """
    if not 1 <= k <= rel.r:
        raise ValueError(f"witness arity must be in 1..{rel.r}, got {k}")
    q, r = rel.q, rel.r
    members = rel._members
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
