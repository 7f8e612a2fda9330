"""Problem-instance data model and line-oriented text formats.

All instance types are immutable and canonical after construction: edges are
stored as sorted (u, v) pairs with u < v, rainbow-freeness tuples have their
sets sorted and the sets ordered lexicographically, and constraint lists are
sorted and deduplicated.  Parsers produce the canonical form, so
serialize(parse(text)) == canonical(text) and parse(serialize(x)) == x.

Text formats are line oriented; ``#`` starts a comment (DIMACS cnf uses its
own ``c`` comments).  Only the constructors check record invariants; parsers
check syntax and pass them generators over the records, so a constructor's
ValueError becomes a ParseError at the line of the record in flight.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field

import numpy as np

from .budget import DEFAULT_TUPLE_BUDGET, charge, charge_grid, resolve_budget
from .relations import Relation, UrfcShape, make_nur

__all__ = [
    "ParseError",
    "NotCliqueError",
    "Graph",
    "ListAssignment",
    "RccInstance",
    "GurfcBlock",
    "GurfcInstance",
    "CliqueKvInstance",
    "Hypergraph",
    "CnfFormula",
    "canonicalize_urfc_tuple",
    "canonical_subset",
    "validate_clique_kv",
    "parse",
    "serialize",
    "PARSERS",
]


class ParseError(ValueError):
    """Syntax or semantic error in an instance file, with a line position."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class NotCliqueError(ValueError):
    """A component of G minus the modulator is not a complete graph."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n; no loops, no parallel edges."""

    n: int
    edges: tuple[tuple[int, int], ...]
    _adj: tuple = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.n}")
        adj = [set() for _ in range(self.n + 1)]
        canon = []
        for u, v in self.edges:
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"edge ({u},{v}) out of range 1..{self.n}")
            if u == v:
                raise ValueError(f"loop edge at vertex {u}")
            if v in adj[u]:
                raise ValueError(f"duplicate edge ({u},{v})")
            adj[u].add(v)
            adj[v].add(u)
            canon.append((u, v) if u < v else (v, u))
        canon.sort()
        object.__setattr__(self, "edges", tuple(canon))
        object.__setattr__(self, "_adj", tuple(frozenset(s) for s in adj))

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> frozenset:
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def induced(self, vertices) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph on the given vertices, renumbered 1..k in sorted
        order; also returns the old-to-new vertex mapping."""
        vs = sorted(set(vertices))
        mapping = {v: i + 1 for i, v in enumerate(vs)}
        edges = [
            (mapping[u], mapping[v])
            for u, v in self.edges
            if u in mapping and v in mapping
        ]
        return Graph(len(vs), tuple(edges)), mapping


@dataclass(frozen=True)
class ListAssignment:
    """Per-vertex color lists over [q]; an empty list is legal (forces NO)."""

    q: int
    lists: tuple[frozenset, ...]

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be positive")
        lists = tuple(frozenset(s) for s in self.lists)
        for i, s in enumerate(lists):
            if any(not 1 <= c <= self.q for c in s):
                raise ValueError(f"list of vertex {i + 1} not a subset of 1..{self.q}")
        object.__setattr__(self, "lists", lists)

    @property
    def n(self) -> int:
        return len(self.lists)

    def get(self, v: int) -> frozenset:
        return self.lists[v - 1]


@dataclass(frozen=True)
class RccInstance:
    """Constrained coloring: proper q-coloring of the graph whose restriction
    to every constraint tuple lies in the relation.  With ``lists`` it is
    constrained list coloring: each vertex also takes a color of its list."""

    graph: Graph
    relation: Relation
    constraints: tuple[tuple[int, ...], ...]
    nur_shape: UrfcShape | None = None
    lists: ListAssignment | None = None

    def __post_init__(self):
        s, n, r = self.nur_shape, self.graph.n, self.relation.r
        if s is not None and (s.arity != r or s.q != self.relation.q):
            raise ValueError("nur shape does not match relation dimensions")
        canon = set()
        for t in self.constraints:
            t = tuple(t)
            if len(t) != r:
                raise ValueError(f"constraint needs {r} vertex ids, got {len(t)}")
            if min(t) < 1 or max(t) > n:
                raise ValueError(f"constraint vertex out of range 1..{n}")
            canon.add(t)
        object.__setattr__(self, "constraints", tuple(sorted(canon)))
        if self.lists is not None:
            if self.lists.q != self.relation.q:
                raise ValueError("list q does not match relation domain size")
            if self.lists.n != n:
                raise ValueError("list assignment does not cover every vertex")

    @property
    def constraint_count(self) -> int:
        return self.graph.m + len(self.constraints)


def canonicalize_urfc_tuple(sets, d: int) -> tuple[tuple[int, ...], ...]:
    """Sort each set ascending and order the sets lexicographically.

    Repeated sets inside a tuple are allowed; repeated vertices inside one
    set are not (each set must have exactly d distinct vertices).
    """
    canon = []
    for s in sets:
        s = tuple(sorted(s))
        if len(set(s)) != len(s) or len(s) != d:
            raise ValueError(f"set {s} does not have {d} distinct vertices")
        canon.append(s)
    return tuple(sorted(canon))


def _canonical_urfc_tuples(graph: Graph, d: int, tuples, l: int):
    n = graph.n
    canon = set()
    for tp in tuples:
        tp = canonicalize_urfc_tuple(tp, d)
        if len(tp) != l:
            raise ValueError(f"tuple {tp} does not have {l} sets")
        # sets are sorted and ordered, so tp[0][0] is the smallest vertex
        if tp[0][0] < 1 or max(s[-1] for s in tp) > n:
            raise ValueError(f"tuple vertex out of range 1..{n}")
        canon.add(tp)
    return tuple(sorted(canon))


@dataclass(frozen=True)
class GurfcBlock:
    """The l-tuples of d-subsets of one constraint shape."""

    d: int
    l: int
    tuples: tuple[tuple[tuple[int, ...], ...], ...]


@dataclass(frozen=True)
class GurfcInstance:
    """Rainbow-free coloring: (d_i, l_i) constraint blocks of distinct shapes
    sharing one graph and color count.  A urfc instance is the case of
    exactly one block."""

    graph: Graph
    q: int
    blocks: tuple[GurfcBlock, ...]

    def __post_init__(self):
        shapes = set()
        canon = []
        for b in self.blocks:
            UrfcShape(b.d, b.l, self.q)
            if (b.d, b.l) in shapes:
                raise ValueError(f"duplicate block shape ({b.d},{b.l})")
            shapes.add((b.d, b.l))
            canon.append(
                GurfcBlock(
                    b.d, b.l, _canonical_urfc_tuples(self.graph, b.d, b.tuples, b.l)
                )
            )
        object.__setattr__(self, "blocks", tuple(canon))

    @property
    def constraint_count(self) -> int:
        return self.graph.m + sum(len(b.tuples) for b in self.blocks)


def canonical_subset(inst, **collections):
    """``inst`` with each named collection replaced by a subsequence of it.

    A subsequence of a canonical collection (sorted, deduplicated, every
    record checked) is canonical, so the constructor is not run again.  The
    caller guarantees that each value is such a subsequence, for example the
    tuples a kernel keeps, in their input order, or blocks whose tuples are
    such subsequences.
    """
    out = copy.copy(inst)
    for name, records in collections.items():
        object.__setattr__(out, name, tuple(records))
    return out


def validate_clique_kv(graph: Graph, modulator) -> tuple[tuple[int, ...], ...]:
    """Partition G minus the modulator into cliques, or raise NotCliqueError.

    The modulator's vertices must be distinct and in 1..n.  Returns the
    connected components of the remainder, each verified to be complete,
    sorted by smallest vertex.
    """
    xs = set()
    for v in modulator:
        if not 1 <= v <= graph.n:
            raise ValueError(f"modulator vertex {v} out of range")
        if v in xs:
            raise ValueError("modulator has repeated vertices")
        xs.add(v)
    rest = [v for v in range(1, graph.n + 1) if v not in xs]
    seen = set()
    comps = []
    for start in rest:
        if start in seen:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in sorted(graph.neighbors(v)):
                if u not in xs and u not in seen:
                    seen.add(u)
                    stack.append(u)
        comp.sort()
        for u, v in itertools.combinations(comp, 2):
            if not graph.has_edge(u, v):
                raise NotCliqueError(
                    f"component containing vertex {comp[0]} is not a clique: "
                    f"missing edge ({u},{v})"
                )
        comps.append(tuple(comp))
    return tuple(comps)


@dataclass(frozen=True)
class CliqueKvInstance:
    """Graph with a modulator X whose removal leaves disjoint cliques."""

    graph: Graph
    modulator: tuple[int, ...]
    cliques: tuple[tuple[int, ...], ...] = field(init=False, default=())

    def __post_init__(self):
        cliques = validate_clique_kv(self.graph, self.modulator)
        # the cliques partition the vertices outside the modulator
        covered = {v for c in cliques for v in c}
        mod = tuple(v for v in range(1, self.graph.n + 1) if v not in covered)
        object.__setattr__(self, "modulator", mod)
        object.__setattr__(self, "cliques", cliques)

    @property
    def k(self) -> int:
        return len(self.modulator)

    @property
    def max_clique_size(self) -> int:
        return max((len(c) for c in self.cliques), default=0)


@dataclass(frozen=True)
class Hypergraph:
    """Hypergraph with duplicate-free edges, each a set of distinct vertices."""

    n: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        canon = set()
        for e in self.edges:
            e = tuple(sorted(e))
            if len(set(e)) != len(e) or not e:
                raise ValueError(f"hyperedge {e} is empty or repeats a vertex")
            if e[0] < 1 or e[-1] > self.n:
                raise ValueError(f"hyperedge vertex out of range 1..{self.n}")
            if e in canon:
                raise ValueError(f"duplicate hyperedge {e}")
            canon.add(e)
        object.__setattr__(self, "edges", tuple(sorted(canon, key=lambda e: (len(e), e))))

    @property
    def m(self) -> int:
        return len(self.edges)

    def is_uniform(self, l: int) -> bool:
        return all(len(e) == l for e in self.edges)


@dataclass(frozen=True)
class CnfFormula:
    """CNF over variables 1..n; clauses are tuples of nonzero signed literals."""

    n: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("variable count must be nonnegative")
        canon = []
        for cl in self.clauses:
            cl = tuple(cl)
            if not cl:
                raise ValueError("empty clause")
            for lit in cl:
                if lit == 0 or not 1 <= abs(lit) <= self.n:
                    raise ValueError(f"literal {lit} out of range in clause {cl}")
            if len({abs(lit) for lit in cl}) != len(cl):
                raise ValueError(f"clause {cl} repeats a variable")
            canon.append(cl)
        object.__setattr__(self, "clauses", tuple(canon))

    def validate_width(self, k: int) -> None:
        for cl in self.clauses:
            if len(cl) != k:
                raise ValueError(f"clause {cl} does not have width {k}")

    @property
    def width(self) -> int | None:
        """Common clause width, or None if empty or mixed."""
        widths = {len(cl) for cl in self.clauses}
        return widths.pop() if len(widths) == 1 else None


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class _Reader:
    """Iterator over non-blank lines, ``#`` comments removed, that remembers
    the number of the line it handed out last."""

    def __init__(self, text: str):
        self.rows = self._rows(text)
        self.pos = 0
        self.line = None

    @staticmethod
    def _rows(text: str) -> list[tuple[int, str]]:
        rows = []
        for i, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                rows.append((i, line))
        return rows

    def peek(self):
        return self.rows[self.pos] if self.pos < len(self.rows) else (None, None)

    def next(self, what: str):
        if self.pos >= len(self.rows):
            raise ParseError(f"unexpected end of input, expected {what}")
        row = self.rows[self.pos]
        self.pos += 1
        self.line = row[0]
        return row

    def ints(self, what: str) -> tuple[int, ...]:
        """The next line as a tuple of integers."""
        lineno, line = self.next(what)
        return _ints(line, lineno)

    def rest(self, what: str):
        """Every remaining line as a tuple of integers."""
        while not self.at_end():
            yield self.ints(what)

    def at_end(self) -> bool:
        return self.pos >= len(self.rows)

    def expect_end(self) -> None:
        if not self.at_end():
            lineno, line = self.peek()
            raise ParseError(f"trailing content {line!r}", lineno)

    def build(self, make, *args):
        """``make(*args)``, its ValueError reported at the last line read: the
        record that failed a check, or the header for a check on its values."""
        try:
            return make(*args)
        except (ParseError, NotCliqueError):
            raise
        except ValueError as exc:
            raise ParseError(str(exc), self.line) from None


class _DimacsReader(_Reader):
    """DIMACS lines: ``c`` lines are comments and a ``%`` line ends the input."""

    @staticmethod
    def _rows(text: str) -> list[tuple[int, str]]:
        rows = []
        for i, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if line.startswith("%"):
                break
            if line and not line.startswith("c"):
                rows.append((i, line))
        return rows


def _kv_line(line: str, lineno: int, head: str, keys: tuple[str, ...]) -> dict:
    parts = line.split()
    if not parts or parts[0] != head:
        raise ParseError(f"expected '{head}' line, got {line!r}", lineno)
    if len(parts) != 1 + len(keys):
        raise ParseError(f"'{head}' line needs fields {keys}", lineno)
    out = {}
    for part, key in zip(parts[1:], keys):
        if not part.startswith(key + "="):
            raise ParseError(f"expected '{key}=<int>', got {part!r}", lineno)
        try:
            out[key] = int(part[len(key) + 1 :])
        except ValueError:
            raise ParseError(f"bad integer in {part!r}", lineno) from None
        if out[key] < 0:
            raise ParseError(f"negative integer in {part!r}", lineno)
    return out


def _ints(line: str, lineno: int) -> tuple[int, ...]:
    try:
        return tuple(map(int, line.split()))
    except ValueError:
        raise ParseError(f"expected integers, got {line!r}", lineno) from None


def _edge(reader: _Reader) -> tuple[int, ...]:
    lineno, line = reader.next("edge line")
    parts = line.split()
    if len(parts) != 3 or parts[0] != "e":
        raise ParseError(f"expected 'e u v', got {line!r}", lineno)
    return _ints(" ".join(parts[1:]), lineno)


def _read_graph(reader: _Reader, budget) -> Graph:
    """The graph block; its header's vertex count is charged against the
    tuple budget ``budget`` first, since Graph allocates a set per vertex."""
    lineno, line = reader.next("graph header")
    head = _kv_line(line, lineno, "graph", ("n", "m"))
    budget = resolve_budget(budget, DEFAULT_TUPLE_BUDGET)
    charge("graph header vertices", head["n"], budget)
    edges = (_edge(reader) for _ in range(head["m"]))
    return reader.build(Graph, head["n"], edges)


def parse_graph(text: str, budget: int | None = None) -> Graph:
    reader = _Reader(text)
    g = _read_graph(reader, budget)
    reader.expect_end()
    return g


def _read_nur(reader: _Reader, line: str, lineno: int) -> UrfcShape:
    head = _kv_line(line, lineno, "nur", ("d", "l", "q"))
    return reader.build(UrfcShape, head["d"], head["l"], head["q"])


# Tuple lines per chunk of a relation's array parse.
_TUPLE_LINES = 1 << 12


def _int_rows(lines: list[str], q: int, r: int) -> np.ndarray | None:
    """Lines of r decimal integers in 1..q separated by single spaces, as a
    (lines, r) array of the smallest dtype that holds q; None for lines of
    any other form."""
    buf = np.frombuffer("\n".join(lines).encode(), dtype=np.uint8)
    seps = np.flatnonzero((buf == 32) | (buf == 10))
    starts = np.concatenate(([0], seps + 1))
    lengths = np.append(seps, len(buf)) - starts
    if (
        len(starts) != len(lines) * r
        or not 0 < lengths.min() <= lengths.max() <= 18
        or len(seps) + ((buf >= 48) & (buf <= 57)).sum() != len(buf)
        # a newline after every r-th number, and only there
        or not np.array_equal(buf[seps] == 10, np.arange(1, len(starts)) % r == 0)
    ):
        return None
    values = np.zeros(len(starts), dtype=np.int64)
    for i in range(lengths.max()):
        more = lengths > i
        values[more] = values[more] * 10 + (buf[starts[more] + i] - 48)
    if values.min() < 1 or values.max() > q:
        return None
    return values.astype(np.min_scalar_type(q)).reshape(-1, r)


def _read_relation(reader: _Reader, q: int, r: int, count, budget) -> Relation:
    """The next ``count`` lines, or all that remain if ``count`` is None, as
    the tuples of a relation over [q]^r.

    The header's q^r table entries are charged against the tuple budget
    first.  The lines are then read as arrays, a chunk of lines at a time,
    and checked at once; if any of them is not r integers in 1..q separated
    by single spaces, they are read again line by line, so that the error
    names the first bad line.
    """
    budget = resolve_budget(budget, DEFAULT_TUPLE_BUDGET)
    charge_grid("relation header table", q, r, budget)
    first = reader.pos
    end = len(reader.rows) if count is None else first + count
    if first < end <= len(reader.rows) and q >= 1 and r >= 1:
        chunks = []
        for start in range(first, end, _TUPLE_LINES):
            rows = reader.rows[start : min(start + _TUPLE_LINES, end)]
            chunks.append(_int_rows([line for _, line in rows], q, r))
            if chunks[-1] is None:
                break
        else:
            reader.pos, reader.line = end, reader.rows[end - 1][0]
            return Relation.from_rows(q, r, np.concatenate(chunks))
    if count is None:
        tuples = reader.rest("relation tuple")
    else:
        tuples = (reader.ints("relation tuple") for _ in range(count))
    return reader.build(Relation, q, r, tuples)


def parse_relation(
    text: str, budget: int | None = None
) -> tuple[Relation, UrfcShape | None]:
    """Parse a relation file: explicit listing or single-line nur shorthand.

    ``budget`` is the tuple budget of the relation's table (explicit, else
    ``CCKER_BUDGET``, else DEFAULT_TUPLE_BUDGET).
    """
    reader = _Reader(text)
    lineno, line = reader.next("relation header")
    if line.split()[0] == "nur":
        shape = _read_nur(reader, line, lineno)
        if not reader.at_end():
            raise ParseError("nur shorthand must be the only content", reader.peek()[0])
        return make_nur(shape.d, shape.l, shape.q, budget), shape
    head = _kv_line(line, lineno, "relation", ("q", "r"))
    return _read_relation(reader, head["q"], head["r"], None, budget), None


def _read_relation_block(
    reader: _Reader, relation_loader, budget
) -> tuple[Relation, UrfcShape | None]:
    """The ``rel`` block of an rcc or rclc file.  A ``rel file=REF`` line is
    read by ``relation_loader(REF, budget)``; every form of the relation is
    built within the tuple budget ``budget``, as in parse_relation."""
    lineno, line = reader.next("rel line")
    parts = line.split()
    if parts[0] != "rel":
        raise ParseError(f"expected 'rel ...', got {line!r}", lineno)
    body = parts[1:]
    if not body:
        raise ParseError("empty rel line", lineno)
    if body[0] == "nur":
        shape = _read_nur(reader, " ".join(body), lineno)
        return make_nur(shape.d, shape.l, shape.q, budget), shape
    if body[0].startswith("file="):
        if relation_loader is None:
            raise ParseError("relation file references are not available here", lineno)
        return relation_loader(body[0][len("file=") :], budget)
    head = _kv_line(line, lineno, "rel", ("q", "r", "count"))
    return _read_relation(reader, head["q"], head["r"], head["count"], budget), None


def _read_lists(reader: _Reader, n: int, q: int) -> ListAssignment:
    """One ``list v: colors`` line for each vertex 1..n, in any order."""
    lists: dict[int, frozenset] = {}
    while not reader.at_end() and reader.peek()[1].startswith("list "):
        lineno, line = reader.next("list line")
        vtxt, colon, ctxt = line[len("list ") :].partition(":")
        vs = _ints(vtxt, lineno)
        if not colon or len(vs) != 1:
            raise ParseError("list line needs 'list v: colors'", lineno)
        v = vs[0]
        if not 1 <= v <= n:
            raise ParseError(f"list vertex {v} out of range", lineno)
        if v in lists:
            raise ParseError(f"duplicate list for vertex {v}", lineno)
        colors = _ints(ctxt, lineno)
        if any(not 1 <= c <= q for c in colors):
            raise ParseError(f"list color out of range 1..{q}", lineno)
        lists[v] = frozenset(colors)
    missing = [v for v in range(1, n + 1) if v not in lists]
    if missing:
        raise ParseError(f"missing list line for vertex {missing[0]}")
    return ListAssignment(q, tuple(lists[v] for v in range(1, n + 1)))


def _read_constrained(
    text: str, relation_loader, budget, with_lists: bool
) -> RccInstance:
    """A graph, its rel block, with ``with_lists`` a list line per vertex, and
    the constraint lines.  ``budget`` is the tuple budget of the graph header
    and of the relation, as in parse_relation."""
    reader = _Reader(text)
    graph = _read_graph(reader, budget)
    relation, shape = _read_relation_block(reader, relation_loader, budget)
    lists = _read_lists(reader, graph.n, relation.q) if with_lists else None
    constraints = reader.rest("constraint")
    return reader.build(RccInstance, graph, relation, constraints, shape, lists)


def parse_rcc(
    text: str, relation_loader=None, budget: int | None = None
) -> RccInstance:
    return _read_constrained(text, relation_loader, budget, with_lists=False)


def parse_rclc(
    text: str, relation_loader=None, budget: int | None = None
) -> RccInstance:
    """As parse_rcc, with a color list for every vertex."""
    return _read_constrained(text, relation_loader, budget, with_lists=True)


def _read_colors(reader: _Reader) -> int:
    lineno, line = reader.next("colors line")
    return _kv_line(line, lineno, "colors", ("q",))["q"]


def _read_block(reader: _Reader) -> GurfcBlock:
    """The next block, its tuple lines read as the constructor consumes them."""
    lineno, line = reader.next("block header")
    head = _kv_line(line, lineno, "block", ("d", "l", "count"))
    d, l = head["d"], head["l"]

    def tuples():
        for _ in range(head["count"]):
            lineno, line = reader.next("tuple line")
            vals = _ints(line, lineno)
            if len(vals) != d * l:
                message = f"tuple needs {d * l} vertex ids, got {len(vals)}"
                raise ParseError(message, lineno)
            yield [vals[j * d : (j + 1) * d] for j in range(l)]

    return GurfcBlock(d, l, tuples())


def _read_rainbow_free(text: str, budget, one_block: bool) -> GurfcInstance:
    """A graph, a colors line and its blocks; with ``one_block`` a second
    block is refused at its header, before it is read.  ``budget`` is the
    tuple budget of the graph header."""
    reader = _Reader(text)
    graph = _read_graph(reader, budget)
    q = _read_colors(reader)
    if reader.at_end() and not one_block:
        raise ParseError("gurfc instance needs at least one block")

    def blocks():
        yield _read_block(reader)
        while not reader.at_end():
            if one_block and reader.peek()[1].split()[0] == "block":
                message = "urfc instance must have exactly one block"
                raise ParseError(message, reader.peek()[0])
            yield _read_block(reader)

    return reader.build(GurfcInstance, graph, q, blocks())


def parse_urfc(text: str, budget: int | None = None) -> GurfcInstance:
    return _read_rainbow_free(text, budget, one_block=True)


def parse_gurfc(text: str, budget: int | None = None) -> GurfcInstance:
    return _read_rainbow_free(text, budget, one_block=False)


def parse_cliquekv(text: str, budget: int | None = None) -> CliqueKvInstance:
    reader = _Reader(text)
    graph = _read_graph(reader, budget)
    lineno, line = reader.next("modulator header")
    k = _kv_line(line, lineno, "modulator", ("k",))["k"]

    def modulator():
        found = 0
        while found < k:
            lineno, line = reader.next("modulator vertices")
            ids = _ints(line, lineno)
            found += len(ids)
            if found > k:
                raise ParseError(f"expected exactly {k} modulator vertices", lineno)
            yield from ids
        # before the clique check, which names no line
        reader.expect_end()

    return reader.build(CliqueKvInstance, graph, modulator())


def parse_hypergraph(text: str) -> Hypergraph:
    reader = _Reader(text)
    lineno, line = reader.next("hgraph header")
    head = _kv_line(line, lineno, "hgraph", ("n", "m"))

    def edges():
        for _ in range(head["m"]):
            lineno, line = reader.next("hyperedge line")
            parts = line.split()
            if parts[0] != "he":
                raise ParseError(f"expected 'he s v1 ... vs', got {line!r}", lineno)
            vals = _ints(" ".join(parts[1:]), lineno)
            if not vals or vals[0] != len(vals) - 1:
                raise ParseError("hyperedge size does not match vertex count", lineno)
            yield vals[1:]

    h = reader.build(Hypergraph, head["n"], edges())
    reader.expect_end()
    return h


def parse_cnf(text: str) -> CnfFormula:
    """DIMACS cnf: a 'p cnf n m' header, then clauses as 0-terminated literal
    runs, which may span lines; a clause's line is the line that ends it."""
    reader = _DimacsReader(text)
    lineno, line = reader.next("'p cnf' header")
    parts = line.split()
    if len(parts) != 4 or parts[:2] != ["p", "cnf"]:
        raise ParseError(f"bad header {line!r}", lineno)
    try:
        n, m = int(parts[2]), int(parts[3])
    except ValueError:
        raise ParseError(f"bad header {line!r}", lineno) from None
    if m < 0:
        raise ParseError(f"clause count must be nonnegative, got {m}", lineno)

    def clauses():
        found, current = 0, []
        for lits in reader.rest("clause"):
            for lit in lits:
                if lit:
                    current.append(lit)
                    continue
                found += 1
                yield current
                current = []
        if current:
            raise ParseError("unterminated clause at end of input")
        if found != m:
            raise ParseError(f"header declares {m} clauses, found {found}")

    return reader.build(CnfFormula, n, clauses())


PARSERS = {
    "graph": parse_graph,
    "relation": parse_relation,
    "rcc": parse_rcc,
    "rclc": parse_rclc,
    "urfc": parse_urfc,
    "gurfc": parse_gurfc,
    "cliquekv": parse_cliquekv,
    "hypergraph": parse_hypergraph,
    "cnf": parse_cnf,
}


def parse(kind: str, text: str, **kwargs):
    if kind not in PARSERS:
        raise ValueError(f"unknown instance kind {kind!r}")
    return PARSERS[kind](text, **kwargs)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _graph_lines(graph: Graph) -> list[str]:
    lines = [f"graph n={graph.n} m={graph.m}"]
    lines.extend(f"e {u} {v}" for u, v in graph.edges)
    return lines


def _tuple_lines(relation: Relation) -> list[str]:
    """The member lines, in order, joined into one string; no string for an
    empty relation.  They are written from the table's digit rows at once:
    each value's decimal digits right-aligned in a fixed width, with NUL
    bytes padding, then a space or a newline; dropping the NULs leaves the
    text."""
    rows = relation.rows()
    if not len(rows):
        return []
    width = len(str(relation.q))
    cells = np.zeros(rows.shape + (width + 1,), dtype=np.uint8)
    for k in range(width):
        place = 10 ** (width - 1 - k)
        cells[:, :, k] = np.where(rows >= place, rows // place % 10 + 48, 0)
    cells[:, :, width] = ord(" ")
    cells[:, -1, width] = ord("\n")
    cells[-1, -1, width] = 0  # serialize ends the last line
    return [cells[cells != 0].tobytes().decode()]


def _relation_lines(relation: Relation, shape: UrfcShape | None) -> list[str]:
    if shape is not None:
        return [f"rel nur d={shape.d} l={shape.l} q={shape.q}"]
    lines = [f"rel q={relation.q} r={relation.r} count={len(relation)}"]
    return lines + _tuple_lines(relation)


def serialize(obj) -> str:
    """Canonical text form of any instance type; inverse of parse."""
    if isinstance(obj, Graph):
        lines = _graph_lines(obj)
    elif isinstance(obj, Relation):
        lines = [f"relation q={obj.q} r={obj.r}"] + _tuple_lines(obj)
    elif isinstance(obj, RccInstance):
        lines = _graph_lines(obj.graph)
        lines.extend(_relation_lines(obj.relation, obj.nur_shape))
        if obj.lists is not None:
            for v, s in enumerate(obj.lists.lists, start=1):
                colors = " ".join(map(str, sorted(s)))
                lines.append(f"list {v}:{' ' + colors if colors else ''}")
        lines.extend(" ".join(map(str, t)) for t in obj.constraints)
    elif isinstance(obj, GurfcInstance):
        lines = _graph_lines(obj.graph)
        lines.append(f"colors q={obj.q}")
        for b in obj.blocks:
            lines.append(f"block d={b.d} l={b.l} count={len(b.tuples)}")
            lines.extend(" ".join(str(v) for s in tp for v in s) for tp in b.tuples)
    elif isinstance(obj, CliqueKvInstance):
        lines = _graph_lines(obj.graph)
        lines.append(f"modulator k={obj.k}")
        if obj.modulator:
            lines.append(" ".join(map(str, obj.modulator)))
    elif isinstance(obj, Hypergraph):
        lines = [f"hgraph n={obj.n} m={obj.m}"]
        lines.extend(f"he {len(e)} " + " ".join(map(str, e)) for e in obj.edges)
    elif isinstance(obj, CnfFormula):
        lines = [f"p cnf {obj.n} {len(obj.clauses)}"]
        lines.extend(" ".join(map(str, cl)) + " 0" for cl in obj.clauses)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return "\n".join(lines) + "\n"
