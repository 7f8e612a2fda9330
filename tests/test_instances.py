import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    NotCliqueError,
    ParseError,
    RccInstance,
    canonical_subset,
    canonicalize_urfc_tuple,
    parse,
    parse_gurfc,
    parse_rcc,
    parse_relation,
    parse_urfc,
    serialize,
    validate_clique_kv,
)
from ccker.relations import Relation, make_nur, UrfcShape


class TestGraph:
    def test_canonical_edges(self):
        g = Graph(3, ((3, 1), (1, 2)))
        assert g.edges == ((1, 2), (1, 3))
        assert g.neighbors(1) == frozenset({2, 3})
        assert g.has_edge(3, 1) and not g.has_edge(2, 3)

    def test_rejects_loop_and_duplicate(self):
        with pytest.raises(ValueError):
            Graph(2, ((1, 1),))
        with pytest.raises(ValueError):
            Graph(2, ((1, 2), (2, 1)))
        with pytest.raises(ValueError):
            Graph(2, ((1, 3),))

    def test_induced(self):
        g = Graph(5, ((1, 3), (3, 5), (2, 4)))
        sub, mapping = g.induced([5, 3, 1])
        assert mapping == {1: 1, 3: 2, 5: 3}
        assert sub.edges == ((1, 2), (2, 3))


class TestCanonicalization:
    def test_sorts_within_and_across(self):
        assert canonicalize_urfc_tuple([(3, 1), (2, 4)], 2) == ((1, 3), (2, 4))
        assert canonicalize_urfc_tuple([(2, 4), (1, 3)], 2) == ((1, 3), (2, 4))

    def test_repeated_sets_allowed(self):
        assert canonicalize_urfc_tuple([(1, 3), (1, 3)], 2) == ((1, 3), (1, 3))

    def test_repeated_vertex_in_set_rejected(self):
        with pytest.raises(ValueError):
            canonicalize_urfc_tuple([(1, 1)], 2)
        with pytest.raises(ValueError):
            canonicalize_urfc_tuple([(1, 2, 3)], 2)

    def test_canonical_subset_skips_the_checks(self):
        inst = generate.gen_urfc(6, 2, 2, 3, 0.4, 0.3, 1)
        (block,) = inst.blocks
        kept = GurfcBlock(2, 2, block.tuples[::2])
        with mock.patch("ccker.instances._canonical_urfc_tuples") as canon:
            sub = canonical_subset(inst, blocks=iter([kept]))
        canon.assert_not_called()
        assert sub == GurfcInstance(inst.graph, inst.q, (kept,))
        assert sub.blocks == (kept,) and block != kept


class TestValidateCliqueKv:
    def test_triangle_empty_modulator(self):
        g = Graph(3, ((1, 2), (2, 3), (1, 3)))
        assert validate_clique_kv(g, ()) == ((1, 2, 3),)

    def test_path_fails(self):
        g = Graph(3, ((1, 2), (2, 3)))
        with pytest.raises(NotCliqueError, match="missing edge"):
            validate_clique_kv(g, ())

    def test_path_minus_middle(self):
        g = Graph(3, ((1, 2), (2, 3)))
        assert validate_clique_kv(g, (2,)) == ((1,), (3,))

    def test_instance_properties(self):
        g = Graph(4, ((1, 2), (3, 4), (1, 3)))
        inst = CliqueKvInstance(g, (1,))
        assert inst.k == 1
        assert inst.cliques == ((2,), (3, 4))
        assert inst.max_clique_size == 2


class TestCnf:
    def test_dimacs_example(self):
        f = parse("cnf", "p cnf 3 1\n1 -2 3 0\n")
        assert f == CnfFormula(3, ((1, -2, 3),))

    def test_comments_and_multiline_clause(self):
        f = parse("cnf", "c header\np cnf 2 1\n1\n-2 0\n")
        assert f.clauses == ((1, -2),)

    def test_repeated_variable_rejected(self):
        with pytest.raises(ValueError):
            CnfFormula(2, ((1, -1),))

    def test_width(self):
        f = CnfFormula(3, ((1, 2), (2, -3)))
        assert f.width == 2
        f.validate_width(2)
        with pytest.raises(ValueError):
            f.validate_width(3)
        assert CnfFormula(3, ()).width is None

    def test_clause_count_mismatch(self):
        with pytest.raises(ParseError):
            parse("cnf", "p cnf 2 2\n1 0\n")


class TestParseErrors:
    def test_duplicate_edge_line(self):
        with pytest.raises(ParseError, match="duplicate edge"):
            parse("graph", "graph n=3 m=2\ne 1 2\ne 2 1\n")

    def test_loop_edge(self):
        with pytest.raises(ParseError, match="loop"):
            parse("graph", "graph n=3 m=1\ne 2 2\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse("graph", "graph n=2 m=1\ne 1 5\n")

    def test_urfc_repeated_vertex_in_set(self):
        text = "graph n=4 m=0\ncolors q=3\nblock d=2 l=1 count=1\n2 2\n"
        with pytest.raises(ParseError, match="distinct"):
            parse("urfc", text)

    def test_missing_list_line(self):
        text = "graph n=2 m=0\nrel nur d=1 l=2 q=3\nlist 1: 1\n"
        with pytest.raises(ParseError, match="missing list"):
            parse("rclc", text)

    def test_rcc_and_rclc_texts_kept_apart(self):
        rcc = "graph n=2 m=0\nrel nur d=1 l=2 q=3\n1 2\n"
        rclc = "graph n=2 m=0\nrel nur d=1 l=2 q=3\nlist 1: 1\nlist 2: 2\n1 2\n"
        with pytest.raises(ParseError) as err:
            parse("rclc", rcc)
        assert str(err.value) == "missing list line for vertex 1"
        with pytest.raises(ParseError) as err:
            parse("rcc", rclc)
        assert str(err.value) == "line 3: expected integers, got 'list 1: 1'"

    def test_lists_checked_against_the_instance(self):
        graph, rel = Graph(2, ()), make_nur(1, 2, 3)
        lists = ListAssignment(3, (frozenset({1}), frozenset({2})))
        assert RccInstance(graph, rel, (), lists=lists).lists == lists
        with pytest.raises(ValueError, match="list q does not match"):
            RccInstance(graph, rel, (), lists=ListAssignment(4, lists.lists))
        with pytest.raises(ValueError, match="does not cover every vertex"):
            RccInstance(graph, rel, (), lists=ListAssignment(3, lists.lists[:1]))

    def test_positions_reported(self):
        with pytest.raises(ParseError, match="line 2"):
            parse("graph", "graph n=2 m=1\nbogus\n")

    @pytest.mark.parametrize(
        "line,message",
        [
            ("1 2 3", "tuple needs 2 entries, got 3"),
            ("1 4", "tuple entry out of range 1..3"),
            ("1 x", "expected integers, got '1 x'"),
        ],
    )
    def test_relation_tuple_errors(self, line, message):
        # the same checks and line numbers in a relation file and a rel block
        with pytest.raises(ParseError) as err:
            parse_relation(f"relation q=3 r=2\n1 2\n{line}\n")
        assert (str(err.value), err.value.line) == (f"line 3: {message}", 3)
        with pytest.raises(ParseError) as err:
            parse_rcc(f"graph n=2 m=0\nrel q=3 r=2 count=2\n1 2\n{line}\n1 2\n")
        assert (str(err.value), err.value.line) == (f"line 4: {message}", 4)

    def test_any_spacing_reads_like_single_spaces(self):
        # lines that are not single-space separated take the line-by-line path
        text = "relation q=12 r=2\n1  2\n10\t11\n+3 04\n12 1\n"
        assert parse_relation(text)[0] == Relation(
            12, 2, ((1, 2), (10, 11), (3, 4), (12, 1))
        )
        assert parse_relation("relation q=12 r=2\n10 11\n3 4\n")[0] == Relation(
            12, 2, ((3, 4), (10, 11))
        )

    def test_line_breaks_must_fall_after_every_tuple(self):
        # the right number of values, but one of them on the wrong line
        with pytest.raises(ParseError, match="tuple needs 2 entries, got 3") as err:
            parse_relation("relation q=3 r=2\n1 2\n1 2 3\n1\n")
        assert err.value.line == 3

    @pytest.mark.parametrize("bad", [3, 4100, 9000])
    def test_long_relation_names_its_first_bad_line(self, bad):
        lines = ["1 2"] * 9000
        lines[bad - 1] = "1 4"
        lines[-1] = "1 5"
        with pytest.raises(ParseError, match="out of range") as err:
            parse_relation("relation q=3 r=2\n" + "\n".join(lines) + "\n")
        assert err.value.line == bad + 1

    def test_rel_block_short_of_count(self):
        with pytest.raises(ParseError, match="end of input, expected relation tuple"):
            parse_rcc("graph n=2 m=0\nrel q=3 r=2 count=2\n1 2\n")

    def test_urfc_without_a_block(self):
        with pytest.raises(ParseError) as err:
            parse_urfc("graph n=2 m=0\ncolors q=2\n# no block\n")
        assert str(err.value) == "unexpected end of input, expected block header"
        assert err.value.line is None

    @pytest.mark.parametrize(
        "second",
        ["block d=1 l=1 count=1\n2\n", "block d=9 l=1 count=1\n2\n", "block d=x\n"],
    )
    def test_urfc_with_a_second_block(self, second):
        # refused at the second block's header, whether or not it is well formed
        text = "graph n=2 m=0\ncolors q=2\nblock d=1 l=2 count=1\n1 2\n\n" + second
        with pytest.raises(ParseError) as err:
            parse_urfc(text)
        assert str(err.value) == "line 6: urfc instance must have exactly one block"
        assert err.value.line == 6

    def test_urfc_with_a_stray_tuple_line(self):
        # a line that is no block header gets gurfc's message, not urfc's
        text = "graph n=2 m=0\ncolors q=2\nblock d=1 l=2 count=1\n1 2\n2 1\n"
        for parser in (parse_urfc, parse_gurfc):
            with pytest.raises(ParseError) as err:
                parser(text)
            assert str(err.value) == "line 5: expected 'block' line, got '2 1'"


@st.composite
def one_block_texts(draw):
    """Text of one block, its sets, tuples and edges in any order and with
    repeated tuples, as a parser meets it before canonicalization."""
    n = draw(st.integers(0, 6))
    q = draw(st.integers(1, 4))
    d = draw(st.integers(1, q))
    l = draw(st.integers(1, 3))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [e[::-1] if draw(st.booleans()) else e for e in edges]
    tuples = []
    if n >= d:
        vertex_set = st.lists(st.integers(1, n), min_size=d, max_size=d, unique=True)
        tuple_ = st.lists(vertex_set, min_size=l, max_size=l)
        tuples = draw(st.lists(tuple_, max_size=8))
    lines = [f"graph n={n} m={len(edges)}"]
    lines += [f"e {u} {v}" for u, v in edges]
    lines += [f"colors q={q}", f"block d={d} l={l} count={len(tuples)}"]
    lines += [" ".join(str(v) for s in tp for v in s) for tp in tuples]
    return "\n".join(lines) + "\n"


class TestOneBlockFormat:
    @given(one_block_texts())
    @settings(max_examples=100, deadline=None)
    def test_urfc_and_gurfc_read_alike(self, text):
        urfc, gurfc = parse_urfc(text), parse_gurfc(text)
        assert urfc == gurfc and len(urfc.blocks) == 1
        assert serialize(urfc) == serialize(gurfc)
        assert parse_urfc(serialize(urfc)) == urfc


class TestRoundTrips:
    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_urfc(self, seed):
        inst = generate.gen_urfc(6, 2, 2, 3, 0.4, 0.3, seed)
        assert parse("urfc", serialize(inst)) == inst

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_gurfc(self, seed):
        inst = generate.gen_gurfc(5, 3, [(2, 2), (1, 2)], 0.4, 0.3, seed)
        assert parse("gurfc", serialize(inst)) == inst

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_rcc_with_shape(self, seed):
        rel = make_nur(1, 2, 3)
        inst = generate.gen_rcc(5, rel, 0.3, 0.3, seed, nur_shape=UrfcShape(1, 2, 3))
        assert parse("rcc", serialize(inst)) == inst

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_rclc_explicit_relation(self, seed):
        rel = make_nur(2, 1, 2)
        inst = generate.gen_rclc(4, rel, 0.3, 0.3, seed)
        assert parse("rclc", serialize(inst)) == inst

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_cnf(self, seed):
        f = generate.gen_cnf(5, 3, 4, seed)
        assert parse("cnf", serialize(f)) == f

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_cliquekv(self, seed):
        inst = generate.gen_cliquekv(4, 3, 2, seed)
        assert parse("cliquekv", serialize(inst)) == inst

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_hypergraph(self, seed):
        h = generate.gen_hypergraph(6, 3, 0.3, seed)
        assert parse("hypergraph", serialize(h)) == h

    def test_relation_explicit(self):
        rel = make_nur(2, 1, 3)
        parsed, shape = parse("relation", serialize(rel))
        assert parsed == rel and shape is None

    def test_relation_shorthand(self):
        parsed, shape = parse("relation", "nur d=2 l=2 q=3\n")
        assert parsed == make_nur(2, 2, 3)
        assert shape == UrfcShape(2, 2, 3)

    def test_empty_graph(self):
        g = Graph(0, ())
        assert parse("graph", serialize(g)) == g

    def test_hypergraph_mixed_sizes(self):
        h = Hypergraph(4, ((1, 2), (1, 2, 3)))
        assert parse("hypergraph", serialize(h)) == h
        assert not h.is_uniform(2)


class TestMalformedInput:
    @pytest.mark.parametrize(
        "kind,text,line,message",
        [
            ("rclc", "graph n=1 m=0\nrel nur d=1 l=1 q=2\nlist : 1\n", 3, "list v:"),
            ("rclc", "graph n=2 m=0\nrel nur d=1 l=1 q=2\nlist 1 2: 1\n", 3, "list v:"),
            ("graph", "graph n=2 m=-1\n", 1, "negative integer in 'm=-1'"),
            ("graph", "graph n=-1 m=0\n", 1, "negative integer in 'n=-1'"),
            ("rcc", "graph n=2 m=0\nrel q=3 r=2 count=-1\n", 2, "negative integer"),
            ("rcc", "graph n=2 m=0\nrel q=3 r=0 count=0\n", 2, "arity must be positive"),
            ("rcc", "graph n=2 m=0\nrel nur d=3 l=1 q=2\n", 2, "invalid shape"),
            ("cliquekv", "graph n=2 m=0\nmodulator k=-1\n", 2, "negative integer"),
            ("cnf", "p cnf -1 0\n", 1, "nonnegative"),
            ("cnf", "p cnf 3 -1\n1 0\n", 1, "clause count must be nonnegative"),
        ],
    )
    def test_parse_error_at_line(self, kind, text, line, message):
        with pytest.raises(ParseError, match=message) as err:
            parse(kind, text)
        assert err.value.line == line

    def test_first_error_in_file_order(self):
        text = "graph n=3 m=3\ne 1 2\ne 2 2\ne 1 5\n"
        with pytest.raises(ParseError, match="loop") as err:
            parse("graph", text)
        assert err.value.line == 3

    def test_graph_header_charged_against_budget(self, monkeypatch):
        monkeypatch.setenv("CCKER_BUDGET", "100")
        with pytest.raises(BudgetExceededError, match="graph header vertices"):
            parse("graph", "graph n=1000 m=0\n")
        assert parse("graph", "graph n=100 m=0\n").n == 100
        # an explicit budget overrides the environment
        assert parse("graph", "graph n=1000 m=0\n", budget=1000).n == 1000
        urfc = "graph n=10 m=0\ncolors q=2\nblock d=1 l=1 count=0\n"
        with pytest.raises(BudgetExceededError, match="graph header vertices"):
            parse("urfc", urfc, budget=9)

    def test_relation_header_charged_against_budget(self, monkeypatch):
        monkeypatch.setenv("CCKER_BUDGET", "100")
        with pytest.raises(BudgetExceededError, match="relation header table: 243"):
            parse("rcc", "graph n=2 m=0\nrel q=3 r=5 count=0\n")
        assert parse("rcc", "graph n=2 m=0\nrel q=3 r=4 count=0\n").relation.r == 4
        assert parse_relation("relation q=3 r=5\n", budget=243)[0].r == 5
        # neither 2^(10^5) nor a 10^9-digit code is built before the refusal
        with pytest.raises(BudgetExceededError, match=r"table: 2\^100000 steps"):
            parse_relation("relation q=2 r=100000\n")
        with pytest.raises(BudgetExceededError, match="table: 1000000000 steps"):
            parse_relation("relation q=1 r=1000000000\n")

    def test_relation_file_needs_a_loader(self):
        with pytest.raises(ParseError, match="not available here") as err:
            parse_rcc("graph n=2 m=0\nrel file=r.rel\n1 2\n")
        assert err.value.line == 2


def _samples():
    """Valid instances of every kind, small enough to parse after any edit."""
    return [
        ("graph", lambda s: generate.gen_graph(5, 0.4, s)),
        ("graph", lambda s: Graph(s % 4, ())),
        ("relation", lambda s: make_nur(2, 1, 3)),
        ("rcc", lambda s: generate.gen_rcc(
            5, make_nur(1, 2, 3), 0.3, 0.4, s, nur_shape=UrfcShape(1, 2, 3))),
        ("rcc", lambda s: generate.gen_rcc(4, make_nur(2, 1, 2), 0.3, 0.4, s)),
        ("rcc", lambda s: RccInstance(Graph(2, ()), Relation(3, 2, ()), ())),
        ("rclc", lambda s: generate.gen_rclc(4, make_nur(2, 1, 2), 0.3, 0.3, s)),
        ("urfc", lambda s: generate.gen_urfc(6, 2, 2, 3, 0.4, 0.3, s)),
        ("gurfc", lambda s: generate.gen_gurfc(5, 3, [(2, 2), (1, 2)], 0.4, 0.3, s)),
        ("cliquekv", lambda s: generate.gen_cliquekv(4, 3, 2, s)),
        ("hypergraph", lambda s: generate.gen_hypergraph(6, 3, 0.3, s)),
        ("cnf", lambda s: generate.gen_cnf(5, 3, 4, s)),
    ]


def _mutants(text: str):
    """Every text one edit away: a line dropped, duplicated or swapped with
    the next, or one token, or the value of one key=value field, replaced."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        yield lines[:i] + lines[i + 1 :]
        yield lines[: i + 1] + lines[i:]
        yield lines[:i] + lines[i + 1 : i + 2] + [line] + lines[i + 2 :]
        tokens = line.split()
        for t, token in enumerate(tokens):
            key, eq, _ = token.partition("=")
            for value in ("-1", "0", "x", "99"):
                token = key + eq + value if eq else value
                edited = tokens[:t] + [token] + tokens[t + 1 :]
                yield lines[:i] + [" ".join(edited)] + lines[i + 1 :]


def _id_slots(kind: str, line: str) -> range:
    """Token positions of the vertex ids, colors or literals of a record line."""
    tokens = line.split()
    if tokens[0] in ("e", "he", "list"):
        return range({"e": 1, "he": 2, "list": 2}[tokens[0]], len(tokens))
    if all(tok.lstrip("-").isdigit() for tok in tokens):
        return range(len(tokens) - (kind == "cnf"))  # keep a clause's final 0
    return range(0)


class TestParserRobustness:
    @given(st.sampled_from(_samples()), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_mutants_raise_only_parse_errors(self, sample, seed):
        kind, make = sample
        allowed = (ParseError, BudgetExceededError)
        if kind == "cliquekv":
            allowed += (NotCliqueError,)
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("CCKER_BUDGET", "10000")
            for lines in _mutants(serialize(make(seed))):
                try:
                    parse(kind, "\n".join(lines) + "\n")
                except allowed:
                    pass

    @given(st.sampled_from(_samples()), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_single_record_errors_name_their_line(self, sample, seed):
        kind, make = sample
        lines = serialize(make(seed)).splitlines()
        values = ("99", "-99") if kind == "cnf" else ("0", "-1", "99")
        for i, line in enumerate(lines):
            tokens = line.split()
            for t in _id_slots(kind, line):
                for value in values:
                    edited = tokens[:t] + [value] + tokens[t + 1 :]
                    text = "\n".join(lines[:i] + [" ".join(edited)] + lines[i + 1 :])
                    with pytest.raises(ParseError) as err:
                        parse(kind, text + "\n")
                    assert err.value.line == i + 1, str(err.value)
