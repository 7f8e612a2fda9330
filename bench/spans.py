"""Per-layer spans recorded by wrappers around ccker's public functions.

The program is not modified.  A :class:`Tracer` replaces each function
listed in :data:`LAYERS` at the module attribute its callers look up (for
example ``ccker.cli.parse_urfc``, which the CLI imported by name, or
``ccker.polykernel.kernelize_poly``, which ``kernelize_urfc`` looks up in its
own module) and restores the originals on exit.  Each wrapper records the
span's self time (its duration minus the spans opened inside it) and, where
the layer has one, a deterministic work counter taken from the call's
arguments and result.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from ccker import cli, generate, instances, oracles, polykernel, reductions, relations


def _rows(counts, args, result):
    counts["polykernel.rows_in"] += len(args[0].tuples)
    counts["polykernel.rows_kept"] += len(result.tuples)


def _monomials(counts, args, result):
    counts["polykernel.capture_monomials"] += len(result.poly.terms)


def _pruned(counts, args, result):
    counts["polykernel.pruned"] += len(args[0].constraints) - len(result.constraints)


def _colorings(counts, args, result):
    inst = args[0]
    counts["oracles.colorings_enumerated"] += inst.q**inst.graph.n
    counts["oracles.solutions"] += len(result)


def _solutions(counts, args, result):
    counts["oracles.solutions"] += len(result)


def _tuples(counts, args, result):
    counts["relations.tuples_materialized"] += len(result.tuples)


def _parsed(counts, args, result):
    counts["instances.bytes_parsed"] += len(args[0].encode())


def _serialized(counts, args, result):
    counts["instances.bytes_serialized"] += len(result.encode())


def _vertices(counts, args, result):
    counts["reductions.output_vertices"] += result[1].output_vertices


def _exit(counts, args, result):
    counts["cli.exit_nonzero"] += result != 0


_PARSERS = ("cliquekv", "cnf", "gurfc", "hypergraph", "rcc", "rclc", "relation", "urfc")
_REDUCTIONS = (
    "sat_to_rclc",
    "rclc_to_rcc",
    "nae_to_urfc",
    "urfc_to_hypergraph",
    "extract_clique_constraints",
    "gurfc_to_cliquekv",
    "kernelize_cliquekv",
)

# (layer, call sites, counter, count only when not nested in the same layer).
# kernelize_cliquekv calls two other reductions; counting only the outermost
# span keeps reductions.output_vertices to the vertices the caller received.
LAYERS = (
    ("polykernel.kernelize_poly", ((polykernel, "kernelize_poly"),), _rows, False),
    ("polykernel.build_capture", ((polykernel, "build_capture"),), _monomials, False),
    (
        "polykernel.kernelize_product_pruning",
        ((polykernel, "kernelize_product_pruning"),),
        _pruned,
        False,
    ),
    (
        "polykernel.dispatch",
        (
            (polykernel, "kernelize_urfc"),
            (polykernel, "kernelize_gurfc"),
            (reductions, "kernelize_gurfc"),
        ),
        None,
        False,
    ),
    ("oracles.solve_urfc", ((oracles, "solve_urfc"),), _colorings, False),
    (
        "oracles.dfs",
        (
            (oracles, "solve_rcc"),
            (oracles, "solve_rclc"),
            (oracles, "solve_hypergraph_qcol"),
        ),
        _solutions,
        False,
    ),
    ("oracles.cliquekv_colorable", ((oracles, "cliquekv_colorable"),), None, False),
    ("oracles.solve_cnf", ((oracles, "solve_cnf"),), _solutions, False),
    (
        "relations.make_nur",
        ((instances, "make_nur"), (relations, "make_nur")),
        _tuples,
        False,
    ),
    (
        "relations.find_or_witness",
        ((cli, "find_or_witness"), (relations, "find_or_witness")),
        None,
        False,
    ),
    (
        "instances.parse",
        tuple((cli, f"parse_{kind}") for kind in _PARSERS),
        _parsed,
        False,
    ),
    (
        "instances.serialize",
        ((cli, "serialize"), (instances, "serialize")),
        _serialized,
        False,
    ),
    ("reductions", tuple((reductions, name) for name in _REDUCTIONS), _vertices, True),
    ("cli.main", ((cli, "main"),), _exit, False),
    ("generate", tuple((generate, name) for name in generate.__all__), None, False),
)

LAYER_NAMES = tuple(layer for layer, _, _, _ in LAYERS)

# Work counters and their units; they repeat exactly for a given seed.
COUNTERS = {
    "polykernel.capture_monomials": "count",
    "polykernel.rows_in": "count",
    "polykernel.rows_kept": "count",
    "polykernel.pruned": "count",
    "oracles.colorings_enumerated": "count",
    "oracles.solutions": "count",
    "relations.tuples_materialized": "count",
    "instances.bytes_parsed": "bytes",
    "instances.bytes_serialized": "bytes",
    "reductions.output_vertices": "count",
    "cli.exit_nonzero": "count",
}


class Tracer:
    """Self time, call count and work counters per layer, while installed.

    Use as a context manager; the wrappers are removed on exit even when a
    traced call raises.
    """

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [layer, seconds covered by child spans]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, layer, fn, counter, outermost):
        stack = self._stack

        def traced(*args, **kwargs):
            nested = outermost and any(frame[0] == layer for frame in stack)
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.self_s[layer] += elapsed - frame[1]
                self.calls[layer] += 1
                if stack:
                    stack[-1][1] += elapsed
            if counter is not None and not nested:
                counter(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for layer, sites, counter, outermost in LAYERS:
            for module, attr in sites:
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(layer, fn, counter, outermost))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
        return False
