"""Tests of the benchmark itself:  python3 -m pytest bench -q"""

import shutil
import subprocess
import sys

import run

run.load_program()

import spans  # noqa: E402
import workloads  # noqa: E402
from ccker import polykernel  # noqa: E402

# Cheap items of input family 0 (seed 0), one per kind.
PICKS = {
    # (3,2,3) n=6, (2,3,3) n=5, (3,2,3) n=7, (2,3,3) n=7
    "kernel-basis": [2, 5, 0, 10],
    # (1,2,3) n=9, (1,2,3) n=10, (2,2,3) n=9
    "certify-dense": [0, 1, 3],
    # sat-rclc and rclc-rcc on nur(1,3,5), nae-urfc both variants,
    # urfc-hypergraph, kernelize rcc on nur(1,3,2) with half and with all
    # of the tuples, kernelize cliquekv
    "cli-mixed": [20, 21, 5, 6, 1, 16, 19, 0],
}

# Counters and span calls of the traced picks above, recorded at the
# benchmark's first commit.  They are exact: a change that moves one changed
# the work done.
PINNED = {
    "kernel-basis": (
        {"instances.bytes_serialized": 2418, "oracles.colorings_enumerated": 10692,
         "oracles.solutions": 48, "polykernel.capture_monomials": 440,
         "polykernel.rows_in": 177, "polykernel.rows_kept": 176},
        {"instances.serialize": 4, "oracles.solve_urfc": 8,
         "polykernel.build_capture": 4, "polykernel.dispatch": 4,
         "polykernel.kernelize_poly": 4},
    ),
    "certify-dense": (
        {"instances.bytes_serialized": 2057, "oracles.colorings_enumerated": 196830,
         "oracles.solutions": 0, "polykernel.capture_monomials": 20,
         "polykernel.rows_in": 400, "polykernel.rows_kept": 204},
        {"instances.serialize": 3, "oracles.solve_urfc": 6,
         "polykernel.build_capture": 1, "polykernel.dispatch": 3,
         "polykernel.kernelize_poly": 1},
    ),
    "cli-mixed": (
        {"cli.exit_nonzero": 0, "instances.bytes_parsed": 20424,
         "instances.bytes_serialized": 7169, "oracles.colorings_enumerated": 131153,
         "oracles.solutions": 4, "polykernel.capture_monomials": 6,
         "polykernel.pruned": 343, "polykernel.rows_in": 0, "polykernel.rows_kept": 0,
         "reductions.output_vertices": 162, "relations.tuples_materialized": 156},
        {"cli.main": 16, "instances.parse": 25, "instances.serialize": 8,
         "oracles.cliquekv_colorable": 2, "oracles.dfs": 8, "oracles.solve_cnf": 3,
         "oracles.solve_urfc": 3, "polykernel.build_capture": 1,
         "polykernel.dispatch": 2, "polykernel.kernelize_poly": 1,
         "polykernel.kernelize_product_pruning": 2, "reductions": 8,
         "relations.find_or_witness": 1, "relations.make_nur": 7},
    ),
}


def traced_picks(workload, workdir):
    workdir.mkdir()
    items = workloads.WORKLOADS[workload](0, workdir)
    golden = run.load_golden(workload, 0)
    with spans.Tracer() as trace:
        _, latencies, failures = run.run_pass(
            [items[i] for i in PICKS[workload]], [golden[i] for i in PICKS[workload]]
        )
    assert len(latencies) == len(PICKS[workload])
    return failures, dict(trace.counts), dict(trace.calls)


def test_tracer_restores_every_call_site():
    sites = [(m, a) for _, group, _, _ in spans.LAYERS for m, a in group]
    before = [getattr(m, a) for m, a in sites]
    with spans.Tracer():
        assert polykernel.kernelize_poly is not before[0]
        assert all(getattr(m, a) is not fn for (m, a), fn in zip(sites, before))
    assert all(getattr(m, a) is fn for (m, a), fn in zip(sites, before))


def test_nested_spans_split_self_time(tmp_path):
    items = workloads.WORKLOADS["cli-mixed"](0, tmp_path)
    with spans.Tracer() as trace:
        items[20].run()
    # cli.main encloses parse, reductions and oracles; none is negative
    assert trace.calls["cli.main"] == 2
    assert trace.calls["instances.parse"] >= 2
    assert all(value >= 0 for value in trace.self_s.values())


def test_counters_repeat_and_match_pins(tmp_path):
    for workload in PICKS:
        first = traced_picks(workload, tmp_path / f"{workload}-a")
        second = traced_picks(workload, tmp_path / f"{workload}-b")
        failures, counts, calls = first
        assert failures == [], failures
        assert first == second
        assert (counts, calls) == PINNED[workload], (workload, counts, calls)


def test_probe_reports_the_cli_contract(tmp_path):
    probe = workloads.or_arity_probe(tmp_path)
    assert probe["kernelize_exit"] in (0, 2)
    if probe["kernelize_exit"] == 0:
        assert probe["verify_exit"] in (0, 1)
        assert probe["defect"] == (probe["verify_exit"] == 1)


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kernel-basis",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
