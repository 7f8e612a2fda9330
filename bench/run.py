"""Certification benchmark for ccker.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs one workload as a closed loop with a single caller: each
item starts when the previous one has been certified.  An item is a
kernelization checked by the oracle for equal solution sets, or a CLI
``reduce``/``kernelize`` call followed by ``verify``.  Every output is also
checked against its golden sha256 digest (``golden/<workload>.json``), so a
new engine must reproduce the kernels byte for byte.

Workloads (see ``workloads.py``), at least 100 items each:

* ``kernel-basis``: urfc shapes (2,3,3) n=5-7 and (3,2,3) n=6-7 over a coarse
  density sweep; GF(p) elimination in ``kernelize_poly`` dominates.
* ``certify-dense``: dense urfc constraint sets on sparse graphs, (1,2,3)
  n=9-11, (2,2,3) n=9 and 11, (3,2,3) n=8; the q^n enumeration of
  ``solve_urfc`` dominates and the basis keeps a minority of the rows.
* ``cli-mixed``: ``ccker.cli.main`` in-process over files in a scratch
  directory under the checkout: the SAT chain sat-rclc -> rclc-rcc with nur
  relations, nae-urfc, urfc-hypergraph, and rcc / cliquekv kernels.  It
  also runs the product-pruning defect probe once, untimed.

The run repeats passes over the workload's fixed item list while another
pass fits in ``--seconds`` (at least one), and takes each item's latency as
its median over the passes.  With ``--trace 0`` the last line reports the
end-to-end metrics: ``setup_s`` (the median of five imports of the program,
one in this process and four in fresh interpreters, plus the median of five
input set-ups), ``wall_s`` (the time of one pass: the sum of the item
latencies), ``item_p50_s`` and ``item_p90_s`` (over the items), and
``peak_rss_mb``.
With ``--trace 1`` untraced and traced passes alternate and the last line
reports per-layer self times and work counters of the traced set-up plus
one traced pass (see ``spans.py``); ``trace.overhead_s`` is the traced minus
the untraced median pass time and ``trace.unattributed_s`` the traced pass
time no layer span covers.

Lines before the last one give the machine fingerprint, the failure share,
the defect probe and, when tracing, the span table.  BLAS is limited to the
CPUs this process may use, unless the environment sets a lower count.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def load_program() -> None:
    """Put the checkout's ``src`` first on the import path and import ccker.

    Raises SystemExit(2) when the checkout has no program to measure.
    """
    src = ROOT / "src"
    if not (src / "ccker" / "__init__.py").is_file():
        print(f"error: no ccker sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 0 < int(value) <= nproc():
            os.environ[var] = str(nproc())
    sys.path.insert(0, str(src))
    import ccker

    if Path(ccker.__file__).resolve().parent != (src / "ccker").resolve():
        print(f"error: imported ccker from {ccker.__file__}", file=sys.stderr)
        raise SystemExit(2)


def import_times(repeats: int) -> list[float]:
    """Times of importing ccker and the workloads in fresh interpreters."""
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(BENCH)!r}]\n"
        "import workloads\n"
        "print(time.perf_counter() - t0)\n"
    )
    return [
        float(subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, timeout=60).stdout)
        for _ in range(repeats)
    ]


def digest(data: bytes) -> str:
    """The golden record keeps the first 64 bits of each output's sha256."""
    return hashlib.sha256(data).hexdigest()[:16]


def load_golden(workload: str, family: int) -> list[str]:
    path = BENCH / "golden" / f"{workload}.json"
    try:
        record = json.loads(path.read_text())
        return record["families"][family]
    except (OSError, ValueError, KeyError, IndexError) as exc:
        print(f"error: no golden digests for {workload} family {family}: {exc}",
              file=sys.stderr)
        raise SystemExit(2)


def run_pass(items, golden):
    """Certify every item once; returns (wall seconds, latencies, failures)."""
    import workloads

    latencies, failures = [], []
    start = time.perf_counter()
    for i, item in enumerate(items):
        t0 = time.perf_counter()
        try:
            got = digest(item.run())
            if got != golden[i]:
                failures.append(f"{item.label}: digest {got} != golden {golden[i]}")
        except workloads.ItemFailure as exc:
            failures.append(f"{item.label}: {exc}")
        except Exception:
            failures.append(f"{item.label}: {traceback.format_exc(limit=3)}")
        latencies.append(time.perf_counter() - t0)
    return time.perf_counter() - start, latencies, failures


def quantile(values, q: float) -> float:
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop: how fast the machine is now."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def fingerprint() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        blas = {}
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "calibration_s": calibration_s(),
    }


def untraced_run(setup, family, workdir, golden, seconds, import_s):
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        items = setup(family, workdir)
        setups.append(time.perf_counter() - t0)
    walls, latencies, failures = [], [], []
    start = time.perf_counter()
    while True:
        wall, lat, fail = run_pass(items, golden)
        walls.append(wall)
        latencies.append(lat)
        failures += fail
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    # each item's median over the passes: a stall during one pass moves no
    # item's latency, and wall_s stays the time of one pass
    item_s = [statistics.median(samples) for samples in zip(*latencies)]
    print(f"passes wall_s={walls}")
    imports = [import_s] + import_times(SETUP_REPEATS - 1)
    metrics = {
        "setup_s": (statistics.median(imports) + statistics.median(setups), "s"),
        "wall_s": (sum(item_s), "s"),
        "item_p50_s": (statistics.median(item_s), "s"),
        "item_p90_s": (quantile(item_s, 0.9), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, len(items) * len(walls), failures, True


def traced_run(setup, family, workdir, golden, seconds):
    import spans

    with spans.Tracer() as setup_trace:
        items = setup(family, workdir)
    plain, traced, traces, attempted, failures = [], [], [], 0, []
    start = time.perf_counter()
    while True:
        wall, lat, fail = run_pass(items, golden)
        plain.append(wall)
        with spans.Tracer() as trace:
            wall_t, lat_t, fail_t = run_pass(items, golden)
        traced.append(wall_t)
        traces.append(trace)
        attempted += len(lat) + len(lat_t)
        failures += fail + fail_t
        if (time.perf_counter() - start + statistics.median(plain)
                + statistics.median(traced) > seconds):
            break

    first = traces[0]
    # counters must repeat exactly from one traced pass to the next
    repeatable = all(t.counts == first.counts and t.calls == first.calls for t in traces)
    counts = setup_trace.counts + first.counts
    calls = setup_trace.calls + first.calls
    self_s = {
        layer: setup_trace.self_s[layer] + statistics.fmean(t.self_s[layer] for t in traces)
        for layer in spans.LAYER_NAMES
    }
    unattributed = statistics.fmean(
        wall - sum(t.self_s.values()) for wall, t in zip(traced, traces)
    )
    metrics = {f"{layer}.self_s": (self_s[layer], "s") for layer in spans.LAYER_NAMES}
    for name in spans.COUNTERS:
        metrics[name] = (counts[name], spans.COUNTERS[name])
    metrics["polykernel.kept_ratio"] = (
        counts["polykernel.rows_kept"] / max(1, counts["polykernel.rows_in"]), "ratio"
    )
    metrics["oracles.dfs.calls"] = (calls["oracles.dfs"], "count")
    metrics["relations.make_nur.calls"] = (calls["relations.make_nur"], "count")
    metrics["cli.calls"] = (calls["cli.main"], "count")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    metrics["trace.unattributed_s"] = (unattributed, "s")

    wall = statistics.median(traced)
    print(f"spans: traced pass {wall:.3f} s, untraced {statistics.median(plain):.3f} s")
    for layer in sorted(spans.LAYER_NAMES, key=lambda name: -self_s[name]):
        print(f"  {layer:40s} self_s={self_s[layer]:10.4f}  calls={calls[layer]}")
    print(f"  {'trace.unattributed_s':40s} {unattributed:10.4f}")
    print(f"  {'trace.overhead_s':40s} {metrics['trace.overhead_s'][0]:10.4f}")
    if not repeatable:
        print("error: traced passes gave different counters", file=sys.stderr)
    return metrics, attempted, failures, repeatable


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    import_s = time.perf_counter() - _START
    family = args.seed % workloads.FAMILIES
    golden = load_golden(args.workload, family)
    setup = workloads.WORKLOADS[args.workload]

    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            metrics, attempted, failures, ok = traced_run(
                setup, family, workdir, golden, args.seconds
            )
        else:
            metrics, attempted, failures, ok = untraced_run(
                setup, family, workdir, golden, args.seconds, import_s
            )
        probe = workloads.or_arity_probe(workdir) if args.workload == "cli-mixed" else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    print("fingerprint " + json.dumps(fingerprint(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} input family {family}")
    print(f"failed_frac={len(failures) / attempted} ratio ({len(failures)} of {attempted})")
    for line in failures[:10]:
        print(f"failure: {line}", file=sys.stderr)
    if probe is not None:
        verdict = "DEFECT: exit 0 with an unsound kernel" if probe["defect"] else "sound"
        print(f"probe or_arity_precondition kernelize_exit={probe['kernelize_exit']} "
              f"verify_exit={probe['verify_exit']} -> {verdict}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name}={value} {unit}")
    print(json.dumps({
        "correct": ok and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
