"""Record the golden output digests of the benchmark's workloads.

    python3 bench/record_golden.py [WORKLOAD ...]

Runs every item of every input family once, certifying it as the benchmark
does, and writes ``bench/golden/<workload>.json``.  Re-record only when a
change is meant to alter the program's output bytes, and say so in the
change.  Refuses to record while any item fails certification.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def record(workload: str) -> dict:
    import workloads

    setup = workloads.WORKLOADS[workload]
    workdir = run.ROOT / ".bench_work" / f"record-{workload}"
    workdir.mkdir(parents=True)
    families = []
    try:
        for family in range(workloads.FAMILIES):
            items = setup(family, workdir)
            digests = []
            for item in items:
                try:
                    digests.append(run.digest(item.run()))
                except workloads.ItemFailure as exc:
                    raise SystemExit(f"{workload} family {family} {item.label}: {exc}")
            families.append(digests)
            print(f"{workload} family {family}: {len(digests)} items", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"workload": workload, "digest": "sha256, first 16 hex digits",
            "families": families}


def main(argv: list[str]) -> int:
    run.load_program()
    import workloads

    for workload in argv or list(workloads.WORKLOADS):
        golden = record(workload)
        path = run.BENCH / "golden" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
