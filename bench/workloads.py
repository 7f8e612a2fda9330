"""The benchmark's workloads: seeded item lists and how each item is certified.

An item is one certification unit and returns the bytes it produced (a
kernel or a CLI output file), which the runner digests against the golden
record.  An item raises :class:`ItemFailure` when the oracle or the CLI
disagrees with the README contract.

Every item's shape, size and density depend only on its index, so the cost
of a pass barely moves between seeds; the seed picks the random draws.
Inputs come from ``seed % FAMILIES``: the golden digests are recorded for
each of those input families (see ``record_golden.py``).

All calls into ccker go through module attributes (``polykernel.x``,
``cli.main``) so that the wrappers of ``spans.Tracer`` see them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ccker import cli, generate, instances, oracles, polykernel, relations

FAMILIES = 16


class ItemFailure(Exception):
    """The program's answer broke the certification contract."""


@dataclass(frozen=True)
class Item:
    label: str
    run: Callable[[], bytes]


# ---------------------------------------------------------------------------
# Library items: kernelize a urfc instance, certify by equal solution sets
# ---------------------------------------------------------------------------


def _certify_urfc(inst) -> bytes:
    result = polykernel.kernelize_urfc(inst)
    kernel = instances.serialize(result.instance).encode()
    before = oracles.solve_urfc(inst)
    after = oracles.solve_urfc(result.instance)
    if before.colorings != after.colorings:
        raise ItemFailure(
            f"kernel keeps {len(after)} solutions, input has {len(before)}"
        )
    return kernel


def _spread(units) -> list[Item]:
    """Order ``(group, items)`` units so that every group spans the pass.

    The j-th of a group's n units goes to the position (j + 1/2) / n of the
    pass.  A slow spell of the machine then slows a few items of each group,
    not a whole group, so a latency percentile, which falls inside one group,
    does not follow it.  The items of one unit stay together and in order.
    """
    groups: dict = {}
    for group, unit in units:
        groups.setdefault(group, []).append(unit)
    placed = sorted(
        ((j + 0.5) / len(members), g, unit)
        for g, members in enumerate(groups.values())
        for j, unit in enumerate(members)
    )
    return [item for _, _, unit in placed for item in unit]


def _urfc_items(specs, edge_density: float, seed_base: int) -> list[Item]:
    units = []
    for i, ((d, l, q), n, density) in enumerate(specs):
        inst = generate.gen_urfc(n, d, l, q, density, edge_density, seed_base + i)
        label = f"urfc({d},{l},{q}) n={n} density={density:.3f}"
        units.append((label, [Item(label, lambda inst=inst: _certify_urfc(inst))]))
    return _spread(units)


def _groups(*groups):
    """Item specs: ``count`` instances of each (shape, n, density) group.

    Repeating each point of a coarse density sweep keeps the cost of a pass
    and its latency percentiles steady from one seed to the next.
    """
    return [(shape, n, density) for shape, n, densities, count in groups
            for density in densities for _ in range(count)]


# Shapes whose kernel is the polynomial basis and where most rows become new
# pivots, so GF(p) elimination in kernelize_poly dominates the pass.
KERNEL_BASIS = _groups(
    ((3, 2, 3), 6, (0.1, 0.2), 12),
    ((2, 3, 3), 5, (0.1,), 11),
    ((3, 2, 3), 7, (0.1,), 15),
    ((2, 3, 3), 5, (0.3,), 15),
    ((3, 2, 3), 7, (0.2,), 12),
    ((2, 3, 3), 5, (0.45,), 10),
    ((2, 3, 3), 7, (0.04,), 5),
    ((2, 3, 3), 6, (0.15,), 8),
)

# Dense constraint sets on sparse graphs: the basis keeps a minority of the
# rows, and the q^n enumeration of solve_urfc dominates the pass.
CERTIFY_DENSE = _groups(
    ((1, 2, 3), 9, (0.5,), 34),
    ((1, 2, 3), 10, (0.5,), 30),
    ((1, 2, 3), 11, (0.5,), 18),
    ((2, 2, 3), 9, (0.6,), 16),
    ((3, 2, 3), 8, (0.3,), 1),
    ((2, 2, 3), 11, (0.6,), 1),
)


def setup_kernel_basis(family: int, workdir: Path) -> list[Item]:
    return _urfc_items(KERNEL_BASIS, 0.3, 1_000_000 + 1000 * family)


def setup_certify_dense(family: int, workdir: Path) -> list[Item]:
    return _urfc_items(CERTIFY_DENSE, 0.1, 2_000_000 + 1000 * family)


# ---------------------------------------------------------------------------
# CLI items: a reduce or kernelize call followed by a verify call
# ---------------------------------------------------------------------------


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``ccker`` in-process; returns the exit code and everything printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_item(label: str, step: list[str], verify: list[str], output: Path) -> Item:
    def run() -> bytes:
        code, text = call_cli(step)
        if code != 0:
            raise ItemFailure(f"{step[0]} exited {code}: {text.strip()[-200:]}")
        code, text = call_cli(verify)
        if code != 0 or text.split() != ["verified"]:
            raise ItemFailure(f"verify exited {code}: {text.strip()[-200:]}")
        return output.read_bytes()

    return Item(label, run)


# Relations for the SAT chain, from the 125-tuple nur(1,3,5) up to the
# 59k-tuple nur(2,5,3); the reduced instances carry the relation explicitly,
# 0.35 MB for nur(3,3,3) and 1.2 MB for nur(2,5,3).
SAT_RELATIONS = (
    (2, 5, 3), (3, 3, 3), (1, 3, 5), (1, 3, 3), (2, 2, 3), (1, 3, 5),
    (1, 3, 3), (2, 2, 3), (1, 3, 5), (1, 3, 3), (2, 2, 3), (1, 3, 5),
)
# (variables, clauses) of the 3-CNF formulas, below the satisfiability
# threshold so that the DFS verifiers rarely have to refute; the large
# relations get the smallest formulas, where parsing dominates.
FORMULAS = ((3, 2), (4, 4), (4, 6), (5, 6), (5, 8), (6, 8),
            (6, 10), (7, 10), (7, 12), (8, 12), (8, 14), (5, 6))
# (variables, clauses) of the NAE formulas: equal sizes put the median item
# latency inside this group
NAE_FORMULAS = ((8, 20),) * 12
URFC_HYPERGRAPH_N = (4, 5, 6) * 5 + (6,)
# (nur shape (d, l, q), vertices, constraint density); no OR of the
# relation's arity is definable from these relations, so product pruning is
# sound on them.  On half the tuples pruning finds almost nothing to drop; on
# the full pool of n=8 it drops most of the 512 tuples, at a cost that does
# not depend on the draw, and these 14 equal items hold the p90 latency.
RCC_KERNELS = (
    tuple(((1, 3, 2), 4 + i % 2, 0.5) for i in range(6)) + (((1, 3, 2), 8, 1.0),) * 14
)
# (modulator size k, clique size bound t, residual cliques)
CLIQUEKV_KERNELS = tuple((3 + i % 4, 1 + i % 3, 2 + i % 2) for i in range(20))


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def setup_cli_mixed(family: int, workdir: Path) -> list[Item]:
    seed = 3_000_000 + 1000 * family
    units = []
    for i, ((d, l, q), (n, m)) in enumerate(zip(SAT_RELATIONS, FORMULAS)):
        rel = _write(workdir / f"nur{d}{l}{q}.rel", f"nur d={d} l={l} q={q}\n")
        cnf = _write(
            workdir / f"sat{i}.cnf",
            instances.serialize(generate.gen_cnf(n, 3, m, seed + i)),
        )
        rclc, rcc = workdir / f"sat{i}.rclc", workdir / f"sat{i}.rcc"
        units.append(("sat", [_cli_item(
            f"sat-rclc nur({d},{l},{q}) n={n} m={m}",
            ["reduce", "--transform", "sat-rclc", "--relation", str(rel),
             str(cnf), "-o", str(rclc)],
            ["verify", "--mode", "reduction", "--transform", "sat-rclc",
             str(cnf), str(rclc)],
            rclc,
        ), _cli_item(
            f"rclc-rcc nur({d},{l},{q}) n={n} m={m}",
            ["reduce", "--transform", "rclc-rcc", str(rclc), "-o", str(rcc)],
            ["verify", "--mode", "reduction", "--transform", "rclc-rcc",
             str(rclc), str(rcc)],
            rcc,
        )]))
    for i, (n, m) in enumerate(NAE_FORMULAS):
        cnf = _write(
            workdir / f"nae{i}.cnf",
            instances.serialize(generate.gen_cnf(n, 3, m, seed + 100 + i)),
        )
        unit = []
        for variant in ("singletons", "pairs"):
            out = workdir / f"nae{i}-{variant}.urfc"
            unit.append(_cli_item(
                f"nae-urfc {variant} n={n} m={m}",
                ["reduce", "--transform", "nae-urfc", "--variant", variant,
                 str(cnf), "-o", str(out)],
                ["verify", "--mode", "reduction", "--transform", "nae-urfc",
                 str(cnf), str(out)],
                out,
            ))
        units.append(("nae", unit))
    for i, n in enumerate(URFC_HYPERGRAPH_N):
        src = _write(
            workdir / f"hg{i}.urfc",
            instances.serialize(generate.gen_urfc(n, 1, 3, 3, 0.3, 0.3, seed + 200 + i)),
        )
        out = workdir / f"hg{i}.hg"
        units.append(("hg", [_cli_item(
            f"urfc-hypergraph n={n}",
            ["reduce", "--transform", "urfc-hypergraph", str(src), "-o", str(out)],
            ["verify", "--mode", "reduction", "--transform", "urfc-hypergraph",
             str(src), str(out)],
            out,
        )]))
    for i, ((d, l, q), n, density) in enumerate(RCC_KERNELS):
        shape = relations.UrfcShape(d, l, q)
        inst = generate.gen_rcc(
            n, relations.make_nur(d, l, q), density, 0.2, seed + 300 + i, nur_shape=shape
        )
        src = _write(workdir / f"pp{i}.rcc", instances.serialize(inst))
        out = workdir / f"pp{i}.kern"
        units.append(((d, l, q, n, density), [_cli_item(
            f"kernelize rcc nur({d},{l},{q}) n={n} density={density}",
            ["kernelize", "--problem", "rcc", str(src), "-o", str(out)],
            ["verify", "--mode", "kernel", "--problem", "rcc", str(src), str(out)],
            out,
        )]))
    for i, (k, t, cliques) in enumerate(CLIQUEKV_KERNELS):
        inst = generate.gen_cliquekv(k, t, cliques, seed + 400 + i)
        src = _write(workdir / f"ckv{i}.ckv", instances.serialize(inst))
        out = workdir / f"ckv{i}.kern"
        units.append(("ckv", [_cli_item(
            f"kernelize cliquekv k={k} t={t}",
            ["kernelize", "--problem", "cliquekv", "--q", "3", "--t", str(t),
             str(src), "-o", str(out)],
            ["verify", "--mode", "kernel", "--problem", "cliquekv", "--q", "3",
             str(src), str(out)],
            out,
        )]))
    return _spread(units)


def or_arity_probe(workdir: Path) -> dict:
    """Defect probe for product pruning without its precondition.

    R = [3]^3 minus (1,1,1) defines an arity-3 OR, so pruning the 8
    constraints {1,2} x {3,4} x {5,6} is unsound.  By the README contract the
    CLI must either refuse (exit 2) or emit a kernel that verifies; exit 0
    followed by a ``mismatch`` is the defect.
    """
    rel = [t for t in itertools.product((1, 2, 3), repeat=3) if t != (1, 1, 1)]
    lines = ["graph n=6 m=0", f"rel q=3 r=3 count={len(rel)}"]
    lines += [" ".join(map(str, t)) for t in rel]
    lines += [f"{a} {b} {c}" for a in (1, 2) for b in (3, 4) for c in (5, 6)]
    src = _write(workdir / "probe.rcc", "\n".join(lines) + "\n")
    out = workdir / "probe.kern"
    kernelize, _ = call_cli(["kernelize", "--problem", "rcc", str(src), "-o", str(out)])
    verify = None
    if kernelize == 0:
        verify, _ = call_cli(
            ["verify", "--mode", "kernel", "--problem", "rcc", str(src), str(out)]
        )
    sound = kernelize == 2 or (kernelize == 0 and verify == 0)
    return {"kernelize_exit": kernelize, "verify_exit": verify, "defect": not sound}


WORKLOADS = {
    "kernel-basis": setup_kernel_basis,
    "certify-dense": setup_certify_dense,
    "cli-mixed": setup_cli_mixed,
}
