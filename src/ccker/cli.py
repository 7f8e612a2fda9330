"""Command-line surface.

Subcommands: ``analyze`` (relation diagnostics), ``gen`` (seeded random
instances), ``solve`` (oracle runs), ``kernelize`` (kernels with a metadata
header on the output file), ``reduce`` (transformations with a printed size
report), and ``verify`` (before/after equivalence by oracle).

Two tables drive them.  ``KINDS`` maps each problem kind to how an instance
is generated from the ``gen`` flags, parsed from a path, decided by its
oracle and, where a kernel exists, kernelized into (kernel, metadata lines).
``TRANSFORMS`` maps each transform to (source kind, CNF mode of a formula
source, target kind, reduction).  ``verify --mode kernel`` compares solution
sets (yes/no for cliquekv), ``verify --mode reduction`` the yes/no answers of
the source and target oracles.  A new kind or transform is one new row.

Exit codes: 0 success / verified, 1 verification mismatch, 2 usage or parse
error, 3 budget exceeded.  All randomness flows from ``--seed``; output
files are written atomically.
"""

from __future__ import annotations

import argparse
import math
import os
import stat
import sys
from typing import Callable, NamedTuple

from . import generate, oracles, polykernel, reductions
from .budget import BudgetExceededError
from .instances import (
    ParseError,
    parse_cliquekv,
    parse_cnf,
    parse_gurfc,
    parse_hypergraph,
    parse_rcc,
    parse_rclc,
    parse_relation,
    parse_urfc,
    serialize,
)
from .relations import (
    eta,
    find_or_witness,
    is_permutation_invariant,
    max_or_arity,
    nur_witness_items,
)

__all__ = ["main"]


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_atomic(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    # an existing file keeps its mode; a new file gets a new file's mode under
    # the umask, which mkstemp's 0600 would not give
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".ccker-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            if mode is not None:
                os.fchmod(fh.fileno(), mode)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_relation(source: str, budget: int | None):
    """Relation from a file path, or inline text starting 'nur ' or 'relation ',
    built within the tuple budget ``budget``."""
    if not os.path.exists(source) and source.startswith(("nur ", "relation ")):
        return parse_relation(source, budget)
    return parse_relation(_read(source), budget)


def _relation_loader_for(path: str):
    """Loader for ``rel file=REF`` lines: REF is read relative to the
    instance file, and a parse error in it names REF."""
    base = os.path.dirname(os.path.abspath(path))

    def load(ref: str):
        text = _read(os.path.join(base, ref))
        try:
            return parse_relation(text)
        except ParseError as exc:
            raise ParseError(f"{ref}: {exc}") from None

    return load


def _require(value, flag: str):
    if value is None:
        raise ValueError(f"missing required flag {flag}")
    return value


def _flags(args, *names: str) -> list:
    """The values of the required flags ``--<name>``, in order."""
    return [_require(getattr(args, name), f"--{name}") for name in names]


def _parse_blocks(args) -> list[tuple[int, int]]:
    shapes = []
    for part in _require(args.blocks, "--blocks").split(","):
        d, _, l = part.partition(":")
        shapes.append((int(d), int(l)))
    return shapes


def _gen_over_relation(args, gen):
    relation, shape = _load_relation(_require(args.relation, "--relation"), args.budget)
    n = _require(args.n, "--n")
    return gen(n, relation, args.density, args.edge_density, args.seed, nur_shape=shape)


def _kernelize_urfc(inst, args):
    result = polykernel.kernelize_urfc(inst, args.budget)
    kernel = result.instance
    tuple_bits = inst.d * inst.l * max(1, math.ceil(math.log2(kernel.graph.n + 1)))
    meta = [f"constraints={kernel.constraint_count}", f"tuple_bits={tuple_bits}"]
    return kernel, result.report.lines() + meta


def _kernelize_gurfc(inst, args):
    result = polykernel.kernelize_gurfc(inst, args.budget)
    meta = ["; ".join(report.lines()) for report in result.reports]
    meta.append(f"constraints={result.instance.constraint_count}")
    return result.instance, meta


def _kernelize_rcc(inst, args):
    kernel = polykernel.kernelize_product_pruning(inst)
    removed = len(inst.constraints) - len(kernel.constraints)
    meta = ["method=product_pruning", f"removed={removed}"]
    return kernel, meta + [f"constraints={kernel.constraint_count}"]


def _kernelize_cliquekv(inst, args):
    kernel, report = reductions.kernelize_cliquekv(
        inst, *_flags(args, "q"), args.t, args.budget
    )
    return kernel, report.lines()


# Rows look up the parsers, serialize, find_or_witness and the library functions
# at call time, through the module attributes where bench/spans.py wraps them.
class Kind(NamedTuple):
    """How the CLI handles one problem kind; None where it cannot."""

    gen: Callable  # gen flags -> instance
    parse: Callable | None = None  # path -> instance
    # (instance, keywords q, mode, limit, budget) -> solutions, or a bool
    solve: Callable | None = None
    kernelize: Callable | None = None  # (instance, flags) -> (kernel, metadata lines)


KINDS = {
    "urfc": Kind(
        gen=lambda a: generate.gen_urfc(
            *_flags(a, "n", "d", "l", "q"), a.density, a.edge_density, a.seed
        ),
        parse=lambda path: parse_urfc(_read(path)),
        solve=lambda inst, budget, **_: oracles.solve_urfc(inst, budget=budget),
        kernelize=_kernelize_urfc,
    ),
    "gurfc": Kind(
        gen=lambda a: generate.gen_gurfc(
            *_flags(a, "n", "q"), _parse_blocks(a), a.density, a.edge_density, a.seed
        ),
        parse=lambda path: parse_gurfc(_read(path)),
        solve=lambda inst, budget, **_: oracles.solve_urfc(inst, budget=budget),
        kernelize=_kernelize_gurfc,
    ),
    "rcc": Kind(
        gen=lambda a: _gen_over_relation(a, generate.gen_rcc),
        parse=lambda path: parse_rcc(_read(path), _relation_loader_for(path)),
        solve=lambda inst, limit, budget, **_: oracles.solve_rcc(inst, limit, budget),
        kernelize=_kernelize_rcc,
    ),
    "rclc": Kind(
        gen=lambda a: _gen_over_relation(a, generate.gen_rclc),
        parse=lambda path: parse_rclc(_read(path), _relation_loader_for(path)),
        solve=lambda inst, limit, budget, **_: oracles.solve_rclc(inst, limit, budget),
    ),
    "cnf": Kind(
        gen=lambda a: generate.gen_cnf(*_flags(a, "n", "k", "count"), a.seed),
        parse=lambda path: parse_cnf(_read(path)),
        solve=lambda inst, mode, limit, budget, **_: oracles.solve_cnf(
            inst, mode, limit, budget
        ),
    ),
    "cliquekv": Kind(
        gen=lambda a: generate.gen_cliquekv(
            *_flags(a, "k", "t"),
            a.count if a.count is not None else 3,
            a.seed,
            a.edge_density,
            a.density,
        ),
        parse=lambda path: parse_cliquekv(_read(path)),
        solve=lambda inst, q, budget, **_: oracles.cliquekv_colorable(
            inst, _require(q, "--q"), budget
        ),
        kernelize=_kernelize_cliquekv,
    ),
    "hypergraph": Kind(
        gen=lambda a: generate.gen_hypergraph(*_flags(a, "n", "l"), a.density, a.seed),
        parse=lambda path: parse_hypergraph(_read(path)),
        solve=lambda inst, q, limit, budget, **_: oracles.solve_hypergraph_qcol(
            inst, _require(q, "--q"), limit, budget
        ),
    ),
    "graph": Kind(
        gen=lambda a: generate.gen_graph(*_flags(a, "n"), a.edge_density, a.seed),
    ),
}


def _kind(problem: str | None, job: str, action: str) -> Kind:
    """The table row of ``problem``; a usage error if it has no ``job``."""
    row = KINDS.get(_require(problem, "--problem"))
    if row is None or getattr(row, job) is None:
        raise ValueError(f"cannot {action} problem kind {problem!r}")
    return row


def _sat_to_rclc(formula, args):
    relation, _ = _load_relation(_require(args.relation, "--relation"), args.budget)
    width = formula.width
    if width is None:
        raise ValueError("formula must have uniform clause width")
    witness = find_or_witness(relation, width)
    if witness is None:
        raise ValueError(f"relation admits no OR witness of arity {width}")
    return reductions.sat_to_rclc(formula, relation, witness)


# transform -> (source kind, CNF mode of a formula source, target kind,
# reduction: (instance, flags) -> (instance, ReductionReport))
TRANSFORMS = {
    "sat-rclc": ("cnf", "sat", "rclc", _sat_to_rclc),
    "rclc-rcc": ("rclc", None, "rcc", lambda inst, a: reductions.rclc_to_rcc(inst)),
    "nae-urfc": (
        "cnf", "nae", "urfc", lambda inst, a: reductions.nae_to_urfc(inst, a.variant)
    ),
    "urfc-hypergraph": (
        "urfc", None, "hypergraph", lambda inst, a: reductions.urfc_to_hypergraph(inst)
    ),
    "cliquekv-gurfc": (
        "cliquekv",
        None,
        "gurfc",
        lambda inst, a: reductions.extract_clique_constraints(
            inst, *_flags(a, "q", "t")
        ),
    ),
    "gurfc-cliquekv": (
        "gurfc", None, "cliquekv", lambda inst, a: reductions.gurfc_to_cliquekv(inst)
    ),
}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    relation, shape = _load_relation(args.inputs[0], args.budget)
    print(f"q={relation.q}")
    print(f"r={relation.r}")
    print(f"tuples={len(relation)}")
    invariant = is_permutation_invariant(relation)
    print(f"permutation_invariant={'yes' if invariant else 'no'}")
    k = max_or_arity(relation, budget=args.budget)
    print(f"max_or_arity={k}")
    if k:
        witness = find_or_witness(relation, k)
        print(f"witness_positions={' '.join(map(str, witness.positions))}")
        print(f"witness_alpha={' '.join(map(str, witness.alpha))}")
        print(f"witness_beta={' '.join(map(str, witness.beta))}")
    if shape is not None:
        print(f"eta={eta(shape.d, shape.l, shape.q)}")
        items = nur_witness_items(shape.d, shape.l, shape.q)
        print(f"nur_witness_items={' '.join(map(str, items))}")
    return 0


def cmd_gen(args) -> int:
    inst = _kind(args.problem, "gen", "generate").gen(args)
    _write_atomic(args.output, serialize(inst))
    return 0


def cmd_solve(args) -> int:
    row = _kind(args.problem, "solve", "solve")
    inst = row.parse(args.inputs[0])
    limit = None if args.show_count else 1
    found = row.solve(inst, q=args.q, mode=args.mode, limit=limit, budget=args.budget)
    print("YES" if found else "NO")
    if args.show_count and not isinstance(found, bool):
        print(f"count={len(found)}")
    return 0


def _write_with_header(path: str | None, lines: list[str], inst) -> None:
    """Write ``inst`` under a ``#`` header of ``lines``, and print the lines."""
    _write_atomic(path, "".join(f"# {line}\n" for line in lines) + serialize(inst))
    for line in lines:
        print(line)


def cmd_kernelize(args) -> int:
    row = _kind(args.problem, "kernelize", "kernelize")
    kernel, meta = row.kernelize(row.parse(args.inputs[0]), args)
    _write_with_header(args.output, meta, kernel)
    return 0


def cmd_reduce(args) -> int:
    source, _, _, reduce = TRANSFORMS[args.transform]
    inst, report = reduce(KINDS[source].parse(args.inputs[0]), args)
    _write_with_header(args.output, report.lines(), inst)
    return 0


def _answer(row: Kind, path: str, q, mode, limit, budget):
    """The solution set (limit None; yes/no where the oracle only decides) or
    the yes/no answer (limit 1) of the instance at ``path``, and its palette."""
    inst = row.parse(path)
    sols = row.solve(inst, q=q, mode=mode, limit=limit, budget=budget)
    kept = getattr(sols, "colorings", sols) if limit is None else bool(sols)
    return kept, getattr(inst, "q", q)


def cmd_verify(args) -> int:
    if args.mode == "kernel":
        row = _kind(args.problem, "kernelize", "verify kernels for")
        rows, mode, limit = (row, row), None, None
    else:
        source, mode, target, _ = TRANSFORMS[_require(args.transform, "--transform")]
        rows, limit = (KINDS[source], KINDS[target]), 1
    # a reduction's target colors with the source's palette where it has one;
    # the source is released before the target, which may be far larger, is read
    a, q = _answer(rows[0], args.inputs[0], args.q, mode, limit, args.budget)
    b, _ = _answer(rows[1], args.inputs[1], q, mode, limit, args.budget)
    print("verified" if a == b else "mismatch")
    return 0 if a == b else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccker",
        description="Constrained-coloring kernelization toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, run, help, int_flags=(), inputs=1):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        if inputs:
            p.add_argument("inputs", nargs=inputs, metavar="PATH")
        p.add_argument("-o", "--output", default=None)
        p.add_argument("--budget", type=_positive_int, default=None)
        for flag in int_flags:
            p.add_argument(f"--{flag}", type=int, default=None)
        return p

    command("analyze", cmd_analyze, "relation diagnostics")

    gen_flags = ("d", "l", "q", "t", "k", "n", "count")
    p = command("gen", cmd_gen, "seeded random instance", gen_flags, inputs=0)
    p.add_argument("--problem", required=True)
    p.add_argument("--relation")
    p.add_argument("--blocks", help="gurfc block shapes, e.g. 2:2,1:2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--edge-density", dest="edge_density", type=float, default=0.3)

    p = command("solve", cmd_solve, "run the brute-force oracle", ("q",))
    p.add_argument("--problem", required=True)
    p.add_argument("--mode", choices=("sat", "nae"), default="sat")
    p.add_argument("--count", dest="show_count", action="store_true")

    p = command("kernelize", cmd_kernelize, "kernelize an instance", ("q", "t"))
    p.add_argument("--problem", required=True)

    p = command("reduce", cmd_reduce, "apply a transformation", ("q", "t"))
    p.add_argument("--transform", required=True, choices=TRANSFORMS)
    p.add_argument("--relation")
    p.add_argument("--variant", choices=("singletons", "pairs"), default="singletons")

    p = command("verify", cmd_verify, "compare instances by oracle", ("q",), inputs=2)
    p.add_argument("--mode", required=True, choices=("kernel", "reduction"))
    p.add_argument("--problem")
    p.add_argument("--transform", choices=TRANSFORMS)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
