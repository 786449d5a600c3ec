"""Command-line front end.

Subcommands: gen (slice bases), diff (differential matrices), rank
(prime-field ranks of SMS matrices), cohomology (dimension tables),
kneissler (top-degree bound reports), check (self-check suites).
"""

from __future__ import annotations

import argparse
import secrets
import sys
from pathlib import Path

from gchom.cache import resolve_cache
from gchom.checks import FIRST_LOOPS, SUITES
from gchom.cohomology import cohomology_dims, render_text
from gchom.complexes import ComplexSpec, Variant, dump_basis
from gchom.graphs import Parity
from gchom.kneissler import upper_bound
from gchom.linalg import (CONFIRM_PRIME, DEFAULT_PRIME, RANK_METHODS, PrimeField, rank_field,
                          reduce_mod_p)
from gchom.sparse import dump_sms, load_sms


def _add_spec_flags(p: argparse.ArgumentParser, variant: bool = True):
    p.add_argument("--parity", required=True, choices=["even", "odd"])
    if variant:
        p.add_argument("--variant", required=True, choices=["full", "tri"])
    p.add_argument("--loops", required=True, type=int)


def _spec_from(args) -> ComplexSpec:
    return ComplexSpec(Parity.from_name(args.parity),
                       Variant.from_name(args.variant), args.loops)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="gchom",
        description="Graph-complex bases, differentials, ranks, and bounds.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="enumerate a slice basis")
    _add_spec_flags(p)
    p.add_argument("--vertices", required=True, type=int)
    p.add_argument("--out", help="write the .gls basis file here")
    p.add_argument("--cache")

    p = sub.add_parser("diff", help="assemble one differential matrix")
    _add_spec_flags(p)
    p.add_argument("--vertices", required=True, type=int,
                   help="vertex count of the source slice")
    p.add_argument("--out", required=True, help="SMS output path")
    p.add_argument("--cache")

    p = sub.add_parser("rank", help="rank of an SMS matrix over F_p")
    p.add_argument("--matrix", required=True)
    p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    p.add_argument("--method", choices=list(RANK_METHODS), default="gauss")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("cohomology", help="cohomology dimension table")
    _add_spec_flags(p)
    p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    p.add_argument("--method", choices=list(RANK_METHODS), default="gauss")
    p.add_argument("--confirm-prime", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--cache")
    p.add_argument("--json", help="write the JSON table here ('-' for stdout)")

    p = sub.add_parser("kneissler", help="top-degree upper-bound report")
    _add_spec_flags(p, variant=False)
    p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    p.add_argument("--method", choices=list(RANK_METHODS), default="gauss")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("check", help="run a self-check suite")
    p.add_argument("--suite", required=True,
                   choices=["d2", "tables", "kneissler", "linalg"])
    p.add_argument("--max-loops", type=int)
    p.add_argument("--prime", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--cache")
    return top


def _pick_seed(args) -> int:
    """``--seed``, else a fresh seed for Wiedemann and 0 for Gauss, which draws none."""
    if args.seed is not None:
        return args.seed
    return secrets.randbelow(2 ** 31) if args.method == "wiedemann" else 0


def cmd_gen(args) -> int:
    basis = resolve_cache(args.cache).basis(_spec_from(args), args.vertices)
    if args.out:
        Path(args.out).write_text(dump_basis(basis))
    print(f"count={len(basis)}")
    return 0


def cmd_diff(args) -> int:
    matrix = resolve_cache(args.cache).matrix(_spec_from(args), args.vertices)
    Path(args.out).write_text(dump_sms(matrix))
    print(f"rows={matrix.nrows} cols={matrix.ncols} entries={matrix.num_entries}")
    return 0


def cmd_rank(args) -> int:
    seed = _pick_seed(args)
    fp = rank_field(args.method, args.prime, seed)
    matrix = load_sms(Path(args.matrix).read_text())
    result = RANK_METHODS[args.method](reduce_mod_p(matrix, fp), seed=seed)
    print(result.report_line())
    return 0


def cmd_cohomology(args) -> int:
    seed = _pick_seed(args)
    table = cohomology_dims(_spec_from(args), prime=args.prime, method=args.method,
                            seed=seed, confirm_prime=args.confirm_prime,
                            cache=resolve_cache(args.cache))
    if args.method == "wiedemann":
        print(f"seed={seed}")
    if args.json == "-":
        print(table.to_json())
    else:
        print(render_text(table))
        if args.json:
            Path(args.json).write_text(table.to_json() + "\n")
    return 0


def cmd_kneissler(args) -> int:
    seed = _pick_seed(args)
    report = upper_bound(args.loops, Parity.from_name(args.parity),
                         prime=args.prime, method=args.method, seed=seed)
    print(report.to_json())
    return 0


# the flags besides --max-loops that each check suite reads
_CHECK_FLAGS = {"d2": ("cache",), "tables": ("prime", "cache"), "kneissler": ("prime",),
                "linalg": ("prime", "seed")}


def cmd_check(args) -> int:
    loops, prime = args.max_loops, args.prime
    for flag in ("prime", "seed", "cache"):
        if getattr(args, flag) is not None and flag not in _CHECK_FLAGS[args.suite]:
            raise ValueError(f"--{flag} is not read by the {args.suite} suite")
    first = FIRST_LOOPS.get(args.suite)
    if loops is not None and first is not None and loops < first:
        raise ValueError(f"--max-loops below {first} selects no {args.suite} check")
    if prime is not None and args.suite == "linalg":
        # the suite ranks by Wiedemann too, which takes primes below 2**25 only
        rank_field("wiedemann", prime)
    elif prime is not None:
        PrimeField(prime)
    cache = resolve_cache(args.cache) if args.suite in ("d2", "tables") else None
    kwargs = {
        "d2": {"max_loops": loops, "cache": cache},
        "tables": {"max_even": loops, "max_odd": None if loops is None else min(loops, 7),
                   "primes": None if prime is None else (
                       prime, DEFAULT_PRIME if prime == CONFIRM_PRIME else CONFIRM_PRIME),
                   "cache": cache},
        "kneissler": {"max_loops": loops, "prime": prime},
        "linalg": {"seed": args.seed or 0, "prime": prime, "max_loops": loops},
    }[args.suite]
    # a flag that is not given leaves the suite's default
    results = SUITES[args.suite](**{k: v for k, v in kwargs.items() if v is not None})
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


_COMMANDS = {
    "gen": cmd_gen,
    "diff": cmd_diff,
    "rank": cmd_rank,
    "cohomology": cmd_cohomology,
    "kneissler": cmd_kneissler,
    "check": cmd_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"gchom: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
