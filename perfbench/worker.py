"""One benchmark step in a fresh interpreter: a set-up or one workload run.

run.py starts this script once per step, so every step pays interpreter
start, import, and empty in-process caches, as every `gchom` command
does.  It prints one JSON object on its last stdout line.

    python3 perfbench/worker.py --kind table-cold --loops 6 --step run \
        --seed 1 --cache DIR --spawned <time.monotonic() at spawn> [--trace FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
PRIME, CONFIRM_PRIME = 3323, 10007
REF_PASSES = 2  # calibration passes timed on each side of the work


def reference_s() -> float:
    """Mean seconds of one calibration pass, over REF_PASSES passes."""
    return sum(calibration.run_once() for _ in range(REF_PASSES)) / REF_PASSES


def _digests(cache_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(cache_dir.rglob("*")) if p.is_file()}


def check_digests(cache_dir: Path, loops: int, parities, errors: list[str]) -> None:
    """Every cache file written must be byte-identical to the reference."""
    reference = json.loads((HERE / "reference.json").read_text())["digests"]
    want = {name: digest for name, digest in reference.items()
            if f"-g{loops}-" in name and name.split("-")[1] in parities}
    got = _digests(cache_dir)
    if not want:
        errors.append(f"no reference digests for g={loops} {parities}")
    if set(got) != set(want):
        errors.append(f"cache files differ: extra {sorted(set(got) - set(want))} "
                      f"missing {sorted(set(want) - set(got))}")
    errors.extend(f"{name}: sha256 {got[name]} != reference"
                  for name in sorted(set(got) & set(want)) if got[name] != want[name])


def check_table(table, errors: list[str]) -> None:
    from gchom import cohomology

    comps = cohomology.compare_with_registry(table)
    if not cohomology.registry_matches(comps):
        errors.append(f"{table.spec}: registry mismatch {comps}")
    uncertified = [r.k for r in table.rows if not r.certified]
    if uncertified:
        errors.append(f"{table.spec}: uncertified rows k={uncertified}")


def table_cold(args, errors):
    """Odd then even full tables at two primes, into an empty FileCache."""
    from gchom import cache, cohomology, complexes, graphs

    fc = cache.FileCache(args.cache)
    t0 = time.perf_counter()
    for parity in (graphs.Parity.ODD, graphs.Parity.EVEN):
        spec = complexes.ComplexSpec(parity, complexes.Variant.FULL, args.loops)
        check_table(cohomology.cohomology_dims(spec, prime=PRIME, confirm_prime=CONFIRM_PRIME,
                                               cache=fc), errors)
    check_digests(Path(args.cache), args.loops, ("odd", "even"), errors)
    return {"table_s": time.perf_counter() - t0}


def table_warm_setup(args, errors):
    """Fill the FileCache the warm runs read, and check what was written."""
    from gchom import cache, cohomology, complexes, graphs

    spec = complexes.ComplexSpec(graphs.Parity.ODD, complexes.Variant.FULL, args.loops)
    cohomology.cohomology_dims(spec, prime=PRIME, cache=cache.FileCache(args.cache))
    check_digests(Path(args.cache), args.loops, ("odd",), errors)


def table_warm(args, errors):
    """Exact two-prime table, then the Wiedemann table, from a filled cache."""
    from gchom import cache, cohomology, complexes, graphs

    spec = complexes.ComplexSpec(graphs.Parity.ODD, complexes.Variant.FULL, args.loops)
    t0 = time.perf_counter()
    exact = cohomology.cohomology_dims(spec, prime=PRIME, confirm_prime=CONFIRM_PRIME,
                                       cache=cache.FileCache(args.cache))
    check_table(exact, errors)
    t1 = time.perf_counter()
    estimate = cohomology.cohomology_dims(spec, prime=PRIME, method="wiedemann",
                                          seed=args.seed, cache=cache.FileCache(args.cache))
    # Wiedemann ranks are lower bounds for the exact ranks
    for e, w in zip(exact.rows, estimate.rows):
        if w.rank_out > e.rank_out or w.rank_in > e.rank_in:
            errors.append(f"k={w.k}: wiedemann ranks ({w.rank_out}, {w.rank_in}) "
                          f"exceed gauss ({e.rank_out}, {e.rank_in})")
    t2 = time.perf_counter()
    # a read-only workload must leave the cache byte-identical
    check_digests(Path(args.cache), args.loops, ("odd",), errors)
    return {"table_s": t1 - t0, "estimate_s": t2 - t1}


def kneissler_bounds(args, errors):
    """Odd then even top-degree bound reports, Gauss with TwoPhase pivoting."""
    from gchom import checks, graphs, kneissler

    t0 = time.perf_counter()
    for parity in (graphs.Parity.ODD, graphs.Parity.EVEN):
        got = kneissler.upper_bound(args.loops, parity, prime=PRIME).columns()
        want = checks.BOUND_ROWS[(parity, args.loops)]
        if got != want:
            errors.append(f"bound {parity} g={args.loops}: got {got} want {want}")
    return {"bound_s": time.perf_counter() - t0}


KINDS = {
    "table-cold": (None, table_cold),
    "table-warm": (table_warm_setup, table_warm),
    "kneissler": (None, kneissler_bounds),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", required=True, choices=sorted(KINDS))
    parser.add_argument("--loops", required=True, type=int)
    parser.add_argument("--step", required=True, choices=["setup", "run"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--spawned", required=True, type=float)
    parser.add_argument("--trace", help="record spans and write them to this file")
    args = parser.parse_args(argv)

    import gchom.cache  # noqa: F401  (the import is part of set-up time)
    import gchom.checks  # noqa: F401
    import gchom.cohomology  # noqa: F401
    import gchom.kneissler  # noqa: F401

    out: dict = {"setup_s": time.monotonic() - args.spawned, "errors": []}
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    setup, run = KINDS[args.kind]
    try:
        if args.step == "setup":
            # set-up time is start and import plus the fill; the reference
            # passes before and after the fill are left out of it
            ref = reference_s()
            t0 = time.monotonic()
            if setup is not None:
                setup(args, out["errors"])
            out["setup_s"] += time.monotonic() - t0
            out["ref_s"] = (ref + reference_s()) / 2
        else:
            ref = reference_s()
            out["times"] = run(args, out["errors"])
            out["ref_s"] = (ref + reference_s()) / 2
    except Exception:
        out["errors"].append(traceback.format_exc())
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["exact"] = tracer.exact_counts()
        tracer.write(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
