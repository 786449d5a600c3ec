"""Self-check suites behind the `check` command.

Each suite returns a list of named pass/fail results; the CLI prints one
line per result and exits nonzero on any failure.  The suites mirror the
package's acceptance targets: d*d = 0, reproduction of the published
dimension tables, the top-degree bound table, and the linear-algebra
property battery.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from gchom.cache import FileCache
from gchom.cohomology import (
    cohomology_dims,
    compare_with_registry,
    euler_characteristic,
    registry_matches,
)
from gchom.complexes import ComplexSpec, Variant
from gchom.graphs import Parity
from gchom.kneissler import dperp_rank, upper_bound
from gchom.linalg import (
    CONFIRM_PRIME,
    DEFAULT_PRIME,
    FpSparseMatrix,
    PrimeField,
    _wiedemann_rank,
    berlekamp_massey,
    gauss_rank,
    rank_field,
    rational_rank,
    reduce_mod_p,
)

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        text = f"{mark} {self.name}"
        if self.detail:
            text += f": {self.detail}"
        return text


def suite_d2(max_loops: int = 6, cache: FileCache | None = None) -> list[CheckResult]:
    """d composed with d vanishes on every complex up to max_loops."""
    out = []
    for parity in Parity:
        min_g = 3 if parity is Parity.EVEN else 2
        for variant in Variant:
            for g in range(min_g, max_loops + 1):
                spec = ComplexSpec(parity, variant, g)
                provider = cache if cache is not None else FileCache()
                mats = {v: provider.matrix(spec, v) for v in range(3, 2 * g - 1)}
                bad = [
                    v for v in mats
                    if v - 1 in mats and not mats[v - 1].matmul(mats[v]).is_zero()
                ]
                out.append(CheckResult(
                    f"d2 {parity} {variant} g={g}",
                    not bad,
                    "" if not bad else f"nonzero product at V={bad}",
                ))
    return out


def suite_tables(max_even: int = 7, max_odd: int = 7,
                 primes: tuple[int, int] = (DEFAULT_PRIME, CONFIRM_PRIME),
                 cache: FileCache | None = None) -> list[CheckResult]:
    """Published tables, quasi-isomorphism, and Euler identity."""
    out = []
    p, q = primes
    tri_tables = {}
    for parity, top in ((Parity.EVEN, max_even), (Parity.ODD, max_odd)):
        min_g = 3 if parity is Parity.EVEN else 2
        for g in range(min_g, top + 1):
            spec = ComplexSpec(parity, Variant.FULL, g)
            table = cohomology_dims(spec, prime=p, confirm_prime=q, cache=cache)
            comps = compare_with_registry(table)
            out.append(CheckResult(
                f"table {parity} full g={g}",
                registry_matches(comps),
                "; ".join(
                    f"k={c.k} got {c.computed} want {c.expected}"
                    for c in comps if c.status in ("mismatch", "bound_violated")
                ),
            ))
            chain, coh = euler_characteristic(table)
            out.append(CheckResult(
                f"euler {parity} full g={g}", chain == coh,
                f"chain={chain} cohomology={coh}",
            ))
            tri = cohomology_dims(ComplexSpec(parity, Variant.TRICONNECTED, g),
                                  prime=p, confirm_prime=q, cache=cache)
            if any(r.dim for r in tri.rows):
                # compare on the union of degrees, missing rows count as 0
                full_dims = {r.k: r.h for r in table.rows}
                tri_dims = {r.k: r.h for r in tri.rows}
                keys = set(full_dims) | set(tri_dims)
                agree = all(full_dims.get(k, 0) == tri_dims.get(k, 0) for k in keys)
                out.append(CheckResult(
                    f"quasi-iso {parity} g={g}", agree,
                    "" if agree else f"full={full_dims} tri={tri_dims}",
                ))
    return out


BOUND_ROWS = {
    (Parity.EVEN, 5): (0, 0, 1, 0, 0),
    (Parity.EVEN, 6): (2, 2, 4, 3, 1),
    (Parity.EVEN, 7): (2, 6, 19, 8, 0),
    (Parity.EVEN, 8): (6, 39, 143, 45, 0),
    (Parity.ODD, 5): (2, 1, 1, 1, 2),
    (Parity.ODD, 6): (3, 3, 4, 4, 2),
    (Parity.ODD, 7): (9, 13, 27, 19, 3),
    (Parity.ODD, 8): (27, 65, 167, 88, 4),
}

BOUND_ROWS_STRETCH = {
    (Parity.EVEN, 9): (66, 369, 1237, 435, 0),
    (Parity.ODD, 9): (121, 443, 1303, 559, 5),
}

# the published top-degree values at g=10: odd k=-3 is 6, even k=7 is 1
BOUND_ROWS_G10 = {
    (Parity.EVEN, 10): (542, 3484, 10652, 4025, 1),
    (Parity.ODD, 10): (652, 3778, 11091, 4424, 6),
}

# the published top-degree values at g=11: odd k=-3 is 8, even k=8 is 0
BOUND_ROWS_G11 = {
    (Parity.ODD, 11): (4779, 36217, 104692, 40988, 8),
    (Parity.EVEN, 11): (4160, 34485, 101450, 38645, 0),
}

_ALL_ROWS = {**BOUND_ROWS, **BOUND_ROWS_STRETCH, **BOUND_ROWS_G10, **BOUND_ROWS_G11}


def suite_kneissler(max_loops: int = 8, prime: int = DEFAULT_PRIME) -> list[CheckResult]:
    """Top-degree bound table rows and the surjectivity of d-perp."""
    out = []
    for (parity, g), want in sorted(_ALL_ROWS.items(), key=lambda kv: (kv[0][1], str(kv[0][0]))):
        if g > max_loops:
            continue
        rep = upper_bound(g, parity, prime=prime)
        got = rep.columns()
        out.append(CheckResult(
            f"bound {parity} g={g}", got == want,
            f"got {got} want {want}",
        ))
        rank, dim = dperp_rank(g, parity, prime=prime)
        out.append(CheckResult(
            f"surjectivity {parity} g={g}", rank == dim,
            f"rank(d-perp)={rank} dim={dim}",
        ))
    return out


def _random_sparse(rng: random.Random, fp: PrimeField,
                   nrows: int, ncols: int, fill: float) -> FpSparseMatrix:
    entries = {}
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < fill:
                entries[(i, j)] = rng.randrange(1, fp.p)
    return FpSparseMatrix(nrows, ncols, fp.p, entries)


def _table_differentials(max_even: int = 7, max_odd: int = 6):
    mats = []
    for parity, top in ((Parity.EVEN, max_even), (Parity.ODD, max_odd)):
        min_g = 3 if parity is Parity.EVEN else 2
        for g in range(min_g, top + 1):
            spec = ComplexSpec(parity, Variant.FULL, g)
            provider = FileCache()
            dd = (provider.matrix(spec, v) for v in range(3, 2 * g - 1))
            mats.extend(m for m in dd if m.entries)
    return mats


def suite_linalg(seed: int = 0, num_random: int = 200, prime: int = DEFAULT_PRIME,
                 max_loops: int = 7) -> list[CheckResult]:
    """Wiedemann vs Gauss, Q-rank bound, recurrences, over F_prime.

    The table differentials checked are those up to ``max_loops`` loops.
    Matrix k of each kind is ranked at seed + k, which may pass 2**62:
    only ``seed`` is checked, so every seed `rank_field` takes runs to the end.
    """
    rng = random.Random(seed)
    fp = rank_field("wiedemann", prime, seed)
    tables = _table_differentials(min(7, max_loops), min(6, max_loops))
    out = []

    # (a) wiedemann is a lower bound, usually tight
    total = equal = sound = 0
    for idx in range(num_random):
        nr = rng.randint(5, 40)
        nc = rng.randint(5, 40)
        m = _random_sparse(rng, fp, nr, nc, rng.uniform(0.02, 0.3))
        gr = gauss_rank(m).rank
        wr = _wiedemann_rank(m, seed + idx, None, 3).rank
        total += 1
        sound += wr <= gr
        equal += wr == gr
    for k, m in enumerate(tables):
        mp = reduce_mod_p(m, fp)
        gr = gauss_rank(mp).rank
        wr = _wiedemann_rank(mp, seed + k, None, 3).rank
        total += 1
        sound += wr <= gr
        equal += wr == gr
    out.append(CheckResult(
        "wiedemann <= gauss", sound == total, f"{sound}/{total} sound"))
    out.append(CheckResult(
        "wiedemann tightness >= 95%", equal >= 0.95 * total,
        f"{equal}/{total} equal"))

    # (b) F_p rank never exceeds the rational rank
    ok = True
    for m in _table_differentials(min(6, max_loops), min(5, max_loops)):
        if m.nrows > 200 or m.ncols > 200:
            continue
        rq = rational_rank(m)
        for q in sorted({prime, CONFIRM_PRIME, 32003}):
            rp = gauss_rank(reduce_mod_p(m, PrimeField(q))).rank
            ok = ok and rp <= rq
    out.append(CheckResult("F_p rank <= rational rank", ok))

    # (c) Berlekamp-Massey recovers planted recurrences
    ok = True
    for _ in range(25):
        deg = rng.randint(1, 50)
        coeffs = [rng.randrange(fp.p) for _ in range(deg - 1)] + [rng.randrange(1, fp.p)]
        seq = [rng.randrange(fp.p) for _ in range(deg)]
        for _ in range(2 * deg + 10):
            seq.append(sum(c * a for c, a in
                           zip(coeffs, seq[-deg:])) % fp.p)
        g = berlekamp_massey(seq, fp.p)
        if len(g) - 1 > deg:
            ok = False
            continue
        ell = len(g) - 1
        for k in range(len(seq) - ell):
            if sum(gi * seq[k + i] for i, gi in enumerate(g)) % fp.p:
                ok = False
                break
    out.append(CheckResult("berlekamp-massey planted recurrences", ok))
    return out


# the loop orders of each suite's first and last check, the range --max-loops may
# take (None: no last; linalg's first check is of a table differential, at g=3)
LOOPS = {"d2": (2, None), "tables": (2, None), "linalg": (3, None),
         "kneissler": (min(g for _, g in BOUND_ROWS), max(g for _, g in _ALL_ROWS))}

SUITES = {
    "d2": suite_d2,
    "tables": suite_tables,
    "kneissler": suite_kneissler,
    "linalg": suite_linalg,
}
