"""Cohomology dimension tables, the published-value registry, checks.

A table row for degree k holds the slice dimension, the ranks of the
differential leaving and entering the slice, and
h = dim - rank_out - rank_in.  Working over F_p makes each computed h
an upper bound for the rational dimension; a row is certified exact
when h = 0 (a zero upper bound forces both ranks tight) or when exact
ranks agree at two different primes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from gchom.cache import FileCache
from gchom.complexes import ComplexSpec, _split_work
from gchom.linalg import (DEFAULT_PRIME, PrimeField, gauss_ranks, rank_field, reduce_mod_p,
                          wiedemann_rank)

DEFAULT_GENERATOR_CAP = 5_000_000


@dataclass(frozen=True)
class CohomologyRow:
    k: int
    dim: int
    rank_out: int
    rank_in: int
    h: int
    certified: bool


@dataclass(frozen=True)
class CohomologyTable:
    spec: ComplexSpec
    prime: int
    method: str
    rows: tuple[CohomologyRow, ...]

    def row(self, k: int) -> CohomologyRow | None:
        for r in self.rows:
            if r.k == k:
                return r
        return None

    def dims(self) -> dict[int, int]:
        return {r.k: r.h for r in self.rows}

    def to_json(self) -> str:
        payload = {
            "spec": {
                "parity": str(self.spec.parity),
                "variant": str(self.spec.variant),
                "loops": self.spec.loops,
            },
            "prime": self.prime,
            "method": self.method,
            "rows": [
                {"k": r.k, "dim": r.dim, "rank_in": r.rank_in,
                 "rank_out": r.rank_out, "h": r.h, "certified": r.certified}
                for r in self.rows
            ],
        }
        return json.dumps(payload, indent=2)


def render_text(table: CohomologyTable) -> str:
    """Aligned plain-text table: k, dim, rank, h."""
    lines = [f"{'k':>4} {'dim':>10} {'rank':>10} {'h':>6}"]
    for r in table.rows:
        lines.append(f"{r.k:>4} {r.dim:>10} {r.rank_out:>10} {r.h:>6}")
    return "\n".join(lines)


class GeneratorCapExceeded(RuntimeError):
    pass


def _slice_range(spec: ComplexSpec) -> range:
    return range(2, 2 * (spec.loops - 1) + 1)


def cohomology_dims(spec: ComplexSpec, prime: int = DEFAULT_PRIME, method: str = "gauss",
                    seed: int = 0, confirm_prime: int | None = None,
                    cache: FileCache | None = None) -> CohomologyTable:
    """Dimension table of the complex, one row per slice degree.

    Ranks of the two differentials adjacent to each slice are computed
    at `prime`; nonexistent differentials beyond the degree range count
    as rank 0.  With method="wiedemann" every h is an upper bound and
    only zero rows are certified; a `confirm_prime` is then a ValueError,
    since it would certify nothing.  With gauss and a `confirm_prime`
    (which must differ from `prime`), rows whose ranks agree at both
    primes are certified.  Slice sizes and differentials come from
    `cache`, an in-memory `FileCache` when none is given; no basis is
    fetched here, so a cache that holds every file builds no graph.
    Every differential is fetched here, in V order, before any is
    ranked.  Then `_split_work` ranks the matrices on every usable CPU,
    weighted by their nonzeros, and the ranks come back in V order, so
    the table is the one a single process gives.  Gauss ranks a matrix at every prime
    in one elimination (`gauss_ranks`, over Z/pqZ with a confirm prime).
    Wiedemann ranks it at `prime` and at ``seed`` alone, in whichever
    process ranks it.  Each such bound w is at most the rank, and d∘d = 0
    gives rank d_V + rank d_{V+1} <= dim C_V, so
    cap_V = min(dim C_V - w_{V+1}, dim C_{V-1} - w_{V-1}) (a missing
    neighbour counts as 0) bounds rank d_V from above.  A second
    `_split_work` round fetches again only the differentials whose bound
    is below their cap and tries ``seed + 1`` and ``seed + 2`` on them,
    stopping at the cap.  A bound that meets its cap is the rank, so the
    table is the one that ranking every differential at all three seeds
    gives.  A prime or seed that `rank_field` rejects for the method is
    a ValueError before any fetch.  A slice with more than
    `DEFAULT_GENERATOR_CAP` generators raises GeneratorCapExceeded.
    """
    fp = rank_field(method, prime, seed)
    primes = (prime,)
    if confirm_prime is not None:
        if method != "gauss":
            raise ValueError(f"a confirm prime certifies gauss ranks only, not {method}")
        if confirm_prime == prime:
            raise ValueError(f"confirm prime must differ from the prime {prime}")
        PrimeField(confirm_prime)
        primes = (prime, confirm_prime)
    if cache is None:
        cache = FileCache()
    dims: dict[int, int] = {}
    for v in _slice_range(spec):
        dims[v] = cache.size(spec, v)
        if dims[v] > DEFAULT_GENERATOR_CAP:
            raise GeneratorCapExceeded(
                f"slice V={v} has {dims[v]} generators (cap {DEFAULT_GENERATOR_CAP})"
            )

    # the V whose slice has a differential leaving it
    order = [v for v in _slice_range(spec) if v - 1 in dims and dims[v] and dims[v - 1]]
    mats = [cache.matrix(spec, v) for v in order]

    def rank(mat) -> tuple[int, ...]:
        if method == "gauss":
            return gauss_ranks(mat, primes)
        return (wiedemann_rank(reduce_mod_p(mat, fp), seed, seeds=1).rank,)

    # _split_work drops each matrix from mats once it is ranked
    got = dict(zip(order, _split_work(rank, mats, [len(mat.entries) for mat in mats])))
    # per prime: V -> rank of the differential leaving the slice at V
    ranks, *confirm = ({v: r[i] for v, r in got.items()} for i in range(len(primes)))
    if method == "wiedemann":
        # d∘d = 0: rank d_V <= dim C_V - rank d_{V+1} and <= dim C_{V-1} - rank d_{V-1}
        caps = {v: min(dims[v] - ranks.get(v + 1, 0), dims[v - 1] - ranks.get(v - 1, 0))
                for v in order}
        low = [v for v in order if ranks[v] < caps[v]]
        # fetched again, since round one dropped each matrix once it was ranked
        items = [(cache.matrix(spec, v), caps[v]) for v in low]

        def retry(item) -> int:
            mat, cap = item
            return wiedemann_rank(reduce_mod_p(mat, fp), seed + 1, cap, seeds=2).rank

        weights = [len(mat.entries) for mat, _ in items]
        for v, r in zip(low, _split_work(retry, items, weights)):
            ranks[v] = max(ranks[v], r)
    rows = []
    for v in sorted(dims):
        dim = dims[v]
        rank_out = ranks.get(v, 0)
        rank_in = ranks.get(v + 1, 0)
        h = dim - rank_out - rank_in
        if h < 0:
            raise RuntimeError(f"negative cohomology dimension at V={v}")
        certified = h == 0 or any(
            c.get(v, 0) == rank_out and c.get(v + 1, 0) == rank_in for c in confirm
        )
        rows.append(CohomologyRow(spec.degree_of(v), dim, rank_out, rank_in,
                                  h, certified))
    return CohomologyTable(spec, prime, method, tuple(rows))


def euler_characteristic(table: CohomologyTable) -> tuple[int, int]:
    """(chain-level, cohomology-level) Euler characteristic.

    The two sums agree identically when the table satisfies rank-nullity
    bookkeeping, making this a cheap integrity check on assembly.
    """
    chain = sum((-1 if r.k % 2 else 1) * r.dim for r in table.rows)
    cohom = sum((-1 if r.k % 2 else 1) * r.h for r in table.rows)
    return chain, cohom


# ---------------------------------------------------------------------------
# Registry of published dimensions.
# ---------------------------------------------------------------------------

EXACT = "exact"
UNCERTAIN = "uncertain"  # published as a likely-exact upper bound
UPPER_BOUND = "upper_bound"
EXTERNAL = "external"  # quoted from a companion computation


@dataclass(frozen=True)
class KnownValue:
    n: int
    loops: int
    k: int
    value: int
    flag: str
    source: str


def _even_entries():
    # (g, k) -> value; flags attached below where needed
    rows = {
        0: {3: 1, 4: 0, 5: 1, 6: 0, 7: 1, 8: 1, 9: 1, 10: 1, 11: 2, 12: 2,
            13: 3, 14: 3, 15: 4, 16: 5, 17: 7, 18: 8, 19: 11, 20: 13, 21: 17,
            22: 21, 23: 28, 24: 34, 25: 45, 26: 56, 27: 73, 28: 92, 29: 120},
        1: {g: 0 for g in range(4, 14)},
        2: {g: 0 for g in range(5, 14)},
        3: {6: 1, 7: 0, 8: 1, 9: 1, 10: 2, 11: 2, 12: 2, 13: 4},
        4: {g: 0 for g in range(7, 12)},
        5: {g: 0 for g in range(8, 12)},
        6: {9: 0, 10: 0, 11: 1},
        7: {10: 1, 11: 0},
        8: {11: 0},
        9: {12: 0},
    }
    out = []
    for k, per_g in rows.items():
        for g, val in per_g.items():
            out.append(KnownValue(2, g, k, val, EXACT, "even-parity table"))
    out.append(KnownValue(2, 13, 10, 1, UPPER_BOUND, "even-parity table"))
    out.append(KnownValue(2, 14, 11, 1, UPPER_BOUND, "even-parity table"))
    return out


def _odd_entries():
    rows = {
        -3: {2: 1, 3: 1, 4: 1, 5: 2, 6: 2, 7: 3, 8: 4, 9: 5, 10: 6, 11: 8,
             12: 9, 13: 11, 14: 13},
        -4: {g: 0 for g in range(4, 12)},
        -5: {g: 0 for g in range(5, 12)},
        -6: {6: 1, 7: 1, 8: 2, 9: 3, 10: 5},
        -7: {7: 0, 8: 0, 9: 0, 10: 0},
        -8: {8: 0, 9: 0, 10: 0, 11: 0},
        -9: {9: 0, 10: 0, 11: 1},
        -10: {10: 0, 11: 0},
        -11: {11: 0},
    }
    out = []
    for k, per_g in rows.items():
        for g, val in per_g.items():
            out.append(KnownValue(3, g, k, val, EXACT, "odd-parity table"))
    out.append(KnownValue(3, 11, -6, 7, UNCERTAIN, "odd-parity table"))
    out.append(KnownValue(3, 11, -7, 1, UNCERTAIN, "odd-parity table"))
    for g, k in [(12, -12), (13, -13), (14, -14), (15, -15), (16, -16)]:
        out.append(KnownValue(3, g, k, 0, EXTERNAL, "odd-parity table"))
    # the published table repeats the -16 label on its last row; the
    # evident reading is -17, recorded as such with its own key
    out.append(KnownValue(3, 17, -17, 0, EXTERNAL,
                          "odd-parity table (row label repeated; read as -17)"))
    return out


class KnownValueRegistry:
    """Read-only map (n, loops, degree) -> published dimension."""

    def __init__(self, values):
        self._data = {(v.n, v.loops, v.k): v for v in values}

    def lookup(self, n: int, loops: int, k: int) -> KnownValue | None:
        return self._data.get((n, loops, k))

    def __len__(self) -> int:
        return len(self._data)

    def entries(self):
        return sorted(self._data.values(), key=lambda v: (v.n, v.loops, -v.k))


KNOWN_VALUES = KnownValueRegistry(_even_entries() + _odd_entries())


@dataclass(frozen=True)
class RegistryComparison:
    k: int
    computed: int
    expected: int | None
    flag: str | None
    status: str  # match | mismatch | bound_ok | bound_violated | unlisted


def compare_with_registry(table: CohomologyTable,
                          registry: KnownValueRegistry = KNOWN_VALUES
                          ) -> list[RegistryComparison]:
    """Per-degree comparison; uncertain entries compare as upper bounds."""
    n = table.spec.parity.n
    out = []
    for row in table.rows:
        known = registry.lookup(n, table.spec.loops, row.k)
        if known is None:
            out.append(RegistryComparison(row.k, row.h, None, None, "unlisted"))
            continue
        if known.flag in (UNCERTAIN, UPPER_BOUND):
            ok = row.h <= known.value
            status = "bound_ok" if ok else "bound_violated"
        else:
            status = "match" if row.h == known.value else "mismatch"
        out.append(RegistryComparison(row.k, row.h, known.value, known.flag, status))
    return out


def registry_matches(comparisons) -> bool:
    return all(c.status in ("match", "bound_ok", "unlisted") for c in comparisons)
