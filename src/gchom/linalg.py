"""Exact linear algebra over prime fields.

Two rank engines, named in `RANK_METHODS`: sparse Gaussian elimination
with Markowitz-style pivoting (exact), and a randomized Wiedemann rank
estimator (a probabilistic lower bound, from the minimal polynomial of
a preconditioned Gram operator recovered by Berlekamp-Massey).

Gauss ranks a matrix at several primes in one elimination over Z/NZ,
N the product of the primes (`gauss_ranks`; `gauss_rank` is its
one-prime case).  By the Chinese remainder theorem Z/NZ is the product
of the fields F_p, and reduction mod each p is a ring map, so a step
whose pivot is a unit mod N, nonzero mod every p, is a valid pivot step
over every F_p at once.  A column whose live entries are all non-units
is set aside until an update gives it a unit.  The rows that remain
have entries only in set-aside columns; each prime ranks them on its
own, and the rank at p is the number of unit pivots plus theirs.  The
active block turns dense once more than `_DENSE_SWITCH_DENSITY` of it
is filled (and its area is at most `_DENSE_SWITCH_AREA`); the dense
phase pivots by the same rule in int64, which is exact while
(N - 1)**2 + N < 2**63, so N below about 3e9.  Past that the
elimination stays sparse, in Python ints.

The Gram operator B = D1 A^T D2 A D1 is symmetric, so the Krylov
sequence u^T B^k u is read off w_j = B^j u as w_j.w_j and
w_j.w_{j+1}: one application of B per two terms.  The random diagonals
are folded into the stored values of A once, so an application is two
sparse passes.  Wiedemann takes only primes below 2**25 (`rank_field`
checks), so a product of two residues fits in int64; long sums of such
products are reduced in chunks, so the arithmetic is exact.

The random diagonals D1, D2 and the start vector u are drawn by
`_draw`, a counter hash rather than a stateful generator: entry i of a
draw is low + splitmix64(seed*G + stream*H + i mod 2**64) mod
(high - low), where splitmix64 is the finalizer of Steele, Lea and
Flood ("Fast splittable pseudorandom number generators", OOPSLA 2014),
G its Weyl increment and H a second odd constant.  D1, D2 and u are
streams 1, 2 and 3.  The modulo bias is below (high - low) / 2**64.
The draws are fixed uint64 arithmetic, so a seed gives the same bound
on every numpy version, and `numpy.random` is never imported.  A seed
must lie in [0, 2**62), which leaves room for the next seeds a rank
tries.

Each seed's bound is a lower bound on the rank, so `wiedemann_rank`
tries a further seed only while its best bound is below a cap, an
upper bound on the rank.  The cap defaults to the smaller count of
nonempty rows or columns.  A table passes a tighter one: since
d∘d = 0, rank d_V + rank d_{V+1} <= dim C_V, so each neighbour's bound
caps a differential.  `cohomology.cohomology_dims` therefore ranks
every differential at one seed, then retries at the next seeds only
those whose bound is below that cap.  A bound that meets the cap is
the rank, and the table is the one that trying every seed gives.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_PRIME = 3323
CONFIRM_PRIME = 10007  # the second prime that certifies a Gauss rank

_FAST_PRIME_LIMIT = 1 << 25  # products stay below 2**50 in int64
_INT64_SUM_LIMIT = 1 << 63


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int):
    """``a.dot(b)`` mod p for int64 operands with entries in [0, p).

    Each output entry sums one product, below (p - 1)**2, per index of
    the shared axis.  When that many products could reach 2**63 the
    shared axis is reduced in chunks short enough to stay exact.
    """
    n = b.shape[0]
    if n * (p - 1) ** 2 < _INT64_SUM_LIMIT:
        return a.dot(b) % p
    step = (_INT64_SUM_LIMIT - 1) // (p - 1) ** 2
    if step == 0:
        raise ValueError(f"p = {p} is too large: one product overflows int64")
    out = 0
    for start in range(0, n, step):
        out = (out + a[..., start:start + step].dot(b[start:start + step]) % p) % p
    return out


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin, valid far beyond 2**64
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    p: int = DEFAULT_PRIME

    def __post_init__(self):
        if self.p == 2 or self.p >= 1 << 61 or not _is_prime(self.p):
            raise ValueError(f"need an odd prime below 2**61, got {self.p}")


@dataclass
class FpSparseMatrix:
    """Sparse matrix over F_p; no stored zeros."""

    nrows: int
    ncols: int
    p: int
    entries: dict[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self):
        if self.nrows < 0 or self.ncols < 0:
            raise ValueError(f"negative dimension {self.nrows} x {self.ncols}")
        for (i, j), v in self.entries.items():
            if not (0 <= i < self.nrows and 0 <= j < self.ncols):
                raise ValueError(f"entry ({i},{j}) out of range")
            if not 0 < v < self.p:
                raise ValueError(f"entry at ({i},{j}) not reduced: {v}")

    @property
    def num_entries(self) -> int:
        return len(self.entries)

    def to_arrays(self):
        """(row_idx, col_idx, values) as int64 arrays, row-major order."""
        items = sorted(self.entries.items())
        ri = np.fromiter((k[0] for k, _ in items), dtype=np.int64, count=len(items))
        ci = np.fromiter((k[1] for k, _ in items), dtype=np.int64, count=len(items))
        vals = np.fromiter((v for _, v in items), dtype=np.int64, count=len(items))
        return ri, ci, vals


def rational_rank(matrix) -> int:
    """Exact rank over Q by dense fraction elimination.

    Only intended for small matrices (a few hundred rows); the prime
    field engines handle everything larger.
    """
    from fractions import Fraction

    nr, nc = matrix.nrows, matrix.ncols
    if nr == 0 or nc == 0:
        return 0
    rows = [[Fraction(0)] * nc for _ in range(nr)]
    for (i, j), v in matrix.entries.items():
        rows[i][j] = Fraction(v)
    rank = 0
    row = 0
    for col in range(nc):
        piv = next((r for r in range(row, nr) if rows[r][col]), None)
        if piv is None:
            continue
        rows[row], rows[piv] = rows[piv], rows[row]
        pv = rows[row][col]
        for r in range(row + 1, nr):
            if rows[r][col]:
                f = rows[r][col] / pv
                rr, rp = rows[r], rows[row]
                for c in range(col, nc):
                    rr[c] -= f * rp[c]
        rank += 1
        row += 1
        if row == nr:
            break
    return rank


def reduce_mod_p(matrix, fp: PrimeField) -> FpSparseMatrix:
    """Entrywise reduction of an IntSparseMatrix; vanishing entries drop."""
    p = fp.p
    entries = {}
    for key, v in matrix.entries.items():
        r = v % p
        if r:
            entries[key] = r
    return FpSparseMatrix(matrix.nrows, matrix.ncols, p, entries)


@dataclass(frozen=True)
class RankResult:
    rank: int
    method: str
    certified: bool
    prime: int
    seed: int

    def report_line(self) -> str:
        flag = "true" if self.certified else "false"
        return (
            f"rank={self.rank} method={self.method} prime={self.prime} "
            f"seed={self.seed} certified={flag}"
        )


def _dense_ranks(dense: np.ndarray, primes: tuple[int, ...]) -> tuple[int, ...]:
    """Ranks of a dense integer block at each prime, by elimination mod N.

    N is the product of the primes and must satisfy `_dense_exact(N)`.
    A column pivots on its first unit; the rows left below the last
    pivot are ranked at each prime on their own.
    """
    n = math.prod(primes)
    m = np.ascontiguousarray(dense % n, dtype=np.int64)
    nr, nc = m.shape
    row = 0
    for col in range(nc):
        if row == nr:
            break
        colvals = m[row:, col]
        if len(primes) == 1:
            units = np.flatnonzero(colvals)
        else:
            units = np.flatnonzero(np.logical_and.reduce([colvals % p != 0 for p in primes]))
        if units.size == 0:
            continue
        piv = row + units[0]
        if piv != row:
            m[[row, piv]] = m[[piv, row]]
        inv = pow(int(m[row, col]), -1, n)
        below = m[row + 1:, col]
        nzb = np.flatnonzero(below)
        if nzb.size:
            factors = (below[nzb] * inv) % n
            m[row + 1 + nzb] = (m[row + 1 + nzb] - factors[:, None] * m[row]) % n
        row += 1
    if len(primes) == 1:
        # every nonzero is a unit, so nothing is left below the pivots
        return (row,)
    rest = m[row:]
    return tuple(row + _dense_ranks(rest % p, (p,))[0] for p in primes)


def _dense_exact(n: int) -> bool:
    """int64 dense elimination mod n is exact: a product of two residues
    subtracted from a residue stays inside int64."""
    return (n - 1) ** 2 + n < _INT64_SUM_LIMIT


_DENSE_SWITCH_AREA = 4_000_000
_DENSE_SWITCH_DENSITY = 0.2


def _eliminate(nrows: int, entries, primes: tuple[int, ...]) -> tuple[int, ...]:
    """Ranks at each prime of the matrix whose nonzero entries are
    ``entries``, an iterable of ((i, j), v) with v already reduced mod
    N = prod(primes) and nonzero.  See `gauss_ranks`."""
    import heapq

    n = math.prod(primes)
    single = len(primes) == 1
    rows: list[dict[int, int]] = [dict() for _ in range(nrows)]
    cols: dict[int, set[int]] = {}
    for (i, j), v in entries:
        rows[i][j] = v
        cols.setdefault(j, set()).add(i)
    nnz = sum(len(r) for r in rows)
    pivots = 0
    # nonempty rows and columns; a row or column that empties stays empty
    live_row_count = sum(1 for r in rows if r)
    live_col_count = len(cols)
    # live columns without a unit entry, off the heap until an update gives them one
    aside: set[int] = set()

    col_heap = [(len(s), j) for j, s in cols.items()]
    heapq.heapify(col_heap)

    def pop_column():
        # lazy heap: skip stale, exhausted or set-aside columns
        while col_heap:
            cnt, j = heapq.heappop(col_heap)
            live = cols.get(j)
            if not live or j in aside:
                continue
            if len(live) != cnt:
                heapq.heappush(col_heap, (len(live), j))
                continue
            return j
        return None

    dense_ok = _dense_exact(n)
    check_interval = 16
    steps = 0
    while True:
        if dense_ok and steps % check_interval == 0:
            if not live_row_count:
                break
            area = live_row_count * live_col_count
            if area <= _DENSE_SWITCH_AREA and nnz > _DENSE_SWITCH_DENSITY * area:
                live_rows = [r for r in rows if r]
                live_cols = sorted(c for c, members in cols.items() if members)
                cmap = {c: k for k, c in enumerate(live_cols)}
                dense = np.zeros((live_row_count, live_col_count), dtype=np.int64)
                for k, r in enumerate(live_rows):
                    for c, v in r.items():
                        dense[k, cmap[c]] = v
                return tuple(pivots + r for r in _dense_ranks(dense, primes))
        steps += 1
        j = pop_column()
        if j is None:
            break
        # at one prime every nonzero entry is a unit
        units = cols[j] if single else [r for r in cols[j] if math.gcd(rows[r][j], n) == 1]
        if not units:
            aside.add(j)
            continue
        i = min(units, key=lambda r: (len(rows[r]), r))
        piv_row = rows[i]
        inv = pow(piv_row[j], -1, n)
        for r in [r for r in cols[j] if r != i]:
            rr = rows[r]
            factor = (rr[j] * inv) % n
            for c, v in piv_row.items():
                nv = (rr.get(c, 0) - factor * v) % n
                if nv:
                    if c not in rr:
                        colset = cols.setdefault(c, set())
                        colset.add(r)
                        heapq.heappush(col_heap, (len(colset), c))
                        nnz += 1
                    rr[c] = nv
                    if aside and c in aside and math.gcd(nv, n) == 1:
                        aside.discard(c)
                        heapq.heappush(col_heap, (len(cols[c]), c))
                else:
                    if c in rr:
                        del rr[c]
                        cols[c].discard(r)
                        nnz -= 1
            if not rr:
                live_row_count -= 1
        # every column of the pivot row holds row i until here, so no
        # column emptied or refilled above
        for c in piv_row:
            colset = cols[c]
            colset.discard(i)
            if not colset:
                live_col_count -= 1
        nnz -= len(piv_row)
        rows[i] = {}
        live_row_count -= 1
        cols.pop(j, None)
        pivots += 1

    if single:
        # every nonzero entry was a unit, so the pivots emptied every row
        return (pivots,)
    # the rows left have entries only in set-aside columns
    left = [(i, r) for i, r in enumerate(rows) if r]
    return tuple(
        pivots + _eliminate(nrows, (((i, c), v % p) for i, r in left
                                    for c, v in r.items() if v % p), (p,))[0]
        for p in primes
    )


def gauss_ranks(matrix, primes: tuple[int, ...]) -> tuple[int, ...]:
    """Exact ranks of an integer matrix at each of several primes, from
    one sparse elimination over Z/NZ, N the product of the primes.

    ``matrix`` is any sparse matrix with ``nrows``, ``ncols`` and integer
    ``entries``, such as an `IntSparseMatrix`.  Pivots are Markowitz-
    flavoured, as in `gauss_rank`, but must be units mod N: a column
    whose live entries are all non-units is set aside until an update
    gives it a unit.  The rows left at the end are ranked at each prime
    on their own.  When the active block becomes dense enough it is
    finished by the same rule in vectorized dense elimination, if N is
    small enough for int64 (below about 3e9).
    """
    n = math.prod(primes)
    reduced = ((key, v % n) for key, v in matrix.entries.items())
    return _eliminate(matrix.nrows, ((key, v) for key, v in reduced if v), tuple(primes))


def gauss_rank(matrix: FpSparseMatrix, seed: int = 0) -> RankResult:
    """Exact F_p rank by sparse elimination: `gauss_ranks` at the one
    prime p, where every nonzero entry is a unit.

    Pivot selection is Markowitz-flavoured: the sparsest column, then
    its shortest row.  When the active block becomes dense enough
    (more than `_DENSE_SWITCH_DENSITY` of it filled, and no larger than
    `_DENSE_SWITCH_AREA`) it is finished by vectorized dense elimination.
    """
    (rank,) = gauss_ranks(matrix, (matrix.p,))
    return RankResult(rank, "gauss", True, matrix.p, seed)


# ---------------------------------------------------------------------------
# Berlekamp-Massey and Wiedemann.
# ---------------------------------------------------------------------------


def berlekamp_massey(seq, p: int) -> list[int]:
    """Minimal generating polynomial of the sequence over F_p.

    Returns ascending coefficients [c_0, ..., c_L] with c_L = 1, meaning
    sum_i c_i a_{k+i} = 0 for all valid k.  The constant sequence gives
    x - 1, Fibonacci gives x^2 - x - 1.
    """
    state = _BMState(p)
    for a in seq:
        state.push(int(a) % p)
    return state.generator()


class _BMState:
    """Online Berlekamp-Massey; numpy-backed discrepancy computation."""

    def __init__(self, p: int):
        self.p = p
        self.c = np.zeros(1, dtype=np.int64)
        self.c[0] = 1  # connection poly, ascending, c[0] = 1
        self.b = self.c.copy()
        self.L = 0
        self.m = 1
        self.binv = 1  # inverse of the discrepancy at which b was last replaced
        self.seq = np.zeros(64, dtype=np.int64)  # terms pushed, in seq[:n]
        self.n = 0
        self.last_discrepancy = 0  # terms processed at the last nonzero discrepancy

    def push(self, a: int):
        p = self.p
        n = self.n
        if n == len(self.seq):
            self.seq = np.concatenate([self.seq, np.zeros_like(self.seq)])
        seq = self.seq
        seq[n] = a
        self.n = n + 1
        # discrepancy d = a + sum_{i=1..L} c_i * seq[n-i]
        L = self.L
        if L:
            window = seq[n - 1::-1][:L]
            d = (a + int(_matmul_mod(self.c[1:L + 1], window, p))) % p
        else:
            d = a % p
        if d == 0:
            self.m += 1
            return
        self.last_discrepancy = n + 1
        coef = d * self.binv % p
        shift = self.m
        new_len = max(len(self.c), len(self.b) + shift)
        c = np.zeros(new_len, dtype=np.int64)
        c[: len(self.c)] = self.c
        c[shift: shift + len(self.b)] = (
            c[shift: shift + len(self.b)] - coef * self.b
        ) % p
        if 2 * L <= n:
            self.b = self.c
            self.binv = pow(d, p - 2, p)
            self.L = n + 1 - L
            self.m = 1
        else:
            self.m += 1
        self.c = c

    def generator(self) -> list[int]:
        # reverse the connection polynomial: g(x) = x^L * C(1/x)
        p = self.p
        L = self.L
        g = [0] * (L + 1)
        for i in range(min(len(self.c), L + 1)):
            g[L - i] = int(self.c[i]) % p
        g[L] = 1  # c[0] = 1 always
        return g


class PreconditionedOperator:
    """B = D1 A^T D2 A D1 applied as matrix-vector products mod p.

    The diagonals are folded into two copies of A's values once: the
    forward half A D1 scales entry (i, j) by d1[j], the back half
    D1 A^T D2 by d1[j] d2[i].  An application is then two gather,
    multiply and bincount passes.  The bincount sums in float64, which
    is exact while an output adds fewer than 2**53 / (p - 1)**2
    products; only a half with a longer row or column reduces its
    products first.  ``arrays``, if given, is ``matrix.to_arrays()``,
    built by the caller.
    """

    def __init__(self, matrix: FpSparseMatrix, d1: np.ndarray, d2: np.ndarray,
                 arrays=None):
        self.p = p = matrix.p
        self.nrows = matrix.nrows
        self.n = matrix.ncols
        self.d1 = np.asarray(d1, dtype=np.int64) % p
        self.d2 = np.asarray(d2, dtype=np.int64) % p
        if len(self.d1) != self.n or len(self.d2) != matrix.nrows:
            raise ValueError("diagonal size mismatch")
        if p >= _FAST_PRIME_LIMIT:
            raise ValueError("preconditioned operator requires p < 2**25")
        self.ri, self.ci, vals = matrix.to_arrays() if arrays is None else arrays
        self._forward = vals * self.d1[self.ci] % p
        self._back = self._forward * self.d2[self.ri] % p
        exact_terms = (1 << 53) // (p - 1) ** 2
        self._reduce_rows = np.bincount(self.ri, minlength=1).max() > exact_terms
        self._reduce_cols = np.bincount(self.ci, minlength=1).max() > exact_terms

    def _half(self, vals, src, dst, size, reduce, x):
        # out[dst] += vals * x[src], mod p
        t = vals * x[src]
        if reduce:
            t %= self.p
        return np.bincount(dst, weights=t, minlength=size).astype(np.int64) % self.p

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.int64) % self.p
        y = self._half(self._forward, self.ci, self.ri, self.nrows, self._reduce_rows, x)
        return self._half(self._back, self.ri, self.ci, self.n, self._reduce_cols, y)


_SEED_LIMIT = 1 << 62
_MASK64 = (1 << 64) - 1
# splitmix64's Weyl increment (the golden ratio), an odd constant that
# separates the streams, and the finalizer's shifts and multipliers
_SEED_GAMMA = 0x9E3779B97F4A7C15
_STREAM_GAMMA = 0xD1B54A32D192ED03
_MIX = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))
# the draws of one Wiedemann run
_D1_STREAM, _D2_STREAM, _U_STREAM = 1, 2, 3


def _check_seed(seed: int):
    if not 0 <= seed < _SEED_LIMIT:
        raise ValueError(f"wiedemann seed {seed} is outside [0, 2**62)")


def _draw(seed: int, stream: int, size: int, low: int, high: int) -> np.ndarray:
    """``size`` int64 values in [low, high), entry i a hash of (seed, stream, i).

    Entry i is low + splitmix64(z) mod (high - low), z = seed*G +
    stream*H + i mod 2**64, with splitmix64's finalizer.  The modulo
    bias is below (high - low) / 2**64.  The hash is uint64 array
    arithmetic, which wraps mod 2**64 without the warnings numpy gives
    on scalar overflow.
    """
    base = (seed * _SEED_GAMMA + stream * _STREAM_GAMMA) & _MASK64
    z = np.arange(size, dtype=np.uint64) + np.uint64(base)
    for shift, mult in _MIX:
        z = (z ^ (z >> np.uint64(shift))) * np.uint64(mult)
    z ^= z >> np.uint64(31)
    return (z % np.uint64(high - low)).astype(np.int64) + low


def precondition(matrix: FpSparseMatrix, seed: int, arrays=None) -> PreconditionedOperator:
    """Random diagonal preconditioning of the Gram operator A^T A.

    D1 and D2 are uniform invertible diagonals, streams 1 and 2 of
    `_draw` at the seed, the same on every numpy version; with
    probability 1 - O(n/p) the operator keeps the rank of A and has
    squarefree-away-from-zero minimal polynomial, which is what the
    Wiedemann rank extraction needs.  ``arrays`` is passed on to
    `PreconditionedOperator`.
    """
    d1 = _draw(seed, _D1_STREAM, matrix.ncols, 1, matrix.p)
    d2 = _draw(seed, _D2_STREAM, matrix.nrows, 1, matrix.p)
    return PreconditionedOperator(matrix, d1, d2, arrays)


_EXTRA_TERMS = 16
_MARGIN_TERMS = 8


def _krylov_terms(op: PreconditionedOperator, u: np.ndarray):
    """u^T B^k u for k = 0, 1, ..., from w_j = B^j u and B's symmetry.

    a_{2j} = w_j . w_j and a_{2j+1} = w_j . w_{j+1}, both exact mod p,
    so B is applied once per two terms, and only when a consumer asks
    for an odd term.
    """
    p = op.p
    w = u
    while True:
        yield int(_matmul_mod(w, w, p))
        w_next = op.apply(w)
        yield int(_matmul_mod(w, w_next, p))
        w = w_next


def _scalar_wiedemann_bound(matrix: FpSparseMatrix, seed: int, arrays=None) -> int:
    """Rank bound from the minimal generator of a_k = u^T B^k u.

    B is symmetric, so `_krylov_terms` reads two terms off each
    application of B (one whose diagonals are folded into its values):
    a run of t terms applies B floor(t/2) times.  The stop rule is
    tested after every term, so the terms pushed, and the generator,
    are those of applying B once per term.  The run stops after 2L +
    `_MARGIN_TERMS` terms: Berlekamp-Massey keeps the last nonzero
    discrepancy within the first 2L, so the generator has then held for
    at least the margin.  The start vector u is stream 3 of `_draw`.
    ``arrays`` is passed on to `precondition`.
    """
    p = matrix.p
    op = precondition(matrix, seed, arrays)
    u = _draw(seed, _U_STREAM, matrix.ncols, 0, p)
    limit = 2 * min(matrix.nrows, matrix.ncols) + _EXTRA_TERMS
    state = _BMState(p)
    for processed, a in enumerate(itertools.islice(_krylov_terms(op, u), limit), 1):
        state.push(a)
        if processed >= 2 * state.L + _MARGIN_TERMS:
            break
    g = state.generator()
    deg = len(g) - 1
    if deg == 0:
        return 0
    return deg - (1 if g[0] == 0 else 0)


def wiedemann_rank(matrix: FpSparseMatrix, seed: int = 0, cap: int | None = None,
                   seeds: int = 3) -> RankResult:
    """Probabilistic lower bound on the F_p rank.

    The degree of the Berlekamp-Massey minimal generator of u^T B^k u,
    minus one when divisible by x, is never above the true rank.  The
    seeds ``seed``, ``seed + 1``, ... (``seeds`` of them) are tried in
    turn while the best bound is below ``cap``, and the best is
    reported.  ``cap`` is an upper bound on the rank that the caller has
    proved.  The smaller of the counts of nonempty rows and of nonempty
    columns is always one: it is the default, and a larger cap is
    lowered to it.  A bound that meets a proved cap is the rank, so no
    further seed can raise it, and stopping there reports what trying
    every seed would.  The result may still lie below the rank, so
    certified stays False.  A seed outside [0, 2**62) is a ValueError,
    raised before any work.
    """
    _check_seed(seed)
    # only the diagonals depend on the seed
    arrays = matrix.to_arrays()
    ri, ci, _ = arrays
    nonempty = min(np.count_nonzero(np.bincount(ri, minlength=1)),
                   np.count_nonzero(np.bincount(ci, minlength=1)))
    cap = nonempty if cap is None else min(cap, nonempty)
    best = 0
    for s in range(seed, seed + seeds):
        if best >= cap:
            break
        best = max(best, _scalar_wiedemann_bound(matrix, s, arrays))
    return RankResult(best, "wiedemann", False, matrix.p, seed)


# The rank engines by name; every caller that takes a ``method`` looks it up here.
RANK_METHODS = {"gauss": gauss_rank, "wiedemann": wiedemann_rank}


def rank_field(method: str, prime: int, seed: int = 0) -> PrimeField:
    """``PrimeField(prime)``; ValueError if ``method`` is no engine or
    cannot rank over it, or is Wiedemann and ``seed`` is outside [0, 2**62)."""
    if method not in RANK_METHODS:
        raise ValueError(f"unknown method {method!r}")
    fp = PrimeField(prime)
    if method == "wiedemann":
        if prime >= _FAST_PRIME_LIMIT:
            raise ValueError(f"wiedemann needs a prime below 2**25, got {prime}")
        _check_seed(seed)
    return fp
