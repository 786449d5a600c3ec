import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gchom.cache import FileCache
from gchom.complexes import ComplexSpec, Variant, differential_matrix, enumerate_basis
from gchom.graphs import Parity
from gchom.linalg import (
    FpSparseMatrix,
    PreconditionedOperator,
    PrimeField,
    RankResult,
    _BMState,
    _draw,
    _matmul_mod,
    _scalar_wiedemann_bound,
    _dense_ranks,
    berlekamp_massey,
    gauss_rank,
    gauss_ranks,
    precondition,
    rank_field,
    rational_rank,
    reduce_mod_p,
    wiedemann_rank,
)
from gchom.sparse import IntSparseMatrix

import oracles

FP = PrimeField()
P = FP.p


def sparse_from_dense(dense, p=P):
    nr, nc = dense.shape
    entries = {(i, j): int(dense[i, j]) % p
               for i in range(nr) for j in range(nc) if dense[i, j] % p}
    return FpSparseMatrix(nr, nc, p, entries)


def random_fp(rng, nr, nc, fill, p=P):
    entries = {}
    for i in range(nr):
        for j in range(nc):
            if rng.random() < fill:
                entries[(i, j)] = rng.randrange(1, p)
    return FpSparseMatrix(nr, nc, p, entries)


def g5_differentials():
    spec = ComplexSpec(Parity.EVEN, Variant.FULL, 5)
    slices = {v: enumerate_basis(spec, v) for v in range(2, 9)}
    mats = [differential_matrix(slices[v], slices[v - 1]) for v in range(3, 9)]
    return [m for m in mats if m.entries]


def test_prime_field_validation():
    PrimeField(3)
    PrimeField(10007)
    for bad in (2, 1, 9, 3322, 1 << 61):
        with pytest.raises(ValueError):
            PrimeField(bad)


def test_reduce_mod_p_drops_vanishing_entries():
    m = IntSparseMatrix(1, 1, {(0, 0): 3323})
    r = reduce_mod_p(m, FP)
    assert r.entries == {}
    assert gauss_rank(r).rank == 0


def test_reduce_mod_p_signs():
    m = IntSparseMatrix(2, 2, {(0, 0): 1, (1, 1): -1})
    r = reduce_mod_p(m, FP)
    assert r.entries == {(0, 0): 1, (1, 1): P - 1}


def test_fp_rank_bounded_by_rational_rank():
    for m in g5_differentials():
        rq = rational_rank(m)
        for p in (3323, 10007, 32003):
            rp = gauss_rank(reduce_mod_p(m, PrimeField(p))).rank
            assert rp <= rq


def test_rational_rank_against_fraction_oracle():
    rng = random.Random(3)
    for _ in range(20):
        nr, nc = rng.randint(1, 12), rng.randint(1, 12)
        dense = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        entries = {(i, j): dense[i][j] for i in range(nr) for j in range(nc)
                   if dense[i][j]}
        m = IntSparseMatrix(nr, nc, entries)
        expect = oracles.rational_rank([[Fraction(x) for x in row] for row in dense])
        assert rational_rank(m) == expect


def test_gauss_identity_and_zero():
    ident = FpSparseMatrix(5, 5, P, {(i, i): 1 for i in range(5)})
    assert gauss_rank(ident).rank == 5
    assert gauss_rank(FpSparseMatrix(7, 3, P, {})).rank == 0


def test_gauss_product_rank():
    rng = np.random.default_rng(7)
    a = rng.integers(0, P, size=(50, 30))
    b = rng.integers(0, P, size=(30, 50))
    m = sparse_from_dense((a @ b) % P)
    assert gauss_rank(m).rank == 30


def test_gauss_matches_dense_oracle():
    rng = random.Random(13)
    for _ in range(30):
        nr, nc = rng.randint(1, 20), rng.randint(1, 20)
        m = random_fp(rng, nr, nc, rng.uniform(0.05, 0.6))
        assert gauss_rank(m).rank == oracles.rank_mod_p(m, P)


def dependent_sparse_matrix(rng, p, nrows=360, ncols=300, independent=200):
    """Sparse rows, the later ones sums of three earlier ones, so that
    elimination empties rows as it goes and fills the rest in enough
    to reach the dense phase."""
    entries = {}
    for i in range(independent):
        for j in rng.sample(range(ncols), 8):
            entries[(i, j)] = rng.randrange(1, p)
    for i in range(independent, nrows):
        picked = rng.sample(range(independent), 3)
        for (r, j), v in list(entries.items()):
            if r in picked:
                entries[(i, j)] = (entries.get((i, j), 0) + v) % p
    return FpSparseMatrix(nrows, ncols, p, {k: v for k, v in entries.items() if v})


def recording_dense_phase(monkeypatch):
    """The blocks (and primes) handed to the dense phase, as they are handed."""
    from gchom import linalg

    handed_off = []
    dense_ranks = linalg._dense_ranks

    def recording(block, primes):
        handed_off.append((block.copy(), primes))
        return dense_ranks(block, primes)

    monkeypatch.setattr(linalg, "_dense_ranks", recording)
    return handed_off


def assert_switch_rule(block):
    # the live counts kept while pivoting size the block exactly, and
    # only a block denser than the switch density is handed off
    from gchom import linalg

    assert block.any(axis=1).all() and block.any(axis=0).all()
    area = block.size
    assert area <= linalg._DENSE_SWITCH_AREA
    assert np.count_nonzero(block) > linalg._DENSE_SWITCH_DENSITY * area


def test_gauss_sparse_phase_matches_dense_oracle(monkeypatch):
    handed_off = recording_dense_phase(monkeypatch)
    rng = random.Random(59)
    # 4294967311 > 2**32 fails the int64 gate of the dense phase: every
    # pivot is sparse
    for p in (P, 10007, 4294967311):
        for _ in range(2):
            m = dependent_sparse_matrix(rng, p)
            handed_off.clear()
            assert gauss_rank(m).rank == oracles.rank_mod_p(m, p)
            assert len(handed_off) == (p < 1 << 32)
            for block, primes in handed_off:
                assert primes == (p,)
                assert_switch_rule(block)
                # the fill-in made the block dense; it was handed off
                # after some sparse pivots, not at the start
                assert block.shape[0] < m.nrows


def test_gauss_never_hands_off_a_sparse_block(monkeypatch):
    # small blocks with fill <= 0.2 stay sparse however small they are;
    # only the last few pivots of a shrinking block may go dense
    handed_off = recording_dense_phase(monkeypatch)
    rng = random.Random(67)
    for _ in range(20):
        nr, nc = rng.randint(30, 120), rng.randint(30, 250)
        m = random_fp(rng, nr, nc, rng.uniform(0.01, 0.1))
        handed_off.clear()
        assert gauss_rank(m).rank == oracles.rank_mod_p(m, P)
        for block, _ in handed_off:
            assert_switch_rule(block)
            assert block.shape != (nr, nc)
    # the 107 x 250 odd g=6 differential, 3.6% filled
    spec = ComplexSpec(Parity.ODD, Variant.FULL, 6)
    m = FileCache().matrix(spec, 6)
    assert (m.nrows, m.ncols) == (107, 250)
    handed_off.clear()
    gauss_ranks(m, TWO_PRIMES)
    for block, primes in handed_off:
        if primes == TWO_PRIMES:  # not a per-prime leftover
            assert_switch_rule(block)
            assert block.size < m.nrows * m.ncols


TWO_PRIMES = (3323, 10007)


def assert_ranks_match_oracle(m, primes=TWO_PRIMES):
    got = gauss_ranks(m, primes)
    assert got == tuple(oracles.rank_mod_p(m, p) for p in primes)
    return got


def test_gauss_ranks_match_oracle_on_differentials():
    count = 0
    for parity, variant in itertools.product(Parity, Variant):
        for g in range(2, 7):
            spec = ComplexSpec(parity, variant, g)
            provider = FileCache()
            for v in range(3, 2 * g - 1):
                m = provider.matrix(spec, v)
                if m.entries:
                    assert_ranks_match_oracle(m)
                    count += 1
    assert count >= 20


def non_unit_matrix(rng, primes, nr, nc, fill):
    """Integer entries, a quarter of them multiples of the first prime and
    a quarter multiples of the second: non-units mod their product."""
    p, q = primes
    entries = {}
    for i in range(nr):
        for j in range(nc):
            if rng.random() < fill:
                kind = rng.random()
                v = rng.randrange(1, p * q)
                if kind < 0.25:
                    v = p * rng.randrange(-q, q)
                elif kind < 0.5:
                    v = q * rng.randrange(-p, p)
                if v:
                    entries[(i, j)] = v
    return IntSparseMatrix(nr, nc, entries)


def recording_leftovers(monkeypatch):
    """(entries, one-prime rank) of the rows that unit pivots leave, sparse
    or dense."""
    from gchom import linalg

    leftovers = []
    eliminate, dense_ranks = linalg._eliminate, linalg._dense_ranks

    def recording_eliminate(nrows, entries, primes):
        entries = list(entries)
        got = eliminate(nrows, entries, primes)
        if len(primes) == 1:
            leftovers.append((len(entries), got[0]))
        return got

    def recording_dense(block, primes):
        got = dense_ranks(block, primes)
        if len(primes) == 1:
            leftovers.append((np.count_nonzero(block), got[0]))
        return got

    monkeypatch.setattr(linalg, "_eliminate", recording_eliminate)
    monkeypatch.setattr(linalg, "_dense_ranks", recording_dense)
    return leftovers


def test_gauss_ranks_with_non_unit_entries(monkeypatch):
    leftovers = recording_leftovers(monkeypatch)
    rng = random.Random(71)
    sparse_left = dense_left = 0
    for k in range(300):
        # the sparser half pivots sparse, the denser half goes dense at
        # once, small enough that some columns hold no unit
        if k % 2:
            nr, nc, fill = rng.randint(1, 30), rng.randint(1, 30), rng.uniform(0.02, 0.2)
        else:
            nr, nc, fill = rng.randint(1, 8), rng.randint(1, 8), rng.uniform(0.3, 0.9)
        m = non_unit_matrix(rng, TWO_PRIMES, nr, nc, fill)
        leftovers.clear()
        assert_ranks_match_oracle(m)
        if any(rank for _, rank in leftovers):
            sparse_left += k % 2
            dense_left += 1 - k % 2
    # rows left without unit pivots had a rank of their own at some prime
    assert sparse_left >= 30 and dense_left >= 20


def test_gauss_ranks_revive_a_set_aside_column(monkeypatch):
    # column 0 holds only non-units, so it is set aside; pivoting on
    # column 1 leaves 65539 - 65537 = 2, a unit, in row 1, and column 0
    # comes back for the second pivot: no rows are left over
    leftovers = recording_leftovers(monkeypatch)
    primes = (65537, 65539)
    gadget = IntSparseMatrix(2, 2, {(0, 0): 65537, (0, 1): 1, (1, 0): 65539, (1, 1): 1})
    assert gauss_ranks(gadget, primes) == (2, 2)
    assert leftovers == [(0, 0), (0, 0)]


def test_gauss_ranks_above_the_dense_gate(monkeypatch):
    from gchom import linalg

    handed_off = recording_dense_phase(monkeypatch)
    primes = (65537, 65539)
    assert all(linalg._is_prime(p) for p in primes)
    assert not linalg._dense_exact(65537 * 65539)
    rng = random.Random(73)
    for _ in range(40):
        m = non_unit_matrix(rng, primes, rng.randint(1, 25), rng.randint(1, 25),
                            rng.uniform(0.1, 0.9))
        assert_ranks_match_oracle(m, primes)
    # only the one-prime leftovers, whose prime passes the gate, go dense
    assert all(len(got) == 1 for _, got in handed_off)


def test_gauss_ranks_shapes():
    for nr, nc in ((0, 0), (0, 5), (5, 0), (4, 6)):
        assert gauss_ranks(IntSparseMatrix(nr, nc, {}), TWO_PRIMES) == (0, 0)
    rng = random.Random(79)
    for nr, nc in ((1, 17), (17, 1), (1, 1)):
        for _ in range(10):
            assert_ranks_match_oracle(non_unit_matrix(rng, TWO_PRIMES, nr, nc, 0.7))
    ident = IntSparseMatrix(9, 9, {(i, i): 1 for i in range(9)})
    assert gauss_ranks(ident, TWO_PRIMES) == (9, 9)
    # a diagonal of non-units: each prime sees only the entries it does not divide
    diag = IntSparseMatrix(3, 3, {(0, 0): 3323, (1, 1): 10007, (2, 2): 3323 * 10007})
    assert gauss_ranks(diag, TWO_PRIMES) == (1, 1)
    assert gauss_ranks(diag, (3323,)) == (1,)
    # a dense column without a unit: each prime ranks the other's multiple
    column = IntSparseMatrix(2, 1, {(0, 0): 3323, (1, 0): 2 * 10007})
    assert gauss_ranks(column, TWO_PRIMES) == (1, 1)


def test_berlekamp_massey_examples():
    assert berlekamp_massey([1] * 8, P) == [P - 1, 1]
    fib = [1, 1]
    for _ in range(30):
        fib.append((fib[-1] + fib[-2]) % P)
    assert berlekamp_massey(fib, P) == [P - 1, P - 1, 1]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 50))
def test_berlekamp_massey_planted_recurrence(seed, degree):
    rng = random.Random(seed)
    coeffs = [rng.randrange(P) for _ in range(degree - 1)] + [rng.randrange(1, P)]
    seq = [rng.randrange(P) for _ in range(degree)]
    for _ in range(2 * degree + 8):
        seq.append(sum(c * a for c, a in zip(coeffs, seq[-degree:])) % P)
    gen = berlekamp_massey(seq, P)
    ell = len(gen) - 1
    assert gen[-1] == 1
    assert ell <= degree
    for k in range(len(seq) - ell):
        assert sum(g * seq[k + i] for i, g in enumerate(gen)) % P == 0


def test_berlekamp_massey_degree_exact_for_generic_plants():
    rng = random.Random(99)
    hits = 0
    for _ in range(30):
        degree = rng.randint(1, 50)
        coeffs = [rng.randrange(P) for _ in range(degree - 1)] + [rng.randrange(1, P)]
        seq = [rng.randrange(P) for _ in range(degree)]
        for _ in range(2 * degree + 8):
            seq.append(sum(c * a for c, a in zip(coeffs, seq[-degree:])) % P)
        hits += len(berlekamp_massey(seq, P)) - 1 == degree
    assert hits == 30


def test_long_sums_stay_exact_near_the_prime_limit():
    # the Wiedemann inner products sum n products below 2**50 each, so at
    # n = 50,000 a plain int64 sum wraps around many times
    p = 33554393  # the largest prime below 2**25
    n = 50_000
    rng = np.random.default_rng(2025)
    u = rng.integers(0, p, size=(n, 3), dtype=np.int64)
    w = rng.integers(0, p, size=(n, 3), dtype=np.int64)
    cols_u = [u[:, i].tolist() for i in range(3)]
    cols_w = [w[:, j].tolist() for j in range(3)]
    exact = [[sum(a * b for a, b in zip(cu, cw)) % p for cw in cols_w] for cu in cols_u]
    assert _matmul_mod(u.T, w, p).tolist() == exact
    assert int(_matmul_mod(u[:, 0], w[:, 0], p)) == exact[0][0]
    # past 2**31.5 a single product overflows, which must fail loudly
    with pytest.raises(ValueError, match="too large"):
        berlekamp_massey([1, 2, 3, 4], (1 << 61) - 1)


def test_minimal_polynomial_divides_characteristic_polynomial():
    rng = np.random.default_rng(17)
    n = 30
    dense = rng.integers(0, P, size=(n, n))
    u = rng.integers(0, P, size=n)
    v = rng.integers(0, P, size=n)
    seq = []
    w = v.copy()
    for _ in range(2 * n + 4):
        seq.append(int(u.dot(w) % P))
        w = (dense @ w) % P
    gen = berlekamp_massey(seq, P)
    char = oracles.charpoly_mod_p(dense, P)
    assert oracles.poly_divides(gen, char, P)


def test_precondition_matches_dense_computation():
    rng = random.Random(19)
    for _ in range(10):
        nr, nc = rng.randint(2, 20), rng.randint(2, 20)
        m = random_fp(rng, nr, nc, 0.4)
        op = precondition(m, seed=rng.randrange(2 ** 30))
        dense = oracles.dense(m)
        b_dense = (np.diag(op.d1) @ dense.T % P @ np.diag(op.d2) % P
                   @ dense % P @ np.diag(op.d1)) % P
        for j in range(nc):
            e = np.zeros(nc, dtype=np.int64)
            e[j] = 1
            assert np.array_equal(op.apply(e), b_dense[:, j] % P)


def test_precondition_identity_diagonals_give_gram_operator():
    rng = np.random.default_rng(23)
    dense = rng.integers(0, P, size=(12, 9))
    m = sparse_from_dense(dense)
    op = PreconditionedOperator(m, np.ones(9, dtype=np.int64),
                                np.ones(12, dtype=np.int64))
    x = rng.integers(0, P, size=9)
    assert np.array_equal(op.apply(x), (dense.T @ (dense @ x % P)) % P)


def test_precondition_preserves_rank():
    rng = random.Random(29)
    agree = 0
    for i in range(100):
        nr, nc = rng.randint(2, 15), rng.randint(2, 15)
        m = random_fp(rng, nr, nc, 0.35)
        op = precondition(m, seed=i)
        dense = oracles.dense(m)
        b = (np.diag(op.d1) @ dense.T % P @ np.diag(op.d2) % P
             @ dense % P @ np.diag(op.d1)) % P
        (ra,) = _dense_ranks(dense, (P,))
        (rb,) = _dense_ranks(b, (P,))
        assert rb <= ra
        agree += rb == ra
    assert agree >= 95


def test_wiedemann_trivial_cases():
    assert wiedemann_rank(FpSparseMatrix(3, 3, P, {}), seed=0).rank == 0
    # for the identity B = D1^2 D2 is diagonal, so u^T B^k u is the sum over
    # its distinct eigenvalues l of w_l l^k, w_l the sum of u_i^2 over the i
    # with d1_i^2 d2_i = l: the bound is the number of l with w_l != 0, and
    # in a field this small some of the 100 eigenvalues often collide
    ident = FpSparseMatrix(100, 100, P, {(i, i): 1 for i in range(100)})
    bounds = []
    for seed in range(10):
        d1, d2, u = oracles.reference_draws(ident, seed)
        weights = {}
        for a, b, c in zip(d1.tolist(), d2.tolist(), u.tolist()):
            eigenvalue = a * a * b % P
            weights[eigenvalue] = (weights.get(eigenvalue, 0) + c * c) % P
        bounds.append(_scalar_wiedemann_bound(ident, seed))
        assert bounds[-1] == sum(1 for w in weights.values() if w)
    assert wiedemann_rank(ident, seed=0).rank == max(bounds[:3])
    big = FpSparseMatrix(100, 100, 1000003, {(i, i): 1 for i in range(100)})
    for seed in range(5):
        assert wiedemann_rank(big, seed=seed).rank == 100


def test_draw_golden_values():
    # the first entries of stream 3 (the start vector) at seed 1, and of
    # stream 2 (D2) at the largest seed
    assert _draw(1, 3, 8, 0, 3323).tolist() == [545, 2760, 2482, 3274, 2780, 2905, 859, 878]
    assert _draw(2 ** 62 - 1, 2, 4, 1, 10007).tolist() == [3653, 8061, 7409, 867]


def test_reference_splitmix64_matches_the_published_outputs():
    # splitmix64 started at state 0 outputs the finalizer of k * 0x9E3779B97F4A7C15
    gamma = 0x9E3779B97F4A7C15
    assert [oracles.splitmix64(k * gamma % 2 ** 64) for k in (1, 2, 3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_draw_matches_the_reference_draw():
    cases = [(0, 1, 50, 1, P), (7, 3, 200, 0, 1000003), (2 ** 62 - 1, 2, 30, 1, 33554393),
             (12345, 1, 0, 1, P), (3, 2, 1, 0, 2)]
    for seed, stream, size, low, high in cases:
        got = _draw(seed, stream, size, low, high)
        assert got.dtype == np.int64
        assert got.tolist() == oracles.reference_draw(seed, stream, size, low, high).tolist()
        assert all(low <= x < high for x in got.tolist())
    # the three streams of one seed differ, as do the same stream at two seeds
    d1, d2, u = (_draw(5, stream, 64, 0, P).tolist() for stream in (1, 2, 3))
    assert len({tuple(d1), tuple(d2), tuple(u), tuple(_draw(6, 1, 64, 0, P).tolist())}) == 4


def test_wiedemann_rejects_a_seed_out_of_range():
    m = FpSparseMatrix(3, 3, P, {(0, 0): 1})
    for seed in (-1, 2 ** 62):
        with pytest.raises(ValueError, match=f"seed .*{seed}"):
            wiedemann_rank(m, seed=seed)
        with pytest.raises(ValueError, match=f"seed .*{seed}"):
            rank_field("wiedemann", P, seed)
        # Gauss draws no seed
        assert rank_field("gauss", P, seed) == FP
    assert wiedemann_rank(m, seed=2 ** 62 - 1).rank == 1


def test_wiedemann_matches_gauss_on_g5_differentials():
    mats = [reduce_mod_p(m, FP) for m in g5_differentials()]
    assert mats
    total = equal = 0
    for m in mats:
        expect = gauss_rank(m).rank
        for seed in range(100 // len(mats) + 1):
            got = wiedemann_rank(m, seed=seed).rank
            assert got <= expect
            total += 1
            equal += got == expect
    assert equal >= 0.95 * total


def test_wiedemann_monotone_soundness():
    rng = random.Random(31)
    for i in range(40):
        m = random_fp(rng, rng.randint(2, 35), rng.randint(2, 35),
                      rng.uniform(0.03, 0.4))
        assert wiedemann_rank(m, seed=i).rank <= gauss_rank(m).rank


def traced_scalar_bound(m, seed):
    """(bound, pushed terms, apply calls) of one `_scalar_wiedemann_bound` run."""
    pushed = []
    applies = [0]
    push, apply = _BMState.push, PreconditionedOperator.apply

    def recording_push(self, a):
        pushed.append(a)
        push(self, a)

    def counting_apply(self, x):
        applies[0] += 1
        return apply(self, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_BMState, "push", recording_push)
        mp.setattr(PreconditionedOperator, "apply", counting_apply)
        bound = _scalar_wiedemann_bound(m, seed)
    return bound, pushed, applies[0]


def assert_wiedemann_matches_reference(m, seeds):
    """Runs at each seed agree with the reference loop."""
    for seed in seeds:
        bound, pushed, applies = traced_scalar_bound(m, seed)
        ref_bound, ref_pushed = oracles.reference_wiedemann_bound(m, seed)
        assert pushed == ref_pushed
        assert bound == ref_bound
        # B is symmetric: two terms per application
        assert applies == len(pushed) // 2


def test_wiedemann_matches_reference_on_differentials():
    count = 0
    for parity, variant in itertools.product(Parity, Variant):
        for g in range(2, 6):
            spec = ComplexSpec(parity, variant, g)
            top = 2 * (g - 1)
            slices = {v: enumerate_basis(spec, v) for v in range(1, top + 1)}
            for v in range(2, top + 1):
                m = reduce_mod_p(differential_matrix(slices[v], slices[v - 1]), FP)
                if m.entries:
                    assert_wiedemann_matches_reference(m, (0, 1, 2))
                    count += 1
    assert count >= 9


def wiedemann_test_matrices():
    """Seeded random matrices at four primes, with 1 x n, n x 1, zero,
    identity and dense shapes."""
    rng = random.Random(47)
    for p in (3323, 10007, 1000003, 33554393):
        yield FpSparseMatrix(5, 7, p, {})
        yield FpSparseMatrix(9, 9, p, {(i, i): 1 for i in range(9)})
        for nr, nc in ((1, 12), (12, 1), (1, 1)):
            yield random_fp(rng, nr, nc, 0.7, p)
        # dense rows and columns: near 2**25 their sums outgrow float64
        yield random_fp(rng, 40, 40, 1.0, p)
        for _ in range(6):
            yield random_fp(rng, rng.randint(2, 30), rng.randint(2, 30),
                            rng.uniform(0.05, 0.5), p)
        # low rank: a product through a thin middle
        k = rng.randint(1, 4)
        a = np.array([[rng.randrange(p) for _ in range(k)] for _ in range(15)])
        b = np.array([[rng.randrange(p) for _ in range(11)] for _ in range(k)])
        yield sparse_from_dense(_matmul_mod(a, b, p), p)


def test_wiedemann_matches_reference_on_random_matrices():
    for i, m in enumerate(wiedemann_test_matrices()):
        assert_wiedemann_matches_reference(m, (i, i + 1))


def test_wiedemann_rank_builds_the_matrix_arrays_once():
    # only the diagonals depend on the seed, so the three seeds share one
    # set of arrays and still give the reference bounds
    rng = random.Random(61)
    m = random_fp(rng, 20, 24, 0.3)
    calls = [0]
    to_arrays = FpSparseMatrix.to_arrays

    def counting_to_arrays(self):
        calls[0] += 1
        return to_arrays(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FpSparseMatrix, "to_arrays", counting_to_arrays)
        got = wiedemann_rank(m, seed=5).rank
    assert calls[0] == 1
    ref = max(oracles.reference_wiedemann_bound(m, s)[0] for s in (5, 6, 7))
    assert got == min(ref, 20)


def counted_wiedemann_rank(m, seed, **kwargs):
    """(`wiedemann_rank` result, seeds its `_scalar_wiedemann_bound` calls ran)."""
    from gchom import linalg

    seeds = []
    real = linalg._scalar_wiedemann_bound

    def counting(matrix, s, arrays=None):
        seeds.append(s)
        return real(matrix, s, arrays)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_scalar_wiedemann_bound", counting)
        return wiedemann_rank(m, seed, **kwargs), seeds


def test_wiedemann_rank_stops_once_its_bound_meets_the_cap():
    # full rank: the first bound meets the default cap, the nonempty row count
    ident = FpSparseMatrix(9, 9, 1000003, {(i, i): 1 for i in range(9)})
    got, seeds = counted_wiedemann_rank(ident, 4)
    assert (got.rank, seeds) == (9, [4])
    # rank 1 below two nonempty rows and columns: every seed is tried ...
    ones = FpSparseMatrix(3, 4, P, {(i, j): 1 for i in (0, 2) for j in (1, 3)})
    got, seeds = counted_wiedemann_rank(ones, 7)
    assert (got.rank, seeds) == (1, [7, 8, 9])
    # ... unless a cap proves the rank, and a cap never adds seeds
    assert counted_wiedemann_rank(ones, 7, cap=1) == (got, [7])
    assert counted_wiedemann_rank(ones, 7, cap=50) == (got, [7, 8, 9])
    assert counted_wiedemann_rank(ones, 7, seeds=2) == (got, [7, 8])
    empty = FpSparseMatrix(3, 3, P, {})
    assert counted_wiedemann_rank(empty, 0, cap=3) == (RankResult(0, "wiedemann", False, P, 0), [])


def test_wiedemann_rank_with_a_cap_reports_the_best_of_its_seeds():
    rng = random.Random(67)
    for i in range(30):
        m = random_fp(rng, rng.randint(2, 25), rng.randint(2, 25), rng.uniform(0.03, 0.3))
        bounds = [oracles.reference_wiedemann_bound(m, s)[0] for s in (i, i + 1, i + 2)]
        best = max(bounds)
        # the true rank caps every bound; a cap at the rank stops at the first seed meeting it
        rank = gauss_rank(m).rank
        got, seeds = counted_wiedemann_rank(m, i, cap=rank)
        assert got.rank == best
        tried = 0 if rank == 0 else bounds.index(rank) + 1 if rank in bounds else 3
        assert len(seeds) == tried
        assert wiedemann_rank(m, i).rank == best


def test_berlekamp_massey_state_matches_reference_state():
    # long enough for the term buffer to grow several times
    rng = random.Random(53)
    for p in (3323, 1000003, 33554393):
        for length in (1, 63, 64, 65, 200, 300):
            degree = rng.randint(1, 120)
            seq = [rng.randrange(p) for _ in range(length)]
            for k in range(degree, length):
                if rng.random() < 0.9:
                    seq[k] = sum(seq[k - i] * (i + 1) for i in range(1, degree + 1)) % p
            state, ref = _BMState(p), oracles._ReferenceBMState(p)
            for a in seq:
                state.push(a)
                ref.push(a)
                assert (state.L, state.last_discrepancy) == (ref.L, ref.last_discrepancy)
            assert state.generator() == ref.generator()


def test_berlekamp_massey_last_discrepancy_stays_within_twice_the_length():
    # why the scalar stop rule needs only processed >= 2L + margin: after
    # every push the last nonzero discrepancy lies at most 2L terms in
    rng = random.Random(59)
    for p in (3323, 1000003):
        for _ in range(60):
            length = rng.randint(1, 160)
            degree = rng.randint(1, 50)
            seq = [rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(length)]
            for k in range(degree, length):
                # a recurrence that holds for stretches and then breaks
                if rng.random() < 0.9:
                    seq[k] = sum(seq[k - i] * (i + 3) for i in range(1, degree + 1)) % p
            state = _BMState(p)
            for a in seq:
                state.push(a)
                assert state.last_discrepancy <= 2 * state.L


def test_wiedemann_deterministic_per_seed():
    rng = random.Random(41)
    m = random_fp(rng, 25, 25, 0.2)
    a = wiedemann_rank(m, seed=1234)
    b = wiedemann_rank(m, seed=1234)
    assert a == b
    assert a == RankResult(a.rank, "wiedemann", False, P, 1234)


def test_rank_nullity_cross_check():
    for parity, g in ((Parity.EVEN, 5), (Parity.ODD, 4)):
        spec = ComplexSpec(parity, Variant.FULL, g)
        top = 2 * (g - 1)
        slices = {v: enumerate_basis(spec, v) for v in range(2, top + 1)}
        ranks = {}
        for v in range(3, top + 1):
            m = differential_matrix(slices[v], slices[v - 1])
            ranks[v] = gauss_rank(reduce_mod_p(m, FP)).rank
        for v in range(2, top + 1):
            out = ranks.get(v, 0)
            into = ranks.get(v + 1, 0)
            assert out + into <= len(slices[v])


def test_report_line_format():
    r = RankResult(17, "gauss", True, 3323, 42)
    assert r.report_line() == "rank=17 method=gauss prime=3323 seed=42 certified=true"
    w = RankResult(3, "wiedemann", False, 10007, 7)
    assert w.report_line() == "rank=3 method=wiedemann prime=10007 seed=7 certified=false"


def test_linalg_suite_ranks_at_its_prime_up_to_its_loop_order(monkeypatch):
    from gchom import checks

    seen = []
    real = checks._wiedemann_rank

    def recording(m, seed, *args):
        seen.append((m.p, m.nrows, m.ncols))
        return real(m, seed, *args)

    monkeypatch.setattr(checks, "_wiedemann_rank", recording)
    results = checks.suite_linalg(num_random=10, prime=10007, max_loops=4)
    assert all(r.passed for r in results)
    tables = [(10007, m.nrows, m.ncols) for m in checks._table_differentials(4, 4)]
    assert len(seen) == 10 + len(tables) and seen[10:] == tables
    assert {p for p, _, _ in seen} == {10007}
    with pytest.raises(ValueError, match="2\\*\\*25"):
        checks.suite_linalg(prime=33554467)
