import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gchom.complexes import ComplexSpec, Variant, differential_matrix, enumerate_basis
from gchom.graphs import Parity
from gchom.linalg import (
    MARKOWITZ,
    FpSparseMatrix,
    PreconditionedOperator,
    PrimeField,
    RankResult,
    TwoPhase,
    _matmul_mod,
    berlekamp_massey,
    gauss_rank,
    precondition,
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
    assert gauss_rank(m, TwoPhase(frozenset({0, 4}), frozenset({9}))).rank == 30


def test_gauss_strategy_invariance():
    rng = random.Random(11)
    for _ in range(25):
        m = random_fp(rng, rng.randint(2, 25), rng.randint(2, 25),
                      rng.uniform(0.05, 0.5))
        base = gauss_rank(m, MARKOWITZ).rank
        pr = frozenset(rng.sample(range(m.nrows), min(2, m.nrows)))
        pc = frozenset(rng.sample(range(m.ncols), min(2, m.ncols)))
        assert gauss_rank(m, TwoPhase(pr, pc)).rank == base
    with pytest.raises(ValueError):
        gauss_rank(m, "fancy")


def test_gauss_matches_dense_oracle():
    rng = random.Random(13)
    from gchom.linalg import _dense_rank_mod_p

    for _ in range(30):
        nr, nc = rng.randint(1, 20), rng.randint(1, 20)
        m = random_fp(rng, nr, nc, rng.uniform(0.05, 0.6))
        assert gauss_rank(m).rank == _dense_rank_mod_p(m.to_dense(), P)


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
    rng = np.random.Generator(np.random.PCG64(2025))
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
        dense = m.to_dense()
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
    from gchom.linalg import _dense_rank_mod_p

    rng = random.Random(29)
    agree = 0
    for i in range(100):
        nr, nc = rng.randint(2, 15), rng.randint(2, 15)
        m = random_fp(rng, nr, nc, 0.35)
        op = precondition(m, seed=i)
        dense = m.to_dense()
        b = (np.diag(op.d1) @ dense.T % P @ np.diag(op.d2) % P
             @ dense % P @ np.diag(op.d1)) % P
        ra = _dense_rank_mod_p(dense, P)
        rb = _dense_rank_mod_p(b, P)
        assert rb <= ra
        agree += rb == ra
    assert agree >= 95


def test_wiedemann_trivial_cases():
    assert wiedemann_rank(FpSparseMatrix(3, 3, P, {}), 1, seed=0).rank == 0
    # the identity's preconditioned spectrum is uniform random, so single
    # seeds can lose one degree to an eigenvalue collision in a field this
    # small; the default seed triple is collision-free
    ident = FpSparseMatrix(100, 100, P, {(i, i): 1 for i in range(100)})
    assert wiedemann_rank(ident, 1, seed=0).rank == 100
    big = FpSparseMatrix(100, 100, 1000003, {(i, i): 1 for i in range(100)})
    for seed in range(5):
        assert wiedemann_rank(big, 1, seed=seed).rank == 100


def test_wiedemann_matches_gauss_on_g5_differentials():
    mats = [reduce_mod_p(m, FP) for m in g5_differentials()]
    assert mats
    total = equal = 0
    for m in mats:
        expect = gauss_rank(m).rank
        for seed in range(100 // len(mats) + 1):
            got = wiedemann_rank(m, 1, seed=seed).rank
            assert got <= expect
            total += 1
            equal += got == expect
    assert equal >= 0.95 * total


def test_wiedemann_monotone_soundness():
    rng = random.Random(31)
    for i in range(40):
        m = random_fp(rng, rng.randint(2, 35), rng.randint(2, 35),
                      rng.uniform(0.03, 0.4))
        gr = gauss_rank(m).rank
        for blocking in (1, 3):
            wr = wiedemann_rank(m, blocking, seed=i).rank
            assert wr <= gr


def test_block_wiedemann_usually_tight():
    rng = random.Random(37)
    equal = total = 0
    for i in range(20):
        m = random_fp(rng, rng.randint(4, 30), rng.randint(4, 30), 0.25)
        gr = gauss_rank(m).rank
        wr = wiedemann_rank(m, 4, seed=i).rank
        total += 1
        equal += wr == gr
    assert equal >= 0.9 * total


def test_wiedemann_deterministic_per_seed():
    rng = random.Random(41)
    m = random_fp(rng, 25, 25, 0.2)
    a = wiedemann_rank(m, 1, seed=1234)
    b = wiedemann_rank(m, 1, seed=1234)
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
