import json
import os

import pytest

import oracles
from conftest import assert_no_child_left, needs_fork, no_fork
from gchom import cohomology, complexes, linalg
from gchom.cache import FileCache
from gchom.graphs import Parity
from gchom.complexes import _FORK_FLOOR, _NONZEROS_PER_ITEM, ComplexSpec, Variant
from gchom.cohomology import (
    EXACT,
    EXTERNAL,
    KNOWN_VALUES,
    UNCERTAIN,
    UPPER_BOUND,
    CohomologyRow,
    CohomologyTable,
    GeneratorCapExceeded,
    cohomology_dims,
    compare_with_registry,
    euler_characteristic,
    registry_matches,
    render_text,
)


def table(parity, variant, loops, **kw):
    return cohomology_dims(ComplexSpec(parity, variant, loops), **kw)


def test_even_g3_table():
    t = table(Parity.EVEN, Variant.FULL, 3)
    assert t.dims() == {0: 1, -1: 0, -2: 0}
    assert t.row(0).dim == 1
    chain, coh = euler_characteristic(t)
    assert chain == coh == 1


def test_even_g3_certification_requires_second_prime():
    t1 = table(Parity.EVEN, Variant.FULL, 3)
    # h = 1 > 0 with a single prime cannot be certified...
    assert t1.row(0).h == 1
    t2 = table(Parity.EVEN, Variant.FULL, 3, confirm_prime=10007)
    assert t2.row(0).certified


class _NoFetch:
    """Provider that fails any fetch: the arguments must be rejected first."""

    def basis(self, spec, vertices):
        raise AssertionError(f"basis V={vertices} fetched")

    matrix = basis


def test_confirm_prime_is_validated_before_any_fetch():
    spec = ComplexSpec(Parity.EVEN, Variant.FULL, 3)
    # a prime agreeing with itself would certify the h = 1 row at k = 0
    with pytest.raises(ValueError, match="differ"):
        cohomology_dims(spec, prime=3323, confirm_prime=3323, cache=_NoFetch())
    with pytest.raises(ValueError, match="prime"):
        cohomology_dims(spec, confirm_prime=10, cache=_NoFetch())


def test_confirm_prime_with_wiedemann_is_an_error_before_any_fetch():
    # Wiedemann ranks are lower bounds, which a second prime cannot certify
    spec = ComplexSpec(Parity.ODD, Variant.FULL, 4)
    with pytest.raises(ValueError, match="wiedemann"):
        cohomology_dims(spec, method="wiedemann", confirm_prime=10007, cache=_NoFetch())


def test_wiedemann_prime_is_validated_before_any_fetch():
    # 33554467 is the least prime above 2**25, too large for the Wiedemann operator
    spec = ComplexSpec(Parity.ODD, Variant.FULL, 6)
    with pytest.raises(ValueError, match="2\\*\\*25"):
        cohomology_dims(spec, method="wiedemann", prime=33554467, cache=_NoFetch())
    with pytest.raises(ValueError, match="unknown method"):
        cohomology_dims(spec, method="lu", cache=_NoFetch())


def test_wiedemann_seed_is_validated_before_any_fetch():
    # the no-fetch cache has no slice sizes either
    spec = ComplexSpec(Parity.ODD, Variant.FULL, 4)
    for seed in (-1, 2 ** 62):
        with pytest.raises(ValueError, match=f"seed .*{seed}"):
            cohomology_dims(spec, method="wiedemann", seed=seed, cache=_NoFetch())


def test_odd_small_tables():
    assert table(Parity.ODD, Variant.FULL, 2).dims() == {-3: 1}
    t3 = table(Parity.ODD, Variant.FULL, 3)
    assert t3.dims()[-3] == 1
    assert all(h == 0 for k, h in t3.dims().items() if k != -3)
    t4 = table(Parity.ODD, Variant.FULL, 4)
    assert t4.dims()[-3] == 1
    assert t4.dims()[-4] == 0


def test_odd_g5_matches_published_row():
    t = table(Parity.ODD, Variant.FULL, 5, confirm_prime=10007)
    assert t.dims()[-3] == 2
    assert t.dims()[-4] == 0
    assert t.dims()[-5] == 0
    comps = compare_with_registry(t)
    assert registry_matches(comps)


def test_full_and_triconnected_agree_where_nonempty():
    for parity, g in ((Parity.EVEN, 5), (Parity.ODD, 4), (Parity.ODD, 5)):
        full = table(parity, Variant.FULL, g)
        tri = table(parity, Variant.TRICONNECTED, g)
        assert any(r.dim for r in tri.rows)
        full_h = {k: h for k, h in full.dims().items() if h}
        tri_h = {k: h for k, h in tri.dims().items() if h}
        assert full_h == tri_h


def test_wiedemann_method_zero_rows_certified():
    t = table(Parity.ODD, Variant.FULL, 4, method="wiedemann", seed=0)
    for row in t.rows:
        assert row.h >= 0
        if row.h == 0:
            assert row.certified
    assert t.dims()[-3] == 1


def test_nonnegative_dimensions_everywhere():
    for parity in Parity:
        for g in (3, 4, 5):
            t = table(parity, Variant.FULL, g)
            assert all(r.h >= 0 for r in t.rows)


def test_generator_cap(monkeypatch):
    monkeypatch.setattr(cohomology, "DEFAULT_GENERATOR_CAP", 3)
    with pytest.raises(GeneratorCapExceeded):
        table(Parity.ODD, Variant.FULL, 5)


def test_registry_lookups():
    v = KNOWN_VALUES.lookup(3, 11, -6)
    assert v.value == 7 and v.flag == UNCERTAIN
    assert KNOWN_VALUES.lookup(3, 11, -7).flag == UNCERTAIN
    assert KNOWN_VALUES.lookup(2, 13, 10).flag == UPPER_BOUND
    assert KNOWN_VALUES.lookup(2, 11, 3).value == 2
    assert KNOWN_VALUES.lookup(2, 3, 0).value == 1
    assert KNOWN_VALUES.lookup(2, 29, 0).value == 120
    assert KNOWN_VALUES.lookup(3, 17, -17).flag == EXTERNAL
    assert KNOWN_VALUES.lookup(3, 2, -3).flag == EXACT
    assert KNOWN_VALUES.lookup(2, 99, 0) is None
    assert len(KNOWN_VALUES) > 100
    for entry in KNOWN_VALUES.entries():
        assert entry.source


def test_uncertain_entries_compare_as_upper_bounds():
    t = table(Parity.ODD, Variant.FULL, 4)
    comps = compare_with_registry(t)
    by_k = {c.k: c for c in comps}
    assert by_k[-3].status == "match"
    # fabricate a table exceeding an uncertain bound to see the violation path
    from gchom.cohomology import CohomologyRow, CohomologyTable

    fake = CohomologyTable(
        ComplexSpec(Parity.ODD, Variant.FULL, 11), 3323, "gauss",
        (CohomologyRow(-6, 100, 0, 0, 100, False),),
    )
    comp = compare_with_registry(fake)[0]
    assert comp.status == "bound_violated"
    assert not registry_matches([comp])


def test_json_and_text_rendering():
    t = table(Parity.ODD, Variant.FULL, 3)
    payload = json.loads(t.to_json())
    assert set(payload) == {"spec", "prime", "method", "rows"}
    assert payload["spec"] == {"parity": "odd", "variant": "full", "loops": 3}
    row_keys = {"k", "dim", "rank_in", "rank_out", "h", "certified"}
    assert all(set(r) == row_keys for r in payload["rows"])
    text = render_text(t)
    lines = text.splitlines()
    assert lines[0].split() == ["k", "dim", "rank", "h"]
    assert len(lines) == len(t.rows) + 1


def test_euler_characteristic_identity():
    for parity in Parity:
        for g in (3, 4, 5):
            t = table(parity, Variant.FULL, g)
            chain, coh = euler_characteristic(t)
            assert chain == coh


# ---------------------------------------------------------------------------
# Ranks in forked shares.
# ---------------------------------------------------------------------------

SPECS = [ComplexSpec(parity, variant, g) for parity in Parity for variant in Variant
         for g in range(2, 7)]
RUNS = [{"confirm_prime": 10007}, {}, {"method": "wiedemann", "seed": 5}]


@pytest.fixture(scope="module")
def filled_cache(tmp_path_factory):
    """A `FileCache` holding every basis and differential of `SPECS`."""
    cache = FileCache(tmp_path_factory.mktemp("cache"))
    for spec in SPECS:
        cohomology_dims(spec, cache=cache)
    return cache


def _matrices(spec, cache):
    """V -> the differential leaving V, for the V that `cohomology_dims` ranks."""
    return {v: cache.matrix(spec, v) for v in cohomology._slice_range(spec)
            if v - 1 in cohomology._slice_range(spec)
            and len(cache.basis(spec, v)) and len(cache.basis(spec, v - 1))}


@needs_fork
def test_forked_ranks_give_the_tables_of_one_process(monkeypatch, forks, filled_cache):
    counts = [len(_matrices(spec, filled_cache)) for spec in SPECS]
    forked = [cohomology_dims(spec, cache=filled_cache, **run) for spec in SPECS for run in RUNS]
    # a table of two matrices or more forks a worker per matrix, up to two
    assert len(forks) == len(RUNS) * sum(min(count, 3) - 1 for count in counts if count)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork)
    serial = [cohomology_dims(spec, cache=filled_cache, **run) for spec in SPECS for run in RUNS]
    assert forked == serial
    assert_no_child_left()


def test_deal_gives_the_heaviest_to_the_least_loaded_share():
    weights = [2, 18, 222, 967, 1646, 1402, 787, 275]
    assert complexes._deal(weights, 1) == [[4, 5, 3, 6, 7, 2, 1, 0]]
    assert complexes._deal(weights, 2) == [[4, 6, 2, 0], [5, 3, 7, 1]]
    assert complexes._deal([1, 1, 0], 3) == [[0], [1], [2]]


@needs_fork
def test_a_rank_error_in_a_worker_reaches_the_caller(monkeypatch, forks, filled_cache):
    spec = ComplexSpec(Parity.ODD, Variant.FULL, 5)
    mats = _matrices(spec, filled_cache)
    # the first matrix of the last share, which a forked worker ranks
    v = list(mats)[complexes._deal([len(m.entries) for m in mats.values()], 3)[2][0]]
    real = cohomology.gauss_ranks

    def gauss_ranks(mat, primes):
        if mat.entries == mats[v].entries:
            raise ArithmeticError(f"no rank at V={v}")
        return real(mat, primes)

    monkeypatch.setattr(cohomology, "gauss_ranks", gauss_ranks)
    with pytest.raises(ArithmeticError, match=f"^no rank at V={v}$"):
        cohomology_dims(spec, confirm_prime=10007, cache=filled_cache)
    assert len(forks) == 2
    assert_no_child_left()


def test_ranks_stay_in_one_process_on_one_cpu_or_below_the_floor(monkeypatch, filled_cache):
    def work(spec):
        return sum(len(m.entries) for m in _matrices(spec, filled_cache).values())

    small = ComplexSpec(Parity.ODD, Variant.FULL, 5)
    large = ComplexSpec(Parity.ODD, Variant.FULL, 6)
    assert work(small) // _NONZEROS_PER_ITEM < _FORK_FLOOR <= work(large) // _NONZEROS_PER_ITEM
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    for run in RUNS:
        cohomology_dims(small, cache=filled_cache, **run)
    monkeypatch.setattr(complexes, "_FORK_FLOOR", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    for run in RUNS:
        cohomology_dims(large, cache=filled_cache, **run)


# ---------------------------------------------------------------------------
# Wiedemann tables: one seed, then the next seeds below the d∘d = 0 cap.
# ---------------------------------------------------------------------------


def _reference_table(spec, cache, seed):
    """The Wiedemann table whose ranks are the best reference bounds at
    seed, seed + 1 and seed + 2, with no cap."""
    fp = linalg.PrimeField(3323)
    ranks = {v: max(oracles.reference_wiedemann_bound(linalg.reduce_mod_p(m, fp), s)[0]
                    for s in (seed, seed + 1, seed + 2))
             for v, m in _matrices(spec, cache).items()}
    rows = []
    for v in cohomology._slice_range(spec):
        dim = len(cache.basis(spec, v))
        rank_out, rank_in = ranks.get(v, 0), ranks.get(v + 1, 0)
        h = dim - rank_out - rank_in
        rows.append(CohomologyRow(spec.degree_of(v), dim, rank_out, rank_in, h, h == 0))
    return CohomologyTable(spec, 3323, "wiedemann", tuple(rows))


@pytest.mark.parametrize("seed", [0, 1, 21])
def test_wiedemann_tables_are_the_best_of_three_reference_seeds(filled_cache, seed):
    for spec in SPECS:
        got = cohomology_dims(spec, method="wiedemann", seed=seed, cache=filled_cache)
        assert got == _reference_table(spec, filled_cache, seed), spec


class _CountingCache(FileCache):
    """A `FileCache` that records the V of every matrix fetch."""

    def __init__(self, root=None):
        super().__init__(root)
        self.fetched = []

    def matrix(self, spec, vertices):
        self.fetched.append(vertices)
        return super().matrix(spec, vertices)


@needs_fork
@pytest.mark.parametrize("rooted", [True, False])
def test_a_bound_below_its_cap_is_ranked_again_at_the_next_seeds(monkeypatch, forks,
                                                                 filled_cache, rooted):
    spec, seed = ComplexSpec(Parity.ODD, Variant.FULL, 6), 21
    mats = _matrices(spec, filled_cache)
    want = cohomology_dims(spec, method="wiedemann", seed=seed, cache=filled_cache)
    # the largest differential comes back one short at the first seed
    v = max(mats, key=lambda v: len(mats[v].entries))
    shape = (mats[v].nrows, mats[v].ncols)
    assert [(m.nrows, m.ncols) for m in mats.values()].count(shape) == 1
    real = linalg._scalar_wiedemann_bound

    def one_short(matrix, s, arrays=None):
        bound = real(matrix, s, arrays)
        return bound - 1 if (matrix.nrows, matrix.ncols) == shape and s == seed else bound

    def run():
        cache = _CountingCache(filled_cache.root.parent if rooted else None)
        got = cohomology_dims(spec, method="wiedemann", seed=seed, cache=cache)
        return got, cache.fetched

    # unpatched, every first bound meets its cap, so nothing is fetched twice
    got, fetched = run()
    assert got == want and fetched == list(mats)
    monkeypatch.setattr(linalg, "_scalar_wiedemann_bound", one_short)
    for pinned in (False, True):
        if pinned:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            monkeypatch.setattr(os, "fork", no_fork)
        forks.clear()
        got, fetched = run()
        assert got == want, pinned
        # the second round fetches v again, and at most its neighbours, whose caps rose
        again = fetched[len(mats):]
        assert fetched[:len(mats)] == list(mats) and v in again, pinned
        assert set(again) <= {v - 1, v, v + 1}, pinned
        assert bool(forks) != pinned
    assert_no_child_left()


def test_the_odd_g6_wiedemann_table_takes_one_seed_per_differential(monkeypatch,
                                                                     filled_cache):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    calls = [0]
    apply = linalg.PreconditionedOperator.apply

    def counting_apply(self, x):
        calls[0] += 1
        return apply(self, x)

    monkeypatch.setattr(linalg.PreconditionedOperator, "apply", counting_apply)
    spec = ComplexSpec(Parity.ODD, Variant.FULL, 6)
    cohomology_dims(spec, method="wiedemann", seed=21, cache=filled_cache)
    # a third of the 1,704 applications that three seeds per differential take
    assert calls[0] == 568
