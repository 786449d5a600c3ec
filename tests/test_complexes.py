import itertools

import pytest

from gchom.graphs import Multigraph, Parity, canonical_data, canonicalize
from gchom.complexes import (
    BasisSlice,
    ComplexSpec,
    Variant,
    _all_parallel_graphs,
    contract_edge,
    differential_matrix,
    dump_basis,
    enumerate_basis,
    graphs_by_edge_addition,
    load_basis,
    raw_slice,
    vertex_count,
    vertex_splits,
)

import oracles

THETA = Multigraph.from_edges(2, [(0, 1)] * 3)
K4 = Multigraph.from_edges(4, itertools.combinations(range(4), 2))

EVEN_FULL_3 = ComplexSpec(Parity.EVEN, Variant.FULL, 3)
ODD_FULL_2 = ComplexSpec(Parity.ODD, Variant.FULL, 2)


def test_vertex_count_examples():
    assert vertex_count(Parity.EVEN, 3, 0) == 4  # the tetrahedron slice
    assert vertex_count(Parity.EVEN, 3, 1) is None  # beyond top degree
    assert vertex_count(Parity.ODD, 2, -3) == 2  # the theta slice
    with pytest.raises(ValueError):
        vertex_count(Parity.EVEN, 1, 0)


def test_vertex_count_inverts_degree():
    for parity in Parity:
        for g in (2, 3, 4, 5):
            spec = ComplexSpec(parity, Variant.FULL, g)
            for v in range(2, 2 * (g - 1) + 1):
                assert vertex_count(parity, g, spec.degree_of(v)) == v


def test_enumerate_tetrahedron_slice():
    basis = enumerate_basis(EVEN_FULL_3, 4)
    assert len(basis) == 1
    assert basis.generators[0] == K4


def test_enumerate_theta_slice():
    basis = enumerate_basis(ODD_FULL_2, 2)
    assert len(basis) == 1
    assert basis.generators[0] == THETA


def test_enumerate_triconnected_g3():
    basis = enumerate_basis(ComplexSpec(Parity.EVEN, Variant.TRICONNECTED, 3), 4)
    assert [g for g in basis.generators] == [K4]


def test_out_of_range_slices_are_empty():
    assert len(enumerate_basis(EVEN_FULL_3, 5)) == 0  # no 5-vertex 7-edge graph
    assert len(enumerate_basis(EVEN_FULL_3, 1)) == 0
    assert raw_slice(3, 5) == ()


def test_generators_are_canonical_with_positive_sign():
    for g in (3, 4, 5):
        for v in range(2, 2 * (g - 1) + 1):
            for parity in Parity:
                basis = enumerate_basis(ComplexSpec(parity, Variant.FULL, g), v)
                for m in basis.generators:
                    res = canonicalize(m, parity)
                    assert res.canonical == m
                    assert res.sign == 1


def test_raw_slices_match_filter_all_multisets_oracle():
    # every slice whose full multiset space is small enough to scan
    cases = [(2, 2), (3, 2), (3, 3), (3, 4), (4, 3), (4, 4), (4, 5), (4, 6),
             (5, 3), (5, 4), (5, 5)]
    for g, v in cases:
        e = v + g - 1
        brute = oracles.naive_enumerate(v, e, min_degree=3, connected=True)
        mine = set()
        for m in raw_slice(g, v):
            best = min(
                oracles.relabel_sorted(m, p)
                for p in itertools.permutations(range(v))
            )
            mine.add(best)
        assert mine == brute, (g, v)


def test_raw_slices_match_degree_sequence_oracle():
    for g, v in [(4, 6), (5, 6), (6, 6), (5, 7)]:
        e = v + g - 1
        expected = oracles.degree_sequence_enumerate(v, e)
        assert set(raw_slice(g, v)) == expected, (g, v)


def test_triconnected_generators_are_full_generators():
    for parity in Parity:
        for g in (3, 4, 5):
            for v in range(4, 2 * (g - 1) + 1):
                tri = enumerate_basis(ComplexSpec(parity, Variant.TRICONNECTED, g), v)
                full = enumerate_basis(ComplexSpec(parity, Variant.FULL, g), v)
                assert set(tri.generators) <= set(full.generators)


def test_vertex_splits_keep_invariants():
    for parent in raw_slice(4, 4):
        for child in vertex_splits(parent):
            assert child.num_vertices == parent.num_vertices + 1
            assert child.num_edges == parent.num_edges + 1
            assert child.min_degree() >= 3


def test_orbit_pruned_raw_slice_matches_unpruned_splits():
    for g in range(2, 7):
        for v in range(3, 2 * g - 1):
            expected = {canonical_data(child)[0]
                        for parent in raw_slice(g, v - 1)
                        for child in oracles.all_vertex_splits(parent)}
            expected.update(_all_parallel_graphs(v, v + g - 1))
            assert set(raw_slice(g, v)) == expected, (g, v)


def test_orbit_weighted_differential_matches_per_edge_sum():
    for parity in Parity:
        for variant in Variant:
            for g in range(2, 6):
                spec = ComplexSpec(parity, variant, g)
                for v in range(3, 2 * g - 1):
                    src, dst = enumerate_basis(spec, v), enumerate_basis(spec, v - 1)
                    expected = oracles.per_edge_contractions(
                        src.generators, dst.index, parity, strict=variant is Variant.FULL)
                    got = differential_matrix(src, dst).entries
                    assert got == {(i, j): c for (j, i), c in expected.items()}, (spec, v)


def test_contract_parallel_edge_is_zero():
    for e in range(THETA.num_edges):
        assert contract_edge(THETA, e, Parity.ODD).is_zero


def test_contract_tetrahedron_even_is_zero():
    # contraction creates a parallel pair, which dies under even parity
    for e in range(K4.num_edges):
        assert contract_edge(K4, e, Parity.EVEN).is_zero


def test_contract_bad_index():
    with pytest.raises(IndexError):
        contract_edge(K4, 6, Parity.EVEN)


def test_differential_odd_g3_hand_computed():
    # two generators at V=4 (tetrahedron and the doubled ladder); contracting
    # the ladder's two single edges gives the same class with sign -1 each,
    # the tetrahedron contributes +1 from all six edges
    spec = ComplexSpec(Parity.ODD, Variant.FULL, 3)
    s4 = enumerate_basis(spec, 4)
    s3 = enumerate_basis(spec, 3)
    assert len(s4) == 2 and len(s3) == 1
    assert s4.generators[0] == K4
    m = differential_matrix(s4, s3)
    assert m.entries == {(0, 0): 6, (0, 1): -2}


def test_differential_empty_source():
    spec = EVEN_FULL_3
    src = enumerate_basis(spec, 5)
    dst = enumerate_basis(spec, 4)
    m = differential_matrix(src, dst)
    assert (m.nrows, m.ncols) == (1, 0)
    assert m.is_zero()


def test_differential_slice_mismatch():
    spec = EVEN_FULL_3
    s4 = enumerate_basis(spec, 4)
    with pytest.raises(ValueError):
        differential_matrix(s4, s4)
    other = enumerate_basis(ComplexSpec(Parity.ODD, Variant.FULL, 3), 3)
    with pytest.raises(ValueError):
        differential_matrix(s4, other)


@pytest.mark.parametrize("parity,variant,loops", [
    (p, v, g) for p in Parity for v in Variant
    for g in ((3, 4, 5) if p is Parity.EVEN else (2, 3, 4, 5))
])
def test_d_squared_is_zero(parity, variant, loops):
    spec = ComplexSpec(parity, variant, loops)
    top = 2 * (loops - 1)
    slices = {v: enumerate_basis(spec, v) for v in range(2, top + 1)}
    mats = {v: differential_matrix(slices[v], slices[v - 1])
            for v in range(3, top + 1)}
    for v in range(4, top + 1):
        assert mats[v - 1].matmul(mats[v]).is_zero(), (spec, v)


def test_basis_file_round_trip():
    for spec, v in [(EVEN_FULL_3, 4), (ODD_FULL_2, 2),
                    (ComplexSpec(Parity.ODD, Variant.FULL, 4), 5)]:
        basis = enumerate_basis(spec, v)
        text = dump_basis(basis)
        assert text.startswith("#gls ")
        loaded = load_basis(text)
        assert loaded == basis


def test_basis_file_rejects_count_mismatch():
    basis = enumerate_basis(EVEN_FULL_3, 4)
    text = dump_basis(basis).replace("count=1", "count=2")
    with pytest.raises(ValueError):
        load_basis(text)


def test_graphs_by_edge_addition_small():
    # all simple connected graphs on 4 vertices with 4 edges: the 4-cycle
    # and the triangle with a pendant edge
    out = graphs_by_edge_addition(4, 4, max_multiplicity=1, min_degree=1,
                                  connected=True)
    assert len(out) == 2
