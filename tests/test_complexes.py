import hashlib
import itertools
import os
import random
import threading
import time
from collections import Counter

import pytest

from gchom.graphs import (
    Multigraph,
    Parity,
    _is_zero,
    _neighbors,
    canonical_data,
    canonicalize,
)
from gchom import complexes, graphs
from gchom.complexes import (
    BasisSlice,
    ComplexSpec,
    Variant,
    _accepted_children,
    _all_parallel_graphs,
    _canonical_parent_form,
    _connected_simple_graphs,
    _edge_orbits,
    _generators_of,
    _raw_classes,
    _rows_graph,
    _slice_classes,
    _split_child,
    _split_orbit_reps,
    _split_takes,
    _split_work,
    basis_rows,
    contraction_entries,
    differential_matrix,
    dump_basis,
    enumerate_basis,
    load_basis,
    raw_slice,
)

import oracles
from conftest import assert_no_child_left, needs_fork, no_fork
from oracles import contract_edge, vertex_splits

THETA = Multigraph.from_edges(2, [(0, 1)] * 3)
K4 = Multigraph.from_edges(4, itertools.combinations(range(4), 2))

EVEN_FULL_3 = ComplexSpec(Parity.EVEN, Variant.FULL, 3)
ODD_FULL_2 = ComplexSpec(Parity.ODD, Variant.FULL, 2)

# sha256 of the graph lines, joined with newlines, of raw_slice(g, V), and
# their count; recorded from the dedup-based enumeration
PINNED_RAW_SLICES = {
    (6, 2): (1, "090b4ccee66d5a1d778d32fc55b5dbfd8b3901eccdaa1e441ea7ebe8f0756a18"),
    (6, 3): (6, "06290c784c13280246e06509fb166eaaa49ae383f3c98df607aebc5153443b99"),
    (6, 4): (40, "c74c9192edfe7a9abf31a0affd9a699b4ee5634e81b84b688b96be7531256118"),
    (6, 5): (135, "781b186a66cfd6086231ff0ff0e2d3a7b6fe0819da432fb684d4973aa51d2e8a"),
    (6, 6): (338, "86be2a0f1a47f86e6605f65f5490beaf209cc1d691e47a2c2c9e4dd58e3ec0f8"),
    (6, 7): (494, "eb43b4d56435a521130a002659adc387ed156150804763e29a7dc945380d1121"),
    (6, 8): (492, "ecd269b4c072f7e54cda124d83abadceaacc37e5143728b925462f818d6657e0"),
    (6, 9): (251, "2eb0a56c544f31d0ee90b2b3e3b7e84c0df41343f1fef6339a902a12454fde41"),
    (6, 10): (91, "5b95a696fd3cfd7dcaf1a2b51b56e0109f5f102f5d3ccd5d1120eeb4be68c563"),
    (7, 2): (1, "18c6c7653ae737f7020bc8fa0deb277596f5ebf4fb9da857c6d97226ca435f89"),
    (7, 3): (8, "67ae730094e253c4cc98ab47876dd1b0c51503913931e0693752a9e389fec33f"),
    (7, 4): (71, "88360378da6a1d878eb1f5338f5761cb80526831408e7c6693418aa889979f2a"),
    (7, 5): (366, "d5b10471e153a20570d4c9ae5d5696d0c0c52fbc24a4f3d3a93418d97f046950"),
    (7, 6): (1417, "4ce1295d516abba471a8f3851974f130de49dd423c522204e502874d07593c30"),
    (7, 7): (3494, "b864f2d4fc17111d6c69c75b1062312d1349365b3035463bfc9e4f3e1fd0d2aa"),
    (7, 8): (6047, "cbb1bf9b354ea991a251a32578c0c3805bd5944e1353de5900281e46b6be772e"),
    (7, 9): (6719, "2de86d6ed18433da7a7a7b9ca20e5f4dd6f3b65d83f4afdf7a326fe223c8c4dd"),
    (7, 10): (4987, "3d6c6fb51932f9aadac7202808ec8ef3c7e7e1a997b00aba33f7d39255644c16"),
    (7, 11): (2065, "3943e764d731604e7dd5db6b1e3b973fe721330019966f800f46b91853f447e0"),
    (7, 12): (509, "c3c086478e41e7ad88b915556bed15381a52095e2aa33f21109d88a32909c30f"),
}


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
            parents = raw_slice(g, v - 1)
            split_classes = {canonical_data(child)[0] for parent in parents
                             for child in oracles.all_vertex_splits(parent)}
            # canonical augmentation: every class reached by splitting is
            # accepted from exactly one (parent, split orbit) pair
            accepted = Counter(m for parent in parents for m, _ in _accepted_children(
                parent, _generators_of(parent)))
            assert accepted == Counter(split_classes), (g, v)
            expected = split_classes | set(_all_parallel_graphs(v, v + g - 1))
            assert set(raw_slice(g, v)) == expected, (g, v)


def test_connected_simple_supports_match_edge_addition_oracle():
    for v in range(1, 7):
        for max_edges in range(v - 1, 9):
            expected = set()
            for s in range(v - 1, max_edges + 1):
                expected.update(oracles.graphs_by_edge_addition(
                    v, s, max_multiplicity=1, min_degree=1 if v > 1 else 0,
                    connected=True))
            assert _connected_simple_graphs(v, max_edges) == expected, (v, max_edges)


def test_all_parallel_graphs_search_each_class_to_the_end_once(monkeypatch):
    """A support or all-parallel graph of a class found before stops at its first leaf."""
    reached = [0]
    leaf, label = graphs._leaf, graphs._canonical_data
    searches = []  # (form or None for a hit, leaves reached)

    def counting(*args):
        reached[0] += 1
        return leaf(*args)

    def spy(graph, *args, **kwargs):
        before = reached[0]
        data = label(graph, *args, **kwargs)
        searches.append((data[0] if len(data) == 4 else None, reached[0] - before))
        return data

    monkeypatch.setattr(graphs, "_leaf", counting)
    monkeypatch.setattr(graphs, "_canonical_data", spy)
    full = {}
    for g in range(2, 8):
        full[g] = 0
        for v in range(2, 2 * g - 1):  # the slices `raw_slice` makes
            searches.clear()
            found = _all_parallel_graphs(v, v + g - 1)
            forms = [form for form, _ in searches if form is not None]
            assert len(forms) == len(set(forms)) and set(found) <= set(forms), (g, v)
            assert all(leaves == 1 for form, leaves in searches if form is None), (g, v)
            full[g] += len(forms)
    # each labeled to the end the first time only: 434 such labelings at g=7 otherwise
    assert full == {2: 2, 3: 8, 4: 18, 5: 36, 6: 75, 7: 158}


def test_raw_slices_are_pinned():
    for (g, v), (count, digest) in PINNED_RAW_SLICES.items():
        graphs = raw_slice(g, v)
        assert len(graphs) == count, (g, v)
        text = "\n".join(m.to_line() for m in graphs)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (g, v)
        # strictly sorted: no class twice
        assert all(a.edges < b.edges for a, b in zip(graphs, graphs[1:])), (g, v)


def test_recorded_generators_generate_the_automorphism_group():
    for g in range(2, 7):
        for v in range(2, 2 * g - 1):
            for m, generators in _slice_classes(g, v).items():
                n = m.num_vertices
                assert oracles.permutation_group(generators, n) == oracles.automorphism_group(m), m
                for parity in Parity:
                    assert (_is_zero(m, parity, generators)
                            == canonicalize(m, parity).is_zero), (m, parity)


def test_slices_and_differentials_do_not_need_recorded_generators():
    def build(basis):
        out = {}
        for parity in Parity:
            for variant in Variant:
                spec = ComplexSpec(parity, variant, 5)
                slices = {v: basis(spec, v) for v in range(2, 9)}
                out[spec] = slices, {v: differential_matrix(slices[v], slices[v - 1]).entries
                                     for v in range(3, 9)}
        return out

    recorded = build(enumerate_basis)
    assert all((5, v) in _raw_classes for v in range(2, 9))
    saved = dict(_raw_classes)
    _raw_classes.clear()
    try:
        # the slices come back from their files, and none is enumerated
        unrecorded = build(lambda spec, v: load_basis(dump_basis(recorded[spec][0][v])))
        assert not _raw_classes  # every source took the fallback path
    finally:
        _raw_classes.update(saved)
    assert unrecorded == recorded


def test_file_loaded_differential_leaves_the_label_caches_alone():
    # odd full g=6, V=9 -> 8: 131 sources, forked on two or more CPUs; with no
    # slice enumerated, each is labeled once by the fallback, outside both caches
    spec = ComplexSpec(Parity.ODD, Variant.FULL, 6)
    src, dst = enumerate_basis(spec, 9), enumerate_basis(spec, 8)
    enumerated = differential_matrix(src, dst)
    saved = dict(_raw_classes)
    _raw_classes.clear()
    try:
        before = canonical_data.cache_info(), canonicalize.cache_info()
        loaded = differential_matrix(load_basis(dump_basis(src)), load_basis(dump_basis(dst)))
        assert (canonical_data.cache_info(), canonicalize.cache_info()) == before
        assert not _raw_classes
    finally:
        _raw_classes.update(saved)
    assert loaded.entries == enumerated.entries
    assert list(loaded.entries) == list(enumerated.entries)


def _built_child(parent, v, row, take):
    """The split of v, built from the parent's edge list as a sorted edge tuple."""
    n = parent.num_vertices
    edges = [e for e in parent.edges if v not in e] + [(v, n)]
    for (x, m), k in zip(row, take):
        edges += [(x, n)] * k + [(min(v, x), max(v, x))] * (m - k)
    return Multigraph(n + 1, tuple(sorted(edges)))


def _split_children(parent):
    """Every orbit-representative split child of parent, with its fresh edge."""
    nbrs = _neighbors(parent)
    for v, take in _split_orbit_reps(nbrs, _generators_of(parent)):
        yield _built_child(parent, v, nbrs[v], take), (v, parent.num_vertices)


def test_split_takes_match_the_product_filter():
    for d in range(1, 9):
        for cuts in itertools.product((0, 1), repeat=d - 1):
            counts, run = [], 1
            for cut in cuts:  # one multiplicity tuple per composition of d
                if cut:
                    counts.append(run)
                    run = 0
                run += 1
            counts = tuple(counts + [run])
            brute = tuple(take for take in itertools.product(*(range(m + 1) for m in counts))
                          if 2 <= sum(take) <= d - 2
                          and take <= tuple(m - k for m, k in zip(counts, take)))
            assert _split_takes(counts) == brute, counts


def test_split_child_rows_match_the_built_child():
    checked = 0
    for g in range(2, 7):
        for v in range(2, 2 * g - 2):
            for parent in raw_slice(g, v):
                nbrs = _neighbors(parent)
                deg = list(parent.degrees())
                for x, take in _split_orbit_reps(nbrs, _generators_of(parent)):
                    rows, child_deg = _split_child(nbrs, deg, x, take)
                    child = _built_child(parent, x, nbrs[x], take)
                    assert rows == _neighbors(child), (parent, x, take)
                    assert child_deg == list(child.degrees()), (parent, x, take)
                    assert _rows_graph(rows) == child
                    checked += 1
                assert nbrs == _neighbors(parent)  # the parent's rows are left alone
    assert checked > 10000


def _passes_stage_one(child, fresh):
    deg = child.degrees()
    pairs = [tuple(sorted((deg[u], deg[x]))) for u, x in set(child.edges)
             if child.multiplicity(u, x) == 1]
    return max(pairs) == tuple(sorted((deg[fresh[0]], deg[fresh[1]])))


def test_canonical_parent_test_is_invariant_under_relabeling():
    children = [pair for g in (5, 6) for v in range(2, 2 * g - 2)
                for parent in raw_slice(g, v) for pair in _split_children(parent)
                if _passes_stage_one(*pair)]
    rng = random.Random(71)
    kept = 0

    def parent_form(graph, fresh):
        accepted = _canonical_parent_form(_neighbors(graph), list(graph.degrees()), fresh)
        return None if accepted is None else accepted[0]

    for child, (a, b) in rng.sample(children, 200):
        perm = list(range(child.num_vertices))
        rng.shuffle(perm)
        form = parent_form(child, (a, b))
        fresh = (perm[a], perm[b]) if perm[a] < perm[b] else (perm[b], perm[a])
        assert parent_form(child.relabel(perm), fresh) == form, child
        kept += form is not None
    assert 0 < kept < 200


def test_canonical_augmentation_labels_only_the_children_past_every_stage(monkeypatch):
    # every parent of g=6 in one process: 1,836 children accepted and 163
    # labeled only to be rejected at the last stage; without the two-hop
    # stage 449 were, of 2,285 labelings, so a lost stage fails here
    parents = [item for v in range(2, 10) for item in _slice_classes(6, v).items()]
    split_classes = sum(len(raw_slice(6, v)) - len(_all_parallel_graphs(v, v + 5))
                        for v in range(3, 11))
    labeled = []

    def counting(graph, nbrs=None, known=None):
        labeled.append(graph)
        return canonical_data_uncached(graph, nbrs, known)

    canonical_data_uncached = complexes._canonical_data
    monkeypatch.setattr(complexes, "_canonical_data", counting)
    accepted = sum(1 for parent, generators in parents
                   for _ in _accepted_children(parent, generators))
    assert accepted == split_classes == 1836
    assert len(labeled) == 1999


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


def test_contraction_entries_drop_zero_images_and_check_missing_ones():
    # a trivalent odd g=4 generator with two edge orbits: contracting edge 2
    # gives a zero graph, contracting edge 0 a nonzero one
    graph = Multigraph.from_line("6 9 0 3 0 4 0 5 1 2 1 4 1 5 2 3 2 5 3 4")
    assert sorted(_edge_orbits(graph, _generators_of(graph))) == [0, 2]
    assert contract_edge(graph, 2, Parity.ODD).is_zero
    image = contract_edge(graph, 0, Parity.ODD)
    assert not image.is_zero
    targets = {image.canonical: 0}
    # the zero image is missing from the targets, but it is dropped as
    # zero, so strict mode does not raise
    entries = contraction_entries([graph], targets, Parity.ODD, strict=True)
    assert entries == {(0, 0): image.sign * _edge_orbits(graph, _generators_of(graph))[0]}
    assert entries == oracles.per_edge_contractions([graph], targets, Parity.ODD, strict=True)
    with pytest.raises(RuntimeError, match="missing from target slice"):
        contraction_entries([graph], {}, Parity.ODD, strict=True)
    assert contraction_entries([graph], {}, Parity.ODD, strict=False) == {}


def test_differential_matrix_leaves_the_label_caches_alone():
    for parity in Parity:
        for variant in Variant:
            spec = ComplexSpec(parity, variant, 5)
            slices = {v: enumerate_basis(spec, v) for v in range(2, 9)}
            before = canonical_data.cache_info(), canonicalize.cache_info()
            nnz = sum(differential_matrix(slices[v], slices[v - 1]).num_entries
                      for v in range(3, 9))
            assert nnz
            assert (canonical_data.cache_info(), canonicalize.cache_info()) == before, spec


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


@pytest.mark.parametrize("parity", list(Parity))
@pytest.mark.parametrize("variant", list(Variant))
def test_every_basis_file_up_to_g5_round_trips(parity, variant):
    for loops in range(2, 6):
        spec = ComplexSpec(parity, variant, loops)
        for v in range(2, 2 * (loops - 1) + 1):
            basis = enumerate_basis(spec, v)
            text = dump_basis(basis)
            assert load_basis(text) == basis, (spec, v)
            got_spec, got_v, rows = basis_rows(text)
            assert (got_spec, got_v) == (spec, v)
            assert rows.shape == (len(basis), 2 * (v + loops))


K4_HEAD = "#gls parity=odd variant=full loops=3 vertices=4 count={}\n"
K4_LINE = K4.to_line()  # 4 6 0 1 0 2 0 3 1 2 1 3 2 3


def test_basis_file_rejects_count_mismatch():
    basis = enumerate_basis(EVEN_FULL_3, 4)
    text = dump_basis(basis).replace("count=1", "count=2")
    with pytest.raises(ValueError, match="header count 2 != 1 graphs"):
        load_basis(text)
    with pytest.raises(ValueError, match="header count 1 != 2 graphs"):
        load_basis(K4_HEAD.format(1) + K4_LINE + "\n" + K4_LINE + "\n")


@pytest.mark.parametrize("body, message", [
    # the last token of the first line moved onto the second
    pytest.param(K4_LINE[:-2] + "\n3 " + K4_LINE, "expected 6 edges on line", id="moved"),
    pytest.param(K4_LINE[:-1] + "x\n" + K4_LINE, "invalid literal for int", id="letter"),
    pytest.param(K4_LINE + "\n" + K4_LINE.replace("0 1 0 2", "0 0 0 2"),
                 "self-edge at vertex 0", id="self-edge"),
    pytest.param(K4_LINE + "\n" + K4_LINE.replace("0 1 0 2", "0 2 0 1"),
                 "edge list not sorted", id="unsorted"),
    # np.fromstring saturates these to 2**63 - 1
    pytest.param(K4_LINE + "\n" + K4_LINE[:-1] + str(2 ** 63), "out of range", id="2**63"),
    pytest.param(K4_LINE + "\n" + K4_LINE[:-1] + str(2 ** 64 + 3), "out of range",
                 id="2**64+3"),
    pytest.param(K4_LINE + "\n" + str(2 ** 63 + 4) + K4_LINE[1:],
                 "not in the header's slice", id="vertex-count"),
])
def test_basis_file_rejects_malformed_lines(body, message):
    with pytest.raises(ValueError, match=message):
        load_basis(K4_HEAD.format(2) + body + "\n")


def test_basis_file_accepts_blank_lines_and_crlf():
    text = K4_HEAD.format(2).replace("\n", "\r\n") + "\r\n \r\n" + K4_LINE + "\r\n\r\n" \
        + K4_LINE + "\n\t\n"
    assert load_basis(text).generators == (K4, K4)
    empty = "#gls parity=odd variant=tri loops=3 vertices=4 count=0"
    assert len(load_basis(empty)) == len(load_basis(empty + "\n\n")) == 0


def test_basis_file_rejects_graphs_outside_the_header_slice():
    head = K4_HEAD.format(1)
    # the theta graph: 2 vertices; K4 less an edge: 4 vertices but 5 edges
    for line in ("2 3 0 1 0 1 0 1", "4 5 0 1 0 2 0 3 1 2 1 3"):
        with pytest.raises(ValueError, match="not in the header's slice"):
            load_basis(head + line + "\n")
    assert len(load_basis(head + K4.to_line() + "\n")) == 1


def test_graphs_by_edge_addition_small():
    # all simple connected graphs on 4 vertices with 4 edges: the 4-cycle
    # and the triangle with a pendant edge
    out = oracles.graphs_by_edge_addition(4, 4, max_multiplicity=1, min_degree=1,
                                          connected=True)
    assert len(out) == 2


# ---------------------------------------------------------------------------
# Work split across forked workers.
# ---------------------------------------------------------------------------


def _fresh_enumeration(max_loops):
    """Raw slices, their generators, bases and matrix entries from an empty memo."""
    _raw_classes.clear()
    slices = {(g, v): raw_slice(g, v) for g in range(2, max_loops + 1)
              for v in range(2, 2 * g - 1)}
    generators = dict(_raw_classes)
    matrices = {}
    for parity in Parity:
        for variant in Variant:
            for g in range(2, max_loops + 1):
                spec = ComplexSpec(parity, variant, g)
                bases = {v: enumerate_basis(spec, v) for v in range(2, 2 * g - 1)}
                # the entries' order too: it is the order a rank elimination meets them
                matrices[spec] = bases, {
                    v: list(differential_matrix(bases[v], bases[v - 1]).entries.items())
                    for v in range(3, 2 * g - 1)}
    return slices, generators, matrices


@needs_fork
def test_parallel_and_serial_runs_agree(monkeypatch, forks):
    saved = dict(_raw_classes)
    try:
        parallel = _fresh_enumeration(6)
        assert forks
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        serial = _fresh_enumeration(6)
    finally:
        _raw_classes.clear()
        _raw_classes.update(saved)
    for got, want in zip(parallel, serial):
        assert got == want
    assert_no_child_left()


@needs_fork
def test_missing_image_error_in_a_worker_reaches_the_caller(monkeypatch, forks):
    # the graph of the test above: its image under edge 0 is missing from
    # {}; the theta graph before it has no simple edge and looks nothing up
    graph = Multigraph.from_line("6 9 0 3 0 4 0 5 1 2 1 4 1 5 2 3 2 5 3 4")
    with pytest.raises(RuntimeError) as serial:
        contraction_entries([graph], {}, Parity.ODD, strict=True)
    assert not forks
    with pytest.raises(RuntimeError) as parallel:
        contraction_entries([THETA, graph], {}, Parity.ODD, strict=True)
    assert len(forks) == 1  # the graph went to the forked worker
    assert str(parallel.value) == str(serial.value)
    assert_no_child_left()


def test_deal_gives_equal_weights_round_robin():
    for n in range(10):
        for jobs in range(1, 5):
            assert complexes._deal([1] * n, jobs) == [list(range(k, n, jobs))
                                                      for k in range(jobs)]


@needs_fork
def test_split_work_maps_uneven_shares_in_item_order(forks):
    items = list(range(7))
    out = _split_work(lambda i: (i, os.getpid()), items)
    assert [i for i, _ in out] == list(range(7))
    # dealt round robin: item i ran in share i % 3, and share 0 here
    pids = [pid for _, pid in out]
    assert pids[0::3] == [os.getpid()] * 3
    assert pids[1::3] == [forks[0]] * 2 and pids[2::3] == [forks[1]] * 2
    assert items == [None] * 7
    assert_no_child_left()


@needs_fork
def test_split_work_runs_each_share_lightest_first_and_drops_what_it_has_done(forks):
    items = list("abcdef")

    def seen(item):
        return item, "".join(x or "." for x in items)

    # dealt heaviest first to the least-loaded share: [5, 1], [0, 3], [2, 4]
    out = _split_work(seen, items, [5, 1, 4, 2, 3, 6])
    # this process drops the workers' items after the fork; a worker sees
    # every item but those it has done
    assert out == [("a", "abc.ef"), ("b", ".b...f"), ("c", "abcd.f"),
                   ("d", "abcdef"), ("e", "abcdef"), ("f", ".....f")]
    assert items == [None] * 6
    assert len(forks) == 2
    assert_no_child_left()


@needs_fork
def test_split_work_reraises_a_worker_exception_and_reaps_every_worker(forks):
    def fn(item):
        if item == 1:
            raise ValueError(f"item {item} failed")
        return item

    with pytest.raises(ValueError, match="^item 1 failed$"):
        _split_work(fn, [0, 1, 2])
    assert len(forks) == 2
    assert_no_child_left()


@needs_fork
def test_split_work_kills_the_workers_when_the_parent_share_raises(forks):
    def fn(item):
        if item == 0:
            raise KeyError("item 0")
        time.sleep(60)  # killed long before this returns
        return item

    t0 = time.monotonic()
    with pytest.raises(KeyError, match="item 0"):
        _split_work(fn, [0, 1, 2])
    assert time.monotonic() - t0 < 30
    assert len(forks) == 2
    assert_no_child_left()


def _negated(n):
    return [-i for i in range(n)]


def test_split_work_does_not_fork_on_one_usable_cpu(monkeypatch):
    monkeypatch.setattr(complexes, "_FORK_FLOOR", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    items = list(range(1000))
    assert _split_work(lambda i: -i, items) == _negated(1000)
    assert items == [None] * 1000


def test_split_work_does_not_fork_below_the_floor_or_beside_a_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    floor = complexes._FORK_FLOOR
    assert _split_work(lambda i: -i, list(range(floor - 1))) == _negated(floor - 1)
    # weights in nonzeros: one nonzero short of the floor
    nonzeros = floor * complexes._NONZEROS_PER_ITEM - 1
    assert _split_work(lambda i: -i, [0, 1], [nonzeros, 0]) == [0, -1]
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert _split_work(lambda i: -i, list(range(1000))) == _negated(1000)
    finally:
        release.set()
        thread.join()


def test_split_work_does_not_fork_without_os_fork(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.delattr(os, "fork", raising=False)
    assert _split_work(lambda i: -i, list(range(1000))) == _negated(1000)
