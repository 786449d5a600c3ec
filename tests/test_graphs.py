import itertools
import math
import random
from collections import Counter

import pytest

from gchom.complexes import (
    ComplexSpec,
    Variant,
    _contract,
    _edge_orbits,
    _generators_of,
    _is_parallel,
    enumerate_basis,
    raw_slice,
)
from gchom.graphs import (
    Multigraph,
    Parity,
    SelfEdgeError,
    _canonical_data,
    _edge_codes,
    _initial_cells,
    _is_zero,
    _leaf,
    _neighbors,
    _new_class,
    _onto_class,
    _refine,
    automorphism_generators,
    automorphism_group_size,
    canonical_data,
    canonicalize,
    is_connected,
    is_triconnected,
    orientation_sign,
)
from gchom.complexes import _split_children
from gchom.kneissler import _label_families

import oracles

THETA = Multigraph.from_edges(2, [(0, 1)] * 3)
K4 = Multigraph.from_edges(4, itertools.combinations(range(4), 2))
PATH2 = Multigraph.from_edges(3, [(0, 1), (1, 2)])
SIX_CYCLE = Multigraph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])


def random_multigraph(rng, num_vertices, num_edges):
    pairs = list(itertools.combinations(range(num_vertices), 2))
    return Multigraph.from_edges(
        num_vertices, (rng.choice(pairs) for _ in range(num_edges))
    )


def core_test_graphs() -> list[Multigraph]:
    """Raw slices and all their splits for g <= 5, family graphs for g <= 6."""
    graphs = []
    for g in range(2, 6):
        for v in range(2, 2 * g - 1):
            for parent in raw_slice(g, v):
                graphs.append(parent)
                graphs.extend(oracles.all_vertex_splits(parent))
    for g in range(4, 7):
        for kind, degree in (("B", g - 1), ("X", g - 2), ("Y", g - 2),
                             ("A", g - 2), ("Aprime", g - 2)):
            graphs.extend(oracles.family_graph(kind, p)
                          for p in itertools.permutations(range(degree)))
    return graphs


def test_rejects_self_edges():
    with pytest.raises(SelfEdgeError):
        Multigraph.from_edges(2, [(0, 0)])


def test_theta_even_is_zero():
    # swapping two parallel copies is an odd edge permutation fixing the graph
    assert canonicalize(THETA, Parity.EVEN).is_zero


def test_theta_odd_is_nonzero():
    res = canonicalize(THETA, Parity.ODD)
    assert not res.is_zero
    assert res.sign == 1
    assert res.canonical == THETA


def test_tetrahedron_even_is_nonzero():
    res = canonicalize(K4, Parity.EVEN)
    assert not res.is_zero
    assert res.sign in (+1, -1)


def test_automorphism_group_sizes():
    assert automorphism_group_size(K4) == 24
    assert automorphism_group_size(THETA) == 12
    assert automorphism_group_size(PATH2) == 2


def contraction_images(loops: int) -> list[Multigraph]:
    """Every distinct graph the odd and even full differentials contract to.

    One image per edge orbit of every generator, as `contraction_entries`
    makes them, before any labeling.
    """
    images = {}
    for parity in Parity:
        spec = ComplexSpec(parity, Variant.FULL, loops)
        for v in range(3, 2 * loops - 1):
            for graph in enumerate_basis(spec, v).generators:
                for e in _edge_orbits(graph, _generators_of(graph)):
                    images.setdefault(_contract(graph, e, parity)[0], None)
    return list(images)


def test_search_matches_reference_search():
    graphs = core_test_graphs()
    rng = random.Random(61)
    for g in rng.choices(graphs, k=500):
        perm = list(range(g.num_vertices))
        rng.shuffle(perm)
        graphs.append(g.relabel(perm))
    # 12-vertex cubic graphs, one initial cell each, which reach the
    # refinement's two-group splits, and the images the differentials label
    cubic = [oracles.family_graph(kind, p) for kind, degree in (("B", 6), ("A", 5), ("Aprime", 5))
             for p in itertools.permutations(range(degree))]
    graphs += random.Random(71).sample(cubic, 200)
    graphs += contraction_images(5)
    for g in graphs:
        canon, labelings, order = canonical_data(g)
        form, reference = oracles.reference_canonical_data(g)
        assert canon.edges == form
        assert labelings[0] == reference[0]
        assert set(labelings) <= set(reference)
        assert order == len(reference)
        group = oracles.permutation_group(automorphism_generators(g), g.num_vertices)
        first = labelings[0]
        assert {tuple(first[h[v]] for v in range(g.num_vertices)) for h in group} == set(reference)
        # the uncached search's generators of Aut(form), conjugated back through its labeling
        _, lab, generators, _ = _canonical_data(g)
        inv = {i: v for v, i in enumerate(lab)}
        back = [tuple(inv[sigma[lab[v]]] for v in range(g.num_vertices)) for sigma in generators]
        assert {tuple(lab[h[v]] for v in range(g.num_vertices))
                for h in oracles.permutation_group(back, g.num_vertices)} == set(reference)


def assert_known_lookups_match_the_plain_search(graphs, known):
    """Each graph in a class of ``known`` hits it on an isomorphism; any other misses.

    ``known`` maps edge codes to a form, or to a `_new_class` value
    ``(form, generators, to_form)``, whose ``to_form`` (None for the form's
    own codes) relabels the edge list onto the form.  A hit must give the
    class ``_canonical_data`` finds, through a labeling (``to_form`` after
    the hit's) that relabels the graph onto it and has the sign of the
    first canonical labeling in each parity where the class is nonzero,
    zero-tested on the form with its generators.  A miss must give the
    plain search's exact quadruple.  Returns the number of hits.
    """
    def form_and_map(value):
        return (value, None) if isinstance(value, Multigraph) else (value[0], value[2])

    classes = {form_and_map(value)[0] for value in known.values()}
    hits = 0
    for g in graphs:
        plain = _canonical_data(g)
        got = _canonical_data(g, known=known)
        if plain[0] not in classes:
            assert got == plain, g
            continue
        hits += 1
        value, labeling = got
        form, to_form = form_and_map(value)
        if to_form is not None:
            labeling = tuple(to_form[i] for i in labeling)
        assert form == plain[0], g
        assert g.relabel(labeling) == form, g
        for parity in Parity:
            if not _is_zero(plain[0], parity, plain[2]):
                assert (orientation_sign(g, labeling, parity)
                        == orientation_sign(g, plain[1], parity)), (g, parity)
    return hits


def test_known_classes_stop_the_search_on_an_isomorphism():
    for loops in range(2, 7):
        images = contraction_images(loops)
        known = {}
        for image in images:
            form = _canonical_data(image)[0]
            known[_edge_codes(form)] = form
        assert assert_known_lookups_match_the_plain_search(images, known) == len(images)


def test_span_check_children_stop_on_their_row_class():
    for loops in range(4, 9):
        classes, rows = _label_families(loops)
        children = [child for x, generators in classes["V"].items()
                    for _, child in _split_children(x, generators)]
        # every edge list of the B and C classes
        hits = assert_known_lookups_match_the_plain_search(children, rows)
        assert hits > len(children) // 2, loops


def test_search_without_a_known_class_matches_the_plain_search():
    graphs = core_test_graphs()
    assert assert_known_lookups_match_the_plain_search(graphs, {}) == 0
    known = {_edge_codes(m): m for m in {_canonical_data(g)[0] for g in graphs}}
    for g in graphs:
        # every class of the set but g's own
        plain = _canonical_data(g)
        own = _edge_codes(plain[0])
        form = known.pop(own)
        assert _canonical_data(g, known=known) == plain, g
        known[own] = form


def test_recorded_leaves_stop_every_copy_at_its_first_leaf(monkeypatch):
    """A class keyed by every edge list its own search reached stops any copy at once.

    For every raw class with g <= 5 and every family graph with 4 <= g <= 7,
    against one map per vertex count of the classes met before it: a
    graph of a class the map lacks gets from `_onto_class` the plain
    search's form, generators and first canonical labeling, and
    `_new_class` then stores under each list the plain search recorded in
    ``leaves`` that list's ``to_form`` (the canonical labeling after the
    inverse of the list's labeling), which relabels the list onto the
    form.  For three random relabelings of each graph, `_onto_class` hits
    at the first leaf, and its labeling relabels the copy onto the form,
    with the plain search's sign wherever the class is nonzero.
    """
    reached = [0]

    def counting(*args):
        reached[0] += 1
        return _leaf(*args)

    monkeypatch.setattr("gchom.graphs._leaf", counting)
    originals = [m for g in range(2, 6) for v in range(2, 2 * g - 1) for m in raw_slice(g, v)]
    for g in range(4, 8):
        for kind, degree in (("B", g - 1), ("X", g - 2), ("Y", g - 2),
                             ("A", g - 2), ("Aprime", g - 2)):
            originals.extend(oracles.family_graph(kind, p)
                             for p in itertools.permutations(range(degree)))
    rng = random.Random(89)
    maps = {}  # vertex count -> the classes met so far
    for original in originals:
        n = original.num_vertices
        known = maps.setdefault(n, {})
        leaves = {}
        form, best, generators, _ = _canonical_data(original, leaves=leaves)
        codes = _edge_codes(form)
        assert leaves[codes] == best, original
        if codes not in known:
            size = len(known)
            assert _onto_class(original, known) == (form, generators, best), original
            assert len(known) == size, original
            assert _new_class(original, known)[:3] == (form, best, generators), original
            assert len(known) == size + len(leaves), original
            for code, pos in leaves.items():
                to_form = [0] * n
                for v, i in enumerate(pos):
                    to_form[i] = best[v]
                assert oracles.relabel_sorted(Multigraph._trusted(n, tuple(
                    divmod(c, n) for c in code)), to_form) == form.edges, original
                stored = None if code == codes else bytes(to_form)
                assert known[code] == (form, generators, stored), original
        nonzero = [p for p in Parity if not _is_zero(form, p, generators)]
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            copy = original.relabel(perm)
            before = reached[0]
            got, _, lab = _onto_class(copy, known)
            assert reached[0] - before == 1, (original, perm)
            assert got == form, (original, perm)
            assert oracles.relabel_sorted(copy, lab) == form.edges, (original, perm)
            plain = _canonical_data(copy)[1]
            for p in nonzero:
                assert (orientation_sign(copy, lab, p)
                        == orientation_sign(copy, plain, p)), (original, perm, p)


def _multiplicities(row) -> tuple:
    """A vertex's degree, then its multiplicities in decreasing order."""
    mults = sorted([m for _, m in row], reverse=True)
    return sum(mults), tuple(mults)


def test_initial_cells_are_ordered_by_degree_then_multiplicities():
    raw = [m for g in range(2, 7) for v in range(2, 2 * g - 1) for m in raw_slice(g, v)]
    # every raw class and the image of each of its simple edges, zero classes too
    images = {_contract(m, i, Parity.ODD)[0] for m in raw
              for i in range(m.num_edges) if not _is_parallel(m.edges, i)}
    for g in raw + list(images):
        nbrs = _neighbors(g)
        cells = _initial_cells(nbrs)
        assert sorted(v for cell in cells for v in cell) == list(range(g.num_vertices)), g
        keys = [{_multiplicities(nbrs[v]) for v in cell} for cell in cells]
        assert all(len(key) == 1 for key in keys), g
        keys = [key.pop() for key in keys]
        assert keys == sorted(set(keys)), g


class _Unread(list):
    """Neighbor lists that fail when a refinement pass reads them."""

    def __getitem__(self, i):
        raise AssertionError("a refinement pass keyed a discrete partition")


def test_refine_returns_a_discrete_partition_unchanged():
    cells = [[2], [0], [3], [1]]
    nbrs = _Unread(_neighbors(K4))
    assert _refine(cells, nbrs, [[2]], K4.num_edges + 1) is cells
    assert cells == [[2], [0], [3], [1]]


def test_neighbor_rows_match_counted_rows():
    for g in core_test_graphs():
        assert _neighbors(g) == oracles.counter_neighbors(g), g


def test_automorphism_group_size_matches_brute_force():
    graphs = sorted(set(core_test_graphs()), key=lambda g: (g.num_vertices, g.edges))
    small = [g for g in graphs if g.num_vertices <= 6]
    seven = [g for g in graphs if g.num_vertices == 7]
    # every graph up to 6 vertices, and a seeded sample at 7 (5040 permutations each)
    for g in small + random.Random(67).sample(seven, 60):
        parallel = math.prod(math.factorial(m) for m in Counter(g.edges).values())
        expected = len(oracles.brute_vertex_automorphisms(g)) * parallel
        assert automorphism_group_size(g) == expected


def test_canonicalize_idempotent():
    rng = random.Random(7)
    for _ in range(200):
        g = random_multigraph(rng, rng.randint(2, 7), rng.randint(1, 10))
        for parity in Parity:
            res = canonicalize(g, parity)
            if res.is_zero:
                continue
            again = canonicalize(res.canonical, parity)
            assert again.canonical == res.canonical
            assert again.sign == 1


def test_even_parallel_edges_vanish():
    rng = random.Random(11)
    for _ in range(100):
        g = random_multigraph(rng, rng.randint(2, 6), rng.randint(2, 9))
        if not g.is_simple():
            assert canonicalize(g, Parity.EVEN).is_zero


def test_relabeling_covariance_against_brute_force():
    rng = random.Random(23)
    for _ in range(120):
        n = rng.randint(2, 6)
        g = random_multigraph(rng, n, rng.randint(1, 9))
        perm = list(range(n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        for parity in Parity:
            rg, rh = canonicalize(g, parity), canonicalize(h, parity)
            assert rg.is_zero == rh.is_zero
            if rg.is_zero:
                continue
            assert rg.canonical == rh.canonical
            assert rg.sign * rh.sign == oracles.vertex_orientation_sign(
                g, perm, parity
            )


def test_zero_detection_matches_brute_force():
    rng = random.Random(37)
    for _ in range(150):
        g = random_multigraph(rng, rng.randint(2, 6), rng.randint(1, 9))
        for parity in Parity:
            expected = oracles.brute_canonicalize(g, parity)
            got = canonicalize(g, parity)
            assert got.is_zero == (expected is None)


def test_canonical_form_is_isomorphism_invariant():
    rng = random.Random(41)
    for _ in range(100):
        n = rng.randint(2, 7)
        g = random_multigraph(rng, n, rng.randint(1, 10))
        perm = list(range(n))
        rng.shuffle(perm)
        from gchom.graphs import canonical_data

        assert canonical_data(g)[0] == canonical_data(g.relabel(perm))[0]


def test_orientation_sign_is_multiplicative():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(2, 6)
        g = random_multigraph(rng, n, rng.randint(1, 8))
        p1 = list(range(n))
        p2 = list(range(n))
        rng.shuffle(p1)
        rng.shuffle(p2)
        composed = [p2[p1[i]] for i in range(n)]
        h = g.relabel(p1)
        for parity in Parity:
            if parity is Parity.EVEN and not g.is_simple():
                continue  # stable tie-breaking is only canonical on simple graphs
            s1 = orientation_sign(g, p1, parity)
            s2 = orientation_sign(h, p2, parity)
            assert orientation_sign(g, composed, parity) == s1 * s2


def test_connectivity():
    assert is_connected(Multigraph.from_edges(2, [(0, 1)]))
    two_triangles = Multigraph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    )
    assert not is_connected(two_triangles)
    assert is_connected(K4)


def test_triconnected_examples():
    assert is_triconnected(K4)
    assert not is_triconnected(SIX_CYCLE)
    assert not is_triconnected(THETA)


def test_triconnected_against_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(53)
    checked = 0
    for _ in range(300):
        n = rng.randint(4, 10)
        pairs = list(itertools.combinations(range(n), 2))
        if rng.random() < 0.8:
            k = min(rng.randint(n, 2 * n), len(pairs))
            g = Multigraph.from_edges(n, rng.sample(pairs, k))
        else:
            g = random_multigraph(rng, n, rng.randint(n, 2 * n))
        if not g.is_simple():
            assert not is_triconnected(g)
            continue
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges)
        expected = nx.node_connectivity(h) >= 3
        assert is_triconnected(g) == expected
        checked += 1
    assert checked > 50
