import collections
import dataclasses
import hashlib
import itertools
import json

import pytest

from gchom import complexes, graphs, kneissler
from gchom.graphs import (
    Parity,
    _edge_codes,
    _is_zero,
    automorphism_generators,
    canonical_data,
    canonicalize,
)
from gchom.complexes import ComplexSpec, Variant, enumerate_basis
from gchom.cohomology import KNOWN_VALUES
from gchom.kneissler import (
    ImageOutsideSpanError,
    _coboundary_entries,
    _families,
    _FamilyTable,
    _frame_symmetries,
    _label_families,
    _split_terms,
    _vertex_0_split,
    barrel,
    build_families,
    dperp_rank,
    restricted_differential,
    upper_bound,
    x_graph,
    y_graph,
)

import oracles

# the kinds of each group of `_families`
GROUPS = {"B": ("B",), "V": ("X", "Y"), "C": ("A", "Aprime")}

BOUND_SMALL = {
    (Parity.EVEN, 5): (0, 0, 1, 0, 0),
    (Parity.EVEN, 6): (2, 2, 4, 3, 1),
    (Parity.EVEN, 7): (2, 6, 19, 8, 0),
    (Parity.ODD, 5): (2, 1, 1, 1, 2),
    (Parity.ODD, 6): (3, 3, 4, 4, 2),
    (Parity.ODD, 7): (9, 13, 27, 19, 3),
}

# sha256 of repr(sorted(restricted_differential(g, parity).entries.items())),
# and the entry count: the signs, which the bound rows do not pin
PINNED_RESTRICTED_DIFFERENTIALS = {
    (Parity.EVEN, 7): (36, "39cbc3cf69c0eb795c316232358145cc4d55f582ba3fa16d24fac27b0d06dbdf"),
    (Parity.ODD, 7): (72, "accba39509b1f403e2a7a022cd0043f4d200810a85a0d07fb17f62be637d1de6"),
    (Parity.EVEN, 8): (245, "d51d5457e5f2284abb21fafbb2ea8b948a9b1050dc55bd8977c74ace5d589362"),
    (Parity.ODD, 8): (460, "c103b9424850bc89e3ac9f949aa872ba2dca0bf3a1d7e5c791b04fafe1184e62"),
    (Parity.EVEN, 9): (3069, "acafab0c954eb0c13b63b51920dad35158837a788746924a9070d8a4f924d076"),
    (Parity.ODD, 9): (3743, "ec5466ac9dbd6188aa877332d72427e7c0196a4bc9493b549f24f3db025dcb04"),
}

# `_canonical_data` calls of `upper_bound` from an empty family table, for
# the odd parity, the even one and both alike; `dperp_rank` after it makes none
BOUND_LABELINGS = {7: 198, 8: 1185}


def test_barrel_counts():
    for n in (2, 3, 4, 5):
        for perm in itertools.permutations(range(n)):
            b = barrel(perm)
            assert b.num_vertices == 2 * n
            assert b.num_edges == 3 * n
            assert b.loop_order == n + 1
            assert set(b.degrees()) == {3}


def test_barrel_rejects_bad_input():
    with pytest.raises(ValueError):
        barrel([0])
    with pytest.raises(ValueError):
        barrel([0, 0])


def test_only_one_barrel_in_loop_order_three():
    # both rims degenerate to parallel pairs; the two permutations agree
    forms = {canonical_data(barrel(p))[0] for p in itertools.permutations(range(2))}
    assert len(forms) == 1
    g = forms.pop()
    assert not g.is_simple()
    assert g.loop_order == 3


def test_family_graph_shapes():
    for m in (2, 3, 4):
        for perm in itertools.permutations(range(m)):
            x = x_graph(perm)
            assert x.num_vertices == 2 * m + 1
            assert sorted(x.degrees())[-1] == 4
            assert sorted(x.degrees())[:-1] == [3] * (2 * m)
            assert x.loop_order == m + 2
            y = y_graph(perm)
            assert y.num_vertices == 2 * m + 1
            assert sorted(y.degrees()) == [3] * (2 * m) + [4]
            a = _vertex_0_split(x, perm, hub=False)
            assert set(a.degrees()) == {3}
            assert a.loop_order == m + 2
            ap = _vertex_0_split(y, perm, hub=True)
            assert set(ap.degrees()) == {3}
            assert ap.loop_order == m + 2


def test_complement_graphs_are_the_vertex_0_splits():
    # the same labeled graph as the edge lists written out, not just the same class
    for m in range(2, 7):
        for perm in itertools.permutations(range(m)):
            a = _vertex_0_split(x_graph(perm), perm, hub=False)
            assert a == oracles.complement_graph("A", perm), perm
            a_prime = _vertex_0_split(y_graph(perm), perm, hub=True)
            assert a_prime == oracles.complement_graph("Aprime", perm), perm


def test_build_families_rejects_unsupported():
    with pytest.raises(ValueError):
        build_families(4, Parity.EVEN)
    with pytest.raises(ValueError):
        build_families(3, Parity.ODD)
    # the table has the three groups and no other
    assert tuple(_families(6).classes) == tuple(GROUPS)


def test_family_classes_match_exhaustive_family():
    for parity in Parity:
        for loops in range(5 if parity is Parity.EVEN else 4, 8):
            for group, found in _families(loops).classes.items():
                got = tuple(m for m, generators in found.items()
                            if not _is_zero(m, parity, generators))
                want = {m for kind in GROUPS[group]
                        for m in oracles.exhaustive_family(kind, loops, parity)}
                assert got == tuple(sorted(want, key=lambda m: m.edges)), (group, loops, parity)


def test_second_parity_builds_and_labels_nothing(monkeypatch):
    build_families.cache_clear()
    build_families(7, Parity.ODD)
    calls = []

    def spy(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for name in ("barrel", "x_graph", "y_graph", "_vertex_0_split"):
        monkeypatch.setattr(kneissler, name, spy(name, getattr(kneissler, name)))
    for module in (graphs, complexes):
        monkeypatch.setattr(module, "_canonical_data", spy("label", module._canonical_data))
    before = canonicalize.cache_info()
    fam = build_families(7, Parity.EVEN)
    assert calls == []
    assert canonicalize.cache_info() == before
    assert (fam.dim_b, fam.dim_bperp, fam.dim_v) == BOUND_SMALL[(Parity.EVEN, 7)][:3]


def test_frame_symmetries_preserve_the_graph_class():
    # A and A' are the vertex-0 splits of X and Y, and share their symmetries
    frames = {"B": "B", "X": "X", "Y": "Y", "A": "X", "Aprime": "Y"}
    for kind, frame in frames.items():
        for n in range(2, 7 if kind == "B" else 6):  # g <= 7
            for perm in itertools.permutations(range(n)):
                form = canonical_data(oracles.family_graph(kind, perm))[0]
                for move in _frame_symmetries(frame, n):
                    moved = oracles.family_graph(kind, move(perm))
                    assert canonical_data(moved)[0] == form, (kind, perm)


def test_complement_excludes_barrel_isomorphic_graphs():
    for parity in Parity:
        for g in (5, 6):
            fam = build_families(g, parity)
            barrels = {canonical_data(barrel(p))[0]
                       for p in itertools.permutations(range(g - 1))}
            assert not (set(fam.bperp_members) & barrels)
            assert not (set(fam.b_members) - barrels)


def test_barrel_members_live_in_the_top_slice():
    for parity in Parity:
        for g in (5, 6):
            fam = build_families(g, parity)
            top = enumerate_basis(ComplexSpec(parity, Variant.FULL, g), 2 * (g - 1))
            assert set(fam.b_members) <= set(top.generators)
            assert fam.dim_b <= len(top)


@pytest.mark.parametrize("parity,loops", sorted(BOUND_SMALL, key=str))
def test_bound_table_rows(parity, loops):
    rep = upper_bound(loops, parity)
    assert rep.columns() == BOUND_SMALL[(parity, loops)]


@pytest.mark.parametrize("parity,loops", sorted(BOUND_SMALL, key=str))
def test_dperp_surjective(parity, loops):
    rank, dim = dperp_rank(loops, parity)
    assert rank == dim


def test_bound_not_below_known_top_cohomology():
    for g in (5, 6, 7):
        rep = upper_bound(g, Parity.ODD)
        known = KNOWN_VALUES.lookup(3, g, -3)
        assert known is not None
        assert rep.upper_bound >= known.value
        # the published odd bounds are in fact sharp
        assert rep.upper_bound == known.value


def test_rank_stable_across_primes():
    for parity in Parity:
        ranks = {
            p: upper_bound(6, parity, prime=p).rank_d
            for p in (3323, 10007, 32003)
        }
        assert len(set(ranks.values())) == 1


def test_restricted_differential_dimensions():
    fam = build_families(6, Parity.EVEN)
    m = restricted_differential(6, Parity.EVEN)
    assert m.nrows == fam.dim_b + fam.dim_bperp
    assert m.ncols == fam.dim_v


def test_orbit_weighted_restricted_differential_matches_per_edge_sum():
    for parity in Parity:
        for loops in (5, 6, 7, 8):
            fam = build_families(loops, parity)
            rows = fam.b_members + fam.bperp_members
            cols = {g: j for j, g in enumerate(fam.v_members)}
            expected = oracles.per_edge_contractions(rows, cols, parity, strict=False)
            assert restricted_differential(loops, parity).entries == expected


def test_family_classes_record_their_automorphism_groups():
    for loops in (5, 6):
        classes, rows = _label_families(loops)
        assert classes == _families(loops).classes
        found = {m: gens for group in classes.values() for m, gens in group.items()}
        for parity in Parity:
            fam = build_families(loops, parity)
            for m in set(fam.b_members) | set(fam.bperp_members) | set(fam.v_members):
                n = m.num_vertices
                generators = found[m]
                if m not in fam.v_members:
                    assert rows[_edge_codes(m)] == (m, generators, None), m
                assert (oracles.permutation_group(generators, n)
                        == oracles.permutation_group(automorphism_generators(m), n)), m
                for p in Parity:
                    assert _is_zero(m, p, generators) == canonicalize(m, p).is_zero, (m, p)


def test_image_outside_span_detection():
    fam = build_families(5, Parity.ODD)
    broken = dataclasses.replace(fam, b_members=(), bperp_members=())
    with pytest.raises(ImageOutsideSpanError):
        _coboundary_entries(broken)


def test_split_child_in_no_row_class_is_searched_to_the_end(monkeypatch):
    """Against an empty row map, a split child hits no class and is labeled to the end.

    The plain search gives the same terms as the table's.  With the members
    emptied, the children's forms are in no row, so the span check raises.
    """
    fam = build_families(5, Parity.ODD)
    table = _families(5)
    label = graphs._canonical_data
    results = []

    def spy(graph, *args, **kwargs):
        results.append(label(graph, *args, **kwargs))
        return results[-1]

    monkeypatch.setattr(graphs, "_canonical_data", spy)
    orbits = {}
    split_terms = {x: _split_terms(x, table.classes["V"][x], {}, orbits)
                   for x in table.split_terms}
    assert results and all(len(data) == 4 for data in results)
    assert split_terms == table.split_terms
    monkeypatch.setattr(kneissler, "_families",
                        lambda loops: _FamilyTable(table.classes, split_terms))
    broken = dataclasses.replace(fam, b_members=(), bperp_members=())
    with pytest.raises(ImageOutsideSpanError):
        _coboundary_entries(broken)


def test_restricted_differential_labels_only_split_children(monkeypatch):
    """The family build labels the columns' split children; `restricted_differential` nothing."""
    loops = 7
    for cached in (build_families, _families):
        cached.cache_clear()
    labeled, built = [], []

    def labeling(label):
        def wrapper(graph, *args, **kwargs):
            labeled.append(graph)
            return label(graph, *args, **kwargs)
        return wrapper

    def building(build):
        def wrapper(perm):
            built.append(build(perm))
            return built[-1]
        return wrapper

    # cached and uncached labelings alike
    for module in (graphs, complexes):
        monkeypatch.setattr(module, "_canonical_data", labeling(module._canonical_data))
    for name in ("x_graph", "y_graph"):
        monkeypatch.setattr(kneissler, name, building(getattr(kneissler, name)))
    table = _families(loops)
    children = [child for x in table.split_terms
                for _, child in complexes._split_children(x, table.classes["V"][x])]
    assert collections.Counter(children) <= collections.Counter(labeled)
    # the X/Y graphs and the contraction images of the rows have 2g-3
    # vertices, and only the former are labeled
    assert {g for g in labeled if g.num_vertices == 2 * loops - 3} <= set(built)
    # the bounds, and the rebuild `dperp_rank` makes after `upper_bound`, label nothing
    count = len(labeled)
    for parity in Parity:
        restricted_differential(loops, parity)
        restricted_differential(loops, parity)
    assert len(labeled) == count


def test_bound_path_leaves_the_label_caches_alone():
    for cached in (build_families, _families):
        cached.cache_clear()
    before = (canonical_data.cache_info(), canonicalize.cache_info())
    for parity in Parity:
        assert upper_bound(7, parity).columns() == BOUND_SMALL[(parity, 7)]
    assert (canonical_data.cache_info(), canonicalize.cache_info()) == before


@pytest.mark.parametrize("parity,loops", sorted(PINNED_RESTRICTED_DIFFERENTIALS, key=str))
def test_restricted_differentials_are_pinned(parity, loops):
    entries = restricted_differential(loops, parity).entries
    digest = hashlib.sha256(repr(sorted(entries.items())).encode()).hexdigest()
    assert (len(entries), digest) == PINNED_RESTRICTED_DIFFERENTIALS[(parity, loops)]


def test_bound_labelings_are_pinned(monkeypatch):
    labeled = []

    def spy(label):
        def wrapper(graph, *args, **kwargs):
            labeled.append(graph)
            return label(graph, *args, **kwargs)
        return wrapper

    for module in (graphs, complexes):
        monkeypatch.setattr(module, "_canonical_data", spy(module._canonical_data))
    for loops, count in BOUND_LABELINGS.items():
        for parities in ((Parity.ODD,), (Parity.EVEN,), tuple(Parity)):
            for cached in (build_families, _families):
                cached.cache_clear()
            labeled.clear()
            for parity in parities:
                upper_bound(loops, parity)
            assert len(labeled) == count, (loops, parities)
            for parity in parities:
                dperp_rank(loops, parity)
            assert len(labeled) == count, (loops, parities)


def test_family_and_split_term_hits_stop_at_their_first_leaf(monkeypatch):
    reached = [0]
    leaf, label, split_terms = graphs._leaf, graphs._canonical_data, kneissler._split_terms
    hits = []  # leaves per hit
    family_hits = {}  # loop order -> hits before its first split terms

    def counting(*args):
        reached[0] += 1
        return leaf(*args)

    def spy(graph, *args, **kwargs):
        before = reached[0]
        data = label(graph, *args, **kwargs)
        if len(data) == 2:
            hits.append(reached[0] - before)
        return data

    def first_split_terms(*args):
        family_hits.setdefault(loops, len(hits))
        return split_terms(*args)

    monkeypatch.setattr(graphs, "_leaf", counting)
    monkeypatch.setattr(graphs, "_canonical_data", spy)
    monkeypatch.setattr(kneissler, "_split_terms", first_split_terms)
    for loops in range(5, 9):
        for cached in (build_families, _families):
            cached.cache_clear()
        hits.clear()
        _families(loops)
        # g=5 repeats one class, shared by A and A'; every loop order's split terms hit
        assert family_hits[loops] > 0 and len(hits) > family_hits[loops], loops
        assert set(hits) == {1}, loops


def test_family_table_holds_the_classes_and_every_nonzero_column_split_terms():
    assert _FamilyTable._fields == ("classes", "split_terms")
    for loops in range(5, 9):
        _families.cache_clear()
        table = _families(loops)
        nonzero = {x for x, generators in table.classes["V"].items()
                   if not all(_is_zero(x, p, generators) for p in Parity)}
        assert set(table.split_terms) == nonzero, loops


def test_each_family_class_is_searched_to_the_end_once(monkeypatch):
    """A class shared by X and Y, or by A and A', is found once, in its group."""
    label = graphs._canonical_data
    full = []

    def spy(graph, *args, **kwargs):
        data = label(graph, *args, **kwargs)
        if len(data) == 4:
            full.append(graph)
        return data

    monkeypatch.setattr(graphs, "_canonical_data", spy)
    counts = {}
    for loops in range(5, 9):
        _families.cache_clear()
        full.clear()
        classes = _families(loops).classes
        counts[loops] = len(full)
        assert len(full) == sum(len(found) for found in classes.values()), loops
    # one full search per kind's class, shared ones twice: 8, 15, 67 and 326
    assert counts == {5: 7, 6: 12, 7: 56, 8: 279}


def test_wiedemann_method_agrees():
    g6 = upper_bound(6, Parity.ODD, method="wiedemann", seed=0)
    assert g6.columns() == BOUND_SMALL[(Parity.ODD, 6)]
    assert g6.method == "wiedemann"


def test_unknown_method_is_rejected_before_any_family_is_built(monkeypatch):
    built = []

    def spy(*args):
        built.append(args)
        return build_families(*args)

    monkeypatch.setattr(kneissler, "build_families", spy)
    with pytest.raises(ValueError, match="unknown method"):
        upper_bound(10, Parity.ODD, method="lu")
    # the least prime above 2**25, too large for the Wiedemann operator
    with pytest.raises(ValueError, match="2\\*\\*25"):
        upper_bound(10, Parity.ODD, method="wiedemann", prime=33554467)
    with pytest.raises(ValueError, match="seed -3"):
        upper_bound(5, Parity.ODD, method="wiedemann", seed=-3)
    with pytest.raises(ValueError, match="prime"):
        dperp_rank(10, Parity.ODD, prime=4)
    assert not built
    # Gauss takes it
    assert upper_bound(5, Parity.ODD, prime=33554467).columns() == BOUND_SMALL[(Parity.ODD, 5)]


def test_report_json_keys():
    rep = upper_bound(5, Parity.ODD, seed=11)
    payload = json.loads(rep.to_json())
    assert list(payload) == ["g", "parity", "dim_B", "dim_Bperp", "dim_V",
                             "rank_d", "upper_bound", "prime", "method", "seed"]
    assert payload["g"] == 5
    assert payload["parity"] == "odd"
    assert payload["seed"] == 11


def test_even_identity_circle_symmetry_vanishes():
    # even loop order: the identity-permutation barrel admits an
    # orientation-reversing symmetry under even parity
    for n in (5, 7):  # loop orders 6 and 8
        b = barrel(list(range(n)))
        assert canonicalize(b, Parity.EVEN).is_zero
