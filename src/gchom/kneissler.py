"""Top-degree upper bounds from barrel graphs.

The top cohomology of the g-loop complex is spanned by barrel graphs:
two rims of g-1 vertices joined by a permutation of vertical edges.
Relations come from the graphs one degree below with a single 4-valent
vertex (the X and Y families over S_{g-2}); their coboundaries land in
the barrel span plus an explicit complement (the A and A' families, with
accidental barrels excluded).  The upper bound is then

    dim B  -  rank(d restricted to span(X, Y))  +  dim B-complement,

with the rank taken over a prime field, which can only lower it.  The
restricted differential is the contraction differential from the
trivalent barrel and complement generators to the X/Y classes, the
transpose of the coboundary in dual bases, so all ranks agree.  It is
assembled from the vertex splits of the X/Y members: each split orbit
of a column graph is one edge orbit of the row graph its child is
isomorphic to, so no contracted image is labeled.  Neither the
`canonical_data` nor the `canonicalize` cache is used.

Each family is built once per loop order, with no parity, as `raw_slice`
builds a slice: one defining permutation per orbit of its frame
symmetries, which are relabelings of the fixed frame (reflecting or
rotating a rim, swapping the two barrel rims) that map the graph of p
onto the graph of another permutation p'.  The orbits come from
union-find over the permutations in `itertools.permutations` order, so
each orbit's root is its first permutation.  A and A' are the vertex-0
splits of X and Y, which the symmetries fix, so one pass over S_{g-2}
builds X and A, and one Y and A'.  Only the root's graph is built and
labeled, by `_new_class`, into one of three groups: the barrels B, the
columns V (X and Y) and the complement C (A and A', less the barrels).
A root in a class its group has already found is skipped at its first
leaf.  The split children of the columns are then labeled against the
B and C classes, each keyed by every edge list its own search reached,
so a child in one of them stops at its first leaf (see `gchom.graphs`).
One table per loop order, `_families`, holds the classes and each
column's split terms for both parities; each parity keeps the nonzero
classes, so the second parity builds and labels nothing.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import NamedTuple

from gchom.complexes import (
    _contract,
    _edge_orbit_roots,
    _rows_graph,
    _sorted_pair,
    _split_child,
    _split_children,
)
from gchom.graphs import (
    Multigraph,
    Parity,
    _inverse,
    _is_zero,
    _neighbors,
    _new_class,
    _onto_class,
    _orbit_roots,
    orientation_sign,
)
from gchom.linalg import (DEFAULT_PRIME, RANK_METHODS, PrimeField, gauss_rank, rank_field,
                          reduce_mod_p)
from gchom.sparse import IntSparseMatrix


class ImageOutsideSpanError(RuntimeError):
    """A coboundary image fell outside the barrel span and its complement."""


def _check_perm(perm) -> tuple[int, ...]:
    perm = tuple(perm)
    if sorted(perm) != list(range(len(perm))):
        raise ValueError(f"not a permutation of 0..{len(perm) - 1}: {perm}")
    return perm


def _family_graph(num_vertices: int, edges) -> Multigraph:
    """Graph from a builder's (u, v) pairs, which are in range and loop-free."""
    return Multigraph._trusted(
        num_vertices, tuple(sorted((u, v) if u < v else (v, u) for u, v in edges))
    )


def barrel(perm) -> Multigraph:
    """Barrel graph: two N-cycles joined by verticals i -> perm[i].

    2N vertices, 3N edges, loop order N+1, every vertex trivalent.  For
    N=2 each rim degenerates to a parallel pair.
    """
    perm = _check_perm(perm)
    n = len(perm)
    if n < 2:
        raise ValueError("barrel needs rims of at least 2 vertices")
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((n + i, n + (i + 1) % n))
        edges.append((i, n + perm[i]))
    return _family_graph(2 * n, edges)


def x_graph(perm) -> Multigraph:
    """Near-barrel with one 4-valent vertex: rim sizes m and m+1.

    Vertex 0 sits on the short rim and takes two verticals; the lower
    rim vertex m is its fixed partner, and perm routes the remaining
    m strands to the upper slots (0's second slot first, then 1..m-1).
    """
    perm = _check_perm(perm)
    m = len(perm)
    if m < 2:
        raise ValueError("need at least 2 strands")
    edges = []
    for i in range(m):
        edges.append((i, (i + 1) % m))
    for j in range(m + 1):
        edges.append((m + j, m + (j + 1) % (m + 1)))
    edges.append((0, m))
    for i in range(m):
        edges.append((perm[i], m + 1 + i))
    return _family_graph(2 * m + 1, edges)


def y_graph(perm) -> Multigraph:
    """Near-barrel with a hub: rims of size m plus one extra vertex.

    The hub l = 2m is tied to upper vertex 0 and lower vertex m; the m
    strands from [l, w_1, ..., w_{m-1}] land on the upper slots
    [u_0, ..., u_{m-1}] through perm, so u_0 is the 4-valent vertex.
    Routing l's strand back to u_0 doubles the l edge.
    """
    perm = _check_perm(perm)
    m = len(perm)
    if m < 2:
        raise ValueError("need at least 2 strands")
    hub = 2 * m
    edges = [(0, hub), (m, hub)]
    for i in range(m):
        edges.append((i, (i + 1) % m))
        edges.append((m + i, m + (i + 1) % m))
    sources = [hub] + [m + i for i in range(1, m)]
    for i in range(m):
        edges.append((perm[i], sources[i]))
    return _family_graph(2 * m + 1, edges)


def _vertex_0_split(g: Multigraph, perm, hub: bool) -> Multigraph:
    """Split vertex 0 of g, which is y_graph(perm) if ``hub`` and x_graph(perm) if not.

    One half-edge to each of two neighbors of 0 moves onto the new vertex
    2m+1, which a fresh edge joins to 0.  For X these are the fixed
    partner m and 0's strand end m+1+i, for Y the hub 2m and the source
    of 0's strand, the hub again when i = 0, where perm[i] = 0.
    """
    m = len(perm)
    i = perm.index(0)
    moved = (2 * m, m + i if i else 2 * m) if hub else (m, m + 1 + i)
    nbrs = _neighbors(g)
    take = tuple([moved.count(x) for x, _ in nbrs[0]])
    return _rows_graph(_split_child(nbrs, list(g.degrees()), 0, take)[0])


def _supported(loops: int, parity: Parity) -> None:
    minimum = 5 if parity is Parity.EVEN else 4
    if loops < minimum:
        raise ValueError(
            f"top-degree reduction needs loop order >= {minimum} for {parity}"
        )


def _compose(a, b) -> tuple[int, ...]:
    """The permutation a∘b, i -> a[b[i]]."""
    return tuple([a[i] for i in b])


def _frame_symmetries(kind: str, n: int):
    """Maps p -> p' such that a relabeling of the frame takes build(p) to build(p').

    For barrels (n = g-1), p∘r and p∘s rotate and reflect the upper rim,
    r∘p and s∘p the lower rim, and p⁻¹ swaps the rims, where r(i) = i+1
    and s(i) = -i mod n.  For X (n = g-2), s∘p reflects the short rim
    about vertex 0, and p∘rev reflects the long rim about vertex n, which
    swaps slot i with slot n-1-i.  For Y, s∘p reflects the upper rim
    about vertex 0, and p∘s reflects the lower rim about vertex n, fixing
    the hub and swapping source i with source -i mod n.  These fix vertex
    0, so A and A', the vertex-0 splits of X and Y, share them.
    """
    s = tuple(-i % n for i in range(n))
    if kind == "B":
        r = tuple((i + 1) % n for i in range(n))
        return (lambda p: _compose(p, r), lambda p: _compose(p, s),
                lambda p: _compose(r, p), lambda p: _compose(s, p), _inverse)
    if kind == "X":
        rev = tuple(reversed(range(n)))
        return (lambda p: _compose(s, p), lambda p: _compose(p, rev))
    return (lambda p: _compose(s, p), lambda p: _compose(p, s))


def _frame_orbit_roots(kind: str, n: int) -> list[tuple[int, ...]]:
    """The first permutation of each orbit of `_frame_symmetries` on range(n).

    First and in order as `itertools.permutations` lists them, so a root
    comes before every other member of its orbit.
    """
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    moved = ([index[move(p)] for p in perms] for move in _frame_symmetries(kind, n))
    roots = _orbit_roots(len(perms), moved)
    return [p for i, p in enumerate(perms) if roots[i] == i]


def _by_edges(classes) -> tuple[Multigraph, ...]:
    return tuple(sorted(classes, key=lambda m: m.edges))


class _FamilyTable(NamedTuple):
    """One loop order's classes, zero or not, for both parities.

    ``classes``: each group, "B", "V" or "C" -> its canonical forms,
    sorted by edges -> Aut generators.
    ``split_terms``: each V class that is nonzero in some parity -> its
    `_split_terms`.
    """

    classes: dict[str, dict[Multigraph, tuple]]
    split_terms: dict[Multigraph, tuple]


def _label_families(loops: int):
    """``(classes, rows)``: `_FamilyTable.classes` and C's `_new_class` map.

    One pass per permutation group: barrels over the frame-orbit roots of
    S_{g-1}, then X and Y over those of S_{g-2}, each root's graph also
    split at vertex 0 into its A or A' graph.  The hub builders (Y, A')
    keep only their simple graphs: routing the hub strand back onto its
    own anchor doubles an edge, and those degenerate graphs are not part
    of the relation span.  C's map starts with the barrels', so the
    complement drops graphs isomorphic to a barrel.
    """
    known = {"B": {}, "V": {}, "C": {}}
    classes = {group: {} for group in known}

    def label(group: str, g: Multigraph, hub: bool = False) -> None:
        if (not hub or g.is_simple()) and (data := _new_class(g, known[group])):
            classes[group][data[0]] = data[2]

    for perm in _frame_orbit_roots("B", loops - 1):
        label("B", barrel(perm))
    known["C"].update(known["B"])
    for kind, build in (("X", x_graph), ("Y", y_graph)):
        hub = kind == "Y"
        for perm in _frame_orbit_roots(kind, loops - 2):
            g = build(perm)
            label("V", g, hub)
            label("C", _vertex_0_split(g, perm, hub), hub)
    return ({group: {m: found[m] for m in _by_edges(found)} for group, found in classes.items()},
            known["C"])


@lru_cache(maxsize=None)
def _families(loops: int) -> _FamilyTable:
    """The `_FamilyTable` of one loop order; the row map is freed on return."""
    classes, rows = _label_families(loops)
    orbits: dict[Multigraph, dict[tuple[int, int], int]] = {}
    split_terms = {x: _split_terms(x, generators, rows, orbits)
                   for x, generators in classes["V"].items()
                   if not all(_is_zero(x, p, generators) for p in Parity)}
    return _FamilyTable(classes, split_terms)


@dataclass(frozen=True)
class KneisslerFamilies:
    """The families for one (loops, parity), each sorted by edges.

    The rows of `restricted_differential` are the barrels followed by the
    complement (A and A' merged), its columns the X and Y classes merged.
    """

    loops: int
    parity: Parity
    b_members: tuple[Multigraph, ...]
    bperp_members: tuple[Multigraph, ...]
    v_members: tuple[Multigraph, ...]

    @property
    def dim_b(self) -> int:
        return len(self.b_members)

    @property
    def dim_bperp(self) -> int:
        return len(self.bperp_members)

    @property
    def dim_v(self) -> int:
        return len(self.v_members)


@lru_cache(maxsize=8)
def build_families(loops: int, parity: Parity) -> KneisslerFamilies:
    """The classes of `_families` that do not vanish under the parity.

    Tested on the generators found with them, so nothing is built or
    labeled for a parity once the other has built the table.
    """
    _supported(loops, parity)
    kept = {group: tuple([m for m, generators in found.items()
                          if not _is_zero(m, parity, generators)])
            for group, found in _families(loops).classes.items()}
    return KneisslerFamilies(loops, parity, kept["B"], kept["C"], kept["V"])


def _split_terms(x: Multigraph, generators, rows: dict, orbits: dict
                 ) -> tuple[tuple[Multigraph, int, int], ...]:
    """``(row, even coefficient, odd coefficient)`` per split child of column class x.

    ``generators`` generate Aut(x).  Each child is labeled once, with no
    parity, by `_onto_class` against ``rows``, a `_new_class` map.  A
    parity's coefficient is 0 where the row is zero, and otherwise the
    size of the Aut(row) orbit of the image of the fresh edge (v, n) under
    the labeling, times the child's orientation sign, times the sign of
    contracting (v, n).  ``orbits`` keeps each row's edge orbit sizes.
    """
    n = x.num_vertices
    terms = []
    for v, child in _split_children(x, generators):
        row, row_generators, lab = _onto_class(child, rows)
        if row not in orbits:
            roots = _edge_orbit_roots(row, row_generators)
            sizes = Counter(roots.values())
            orbits[row] = {row.edges[i]: sizes[root] for i, root in roots.items()}
        weight = orbits[row][_sorted_pair(lab[v], lab[n])]
        fresh = child.edges.index((v, n))
        terms.append((row, *[0 if _is_zero(row, p, row_generators) else weight
                             * orientation_sign(child, lab, p) * _contract(child, fresh, p)[1]
                             for p in Parity]))
    return tuple(terms)


def _coboundary_entries(fam: KneisslerFamilies) -> dict[tuple[int, int], int]:
    """Entries of `restricted_differential`, summed from the columns' split terms.

    The same pass checks the span: a child with a nonzero coefficient
    whose row is not a member signals a mis-built complement and raises
    ImageOutsideSpanError.  Each child is checked before any sum, so
    children that cancel cannot hide one.
    """
    split_terms = _families(fam.loops).split_terms
    odd = fam.parity is Parity.ODD
    rows = {r: i for i, r in enumerate(fam.b_members + fam.bperp_members)}
    acc: dict[tuple[int, int], int] = {}
    for j, x in enumerate(fam.v_members):
        for row, even_coefficient, odd_coefficient in split_terms[x]:
            coefficient = odd_coefficient if odd else even_coefficient
            if not coefficient:
                continue
            i = rows.get(row)
            if i is None:
                raise ImageOutsideSpanError(f"split of {x} produced {row}")
            acc[(i, j)] = acc.get((i, j), 0) + coefficient
    return {k: val for k, val in acc.items() if val}


def restricted_differential(loops: int, parity: Parity) -> IntSparseMatrix:
    """Coboundary matrix from the X/Y span into barrels plus complement.

    Rows are the barrel members followed by the complement members (each
    in canonical order), columns the X/Y classes.  Entry (i, j) is the
    coefficient of column graph j in the contraction differential of row
    graph i; by duality of contraction and vertex splitting this is the
    matrix of the coboundary in the dual bases.  Contraction images
    outside the X/Y span are dropped (the restriction).  Raises
    ImageOutsideSpanError if a coboundary image escapes the row span.

    The entries are read off the splits of the columns, and no row is
    contracted.  A split child c of column graph x, its vertex v split
    off to the fresh vertex n, contracts back to x exactly along (v, n).
    Up to isomorphism, the pairs (x, orbit of splits of x) match the
    pairs (r, orbit of edges e of r) with r/e isomorphic to x one to one.
    So each split orbit of x whose child is labeled as row r adds
    weight·sign to entry (r, x), where
      - weight is the size of the Aut(r) orbit of the edge lab(v, n),
        lab being any isomorphism of c onto r, such as c's first
        canonical labeling, and
      - sign is c's orientation sign under lab, the same for every such
        lab as r is nonzero, times the sign of contracting (v, n) in c.
    """
    fam = build_families(loops, parity)
    entries = _coboundary_entries(fam)
    return IntSparseMatrix(fam.dim_b + fam.dim_bperp, fam.dim_v, entries)


def dperp_rank(loops: int, parity: Parity, prime: int = DEFAULT_PRIME) -> tuple[int, int]:
    """(rank of the complement block, dim of the complement).

    Equality is the surjectivity of the coboundary onto the complement.
    A bad prime raises ValueError before the families are built.
    """
    fp = PrimeField(prime)
    fam = build_families(loops, parity)
    matrix = restricted_differential(loops, parity)
    nb = fam.dim_b
    block = {(i - nb, j): v for (i, j), v in matrix.entries.items() if i >= nb}
    sub = IntSparseMatrix(fam.dim_bperp, matrix.ncols, block)
    rank = gauss_rank(reduce_mod_p(sub, fp)).rank
    return rank, fam.dim_bperp


@dataclass(frozen=True)
class KneisslerReport:
    g: int
    parity: Parity
    dim_B: int
    dim_Bperp: int
    dim_V: int
    rank_d: int
    upper_bound: int
    prime: int
    method: str
    seed: int

    def to_json(self) -> str:
        return json.dumps({**asdict(self), "parity": str(self.parity)}, indent=2)

    def columns(self) -> tuple[int, int, int, int, int]:
        return (self.dim_B, self.dim_Bperp, self.dim_V, self.rank_d,
                self.upper_bound)


def upper_bound(loops: int, parity: Parity, prime: int = DEFAULT_PRIME,
                method: str = "gauss", seed: int = 0) -> KneisslerReport:
    """Top-degree upper bound dim B - rank(d) + dim B-complement.

    rank(d) is the rank of `restricted_differential` at `prime`, by the
    engine `method` names in `RANK_METHODS`; an unknown name raises
    ValueError before the families are built, as does a prime or seed
    that `rank_field` rejects for the method.
    """
    fp = rank_field(method, prime, seed)
    fam = build_families(loops, parity)
    mp = reduce_mod_p(restricted_differential(loops, parity), fp)
    rank = RANK_METHODS[method](mp, seed=seed).rank
    bound = fam.dim_b - rank + fam.dim_bperp
    if bound < 0 or rank > fam.dim_v:
        raise RuntimeError("inconsistent rank in upper bound computation")
    return KneisslerReport(loops, parity, fam.dim_b, fam.dim_bperp, fam.dim_v,
                           rank, bound, prime, method, seed)
