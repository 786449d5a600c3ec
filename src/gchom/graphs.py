"""Loop-free multigraphs and signed canonical labeling.

A generator of the commutative graph complex is an isomorphism class of
connected multigraphs carrying an orientation: for the even complex an
ordering of the edges, for the odd complex an ordering of the vertices
together with a direction on every edge.  Relabeling acts on the
orientation by a sign, and a graph admitting an automorphism of sign -1
is identically zero as a generator.

This module owns the graph type, the canonical-form search with sign
tracking, and the structural predicates (connectivity, triconnectivity)
used downstream.  The search refines partitions sparsely, pass by pass,
and backtracks over individualizations, pruned by the automorphisms it
finds.  Every labeled class carries the generators of Aut(form), on the
form's own vertex labels, as `_canonical_data` returns them; the zero
test takes them as an argument.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache


class Parity(Enum):
    """Parity of the complex; the value is the representative n."""

    EVEN = 2
    ODD = 3

    @property
    def n(self) -> int:
        return self.value

    @classmethod
    def from_name(cls, name: str) -> "Parity":
        try:
            return {"even": cls.EVEN, "odd": cls.ODD}[name.lower()]
        except KeyError:
            raise ValueError(f"unknown parity {name!r}; expected 'even' or 'odd'")

    def __str__(self) -> str:
        return self.name.lower()


class SelfEdgeError(ValueError):
    """Raised when an edge joins a vertex to itself (tadpoles are excluded)."""


@dataclass(frozen=True, slots=True)
class Multigraph:
    """Connected or not, loop-free multigraph in storage normal form.

    ``edges`` is the lexicographically sorted tuple of pairs ``(u, v)``
    with ``0 <= u < v < num_vertices``; parallel edges appear as repeated
    pairs.  Instances are immutable and hashable.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def _trusted(cls, num_vertices: int, edges: tuple) -> "Multigraph":
        """Graph from edges already in storage normal form, not validated.

        For graphs the package builds itself (canonical forms, splits,
        contractions, family graphs); callers' graphs go through
        ``__post_init__``.
        """
        graph = object.__new__(cls)
        object.__setattr__(graph, "num_vertices", num_vertices)
        object.__setattr__(graph, "edges", edges)
        return graph

    def __post_init__(self):
        if self.num_vertices < 1:
            raise ValueError("need at least one vertex")
        prev = None
        for e in self.edges:
            u, v = e
            if u == v:
                raise SelfEdgeError(f"self-edge at vertex {u}")
            if not (0 <= u < v < self.num_vertices):
                raise ValueError(f"edge {e} out of range or not normalized")
            if prev is not None and e < prev:
                raise ValueError("edge list not sorted")
            prev = e

    @classmethod
    def from_edges(cls, num_vertices: int, edges) -> "Multigraph":
        """Build a graph from unnormalized (u, v) pairs."""
        norm = tuple(sorted((u, v) if u < v else (v, u) for u, v in edges))
        return cls(num_vertices, norm)

    # -- basic counts ---------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def loop_order(self) -> int:
        """First Betti number E - V + 1 (meaningful for connected graphs)."""
        return len(self.edges) - self.num_vertices + 1

    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.num_vertices
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    def min_degree(self) -> int:
        return min(self.degrees()) if self.num_vertices else 0

    def multiplicity(self, u: int, v: int) -> int:
        e = (u, v) if u < v else (v, u)
        return sum(1 for f in self.edges if f == e)

    def is_simple(self) -> bool:
        return len(set(self.edges)) == len(self.edges)

    def relabel(self, perm) -> "Multigraph":
        """Apply a vertex permutation (perm[old] = new label)."""
        return Multigraph.from_edges(
            self.num_vertices, ((perm[u], perm[v]) for u, v in self.edges)
        )

    # -- text format: "V E u1 v1 u2 v2 ..." -----------------------------

    def to_line(self) -> str:
        parts = [str(self.num_vertices), str(len(self.edges))]
        for u, v in self.edges:
            parts.append(str(u))
            parts.append(str(v))
        return " ".join(parts)

    @classmethod
    def from_line(cls, line: str) -> "Multigraph":
        tokens = line.split()
        if len(tokens) < 2:
            raise ValueError(f"malformed graph line: {line!r}")
        nv, ne = int(tokens[0]), int(tokens[1])
        if len(tokens) != 2 + 2 * ne:
            raise ValueError(f"expected {ne} edges on line: {line!r}")
        it = iter(tokens[2:])
        edges = tuple((int(u), int(v)) for u, v in zip(it, it))
        return cls(nv, edges)

    def __str__(self) -> str:
        return self.to_line()


@dataclass(frozen=True, slots=True)
class CanonicalResult:
    """Canonical representative and sign, or the zero generator.

    ``canonical`` is None exactly for the zero result, in which case
    ``sign`` is 0.  Otherwise sign is +1 or -1 and relates the input
    labeling's orientation to the canonical representative's.
    """

    canonical: Multigraph | None
    sign: int

    @classmethod
    def zero(cls) -> "CanonicalResult":
        return cls(None, 0)

    @property
    def is_zero(self) -> bool:
        return self.canonical is None


def perm_sign(perm) -> int:
    """Sign of a permutation given in one-line notation (perm[i] = image)."""
    n = len(perm)
    seen = [False] * n
    sign = 1
    for i in range(n):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def orientation_sign(graph: Multigraph, perm, parity: Parity) -> int:
    """Sign picked up by relabeling ``graph`` with the vertex permutation.

    Even parity: sign of the induced permutation of the sorted edge list
    (parallel copies are matched stably; any ambiguity only arises for
    graphs that are zero anyway).  Odd parity: sign of the vertex
    permutation times (-1) for every edge whose direction (low vertex to
    high vertex) gets reversed.
    """
    if parity is Parity.ODD:
        sign = perm_sign(perm)
        reversals = sum(1 for u, v in graph.edges if perm[u] > perm[v])
        if reversals % 2:
            sign = -sign
        return sign
    mapped = []
    for u, v in graph.edges:
        a, b = perm[u], perm[v]
        mapped.append((a, b) if a < b else (b, a))
    order = sorted(range(len(mapped)), key=mapped.__getitem__)
    return perm_sign(order)


# ---------------------------------------------------------------------------
# Canonical form search.
#
# Iterative degree/neighborhood refinement with multiplicities as edge
# colors, then backtracking individualization pruned by the automorphisms
# found on the way (McKay & Piperno, "Practical graph isomorphism II",
# 2014).  Each refinement pass splits every cell by its vertices'
# multiplicity counts into the cells present at the start of the pass, and
# orders the parts by those count vectors; the counts come from neighbor
# lists built once per graph, and only the counts into the cells created by
# the pass before can differ within a cell.  A pass scans each cell until a
# vertex's key differs from the first vertex's; a cell that runs out first
# is kept whole, without grouping.  Otherwise the rest of the cell is sorted
# into the first key's group and the differing key's, and the two groups,
# the common case on near-regular graphs, are ordered by comparing their
# keys.  A third key sends the cell to a dict grouping and a sort of its keys.
#
# The canonical form is the lexicographically smallest relabeled edge list
# over the leaves of the (isomorphism-invariant) search tree.  Only two
# leaves are kept: the first one reached, and the first one attaining the
# smallest edge list so far (the best).  A later leaf with the edge list of
# either differs from it by an automorphism.  Below the node where the two
# paths part, that automorphism maps the kept leaf's branch, searched
# before, onto the later leaf's branch, so the search returns to that
# node.  Every automorphism found while a child of a first-path node
# is searched fixes the vertices individualized above that node, so there a
# child in the same orbit (union-find over the generators) as an explored
# sibling is skipped.  A skipped subtree is always the image of one searched
# before it, so the minimal edge list, and the first leaf attaining it in
# search order, are those of the unpruned search.  The automorphisms found
# generate Aut(graph), and each first-path node's first child gets its full
# orbit under the stabilizer of the path, so the group order is the product
# of those orbit sizes.  Only the two leaves are kept, so a search with a
# trivial group holds no more than the unpruned search did.
#
# A caller that expects the graph to be in one of a set of classes it has
# labeled already passes edge codes of their forms as ``known``, and the
# search stops at the first leaf whose edge list is one of them.  A leaf's
# labeling relabels the graph onto the edge list the leaf spells, so it is
# an isomorphism onto that class, which is all such a caller reads: for a
# nonzero class every isomorphism gives the same orientation sign, as any
# two differ by an automorphism of sign +1, and the Aut orbit of an edge's
# image is the same under each.  The canonical leaf is always reached, so a
# graph in a known class always stops early; a graph in no known class is
# searched to the end, with a lookup per new leaf edge list, and gives the
# same form, labeling, generators and order as a search without the map.
#
# A caller that will look a class up again passes a dict as ``leaves``, and
# a search run to the end fills it with every distinct edge list it reached,
# each with the labeling of the first leaf that spelled it; keying ``known``
# by all of them, not only by the canonical list, makes every later graph
# of the class stop at its first leaf.  The refined, individualized
# partitions are invariant, so the leaf of an isomorphic copy at the image
# path spells what the class's leaf at the path spells, and a leaf the
# class's search pruned is an Aut-image of one it reached, spelling the same
# list.  The first leaf of a copy therefore spells a recorded list L; its
# labeling ``pos`` composed with ``best∘pos_L⁻¹`` (L's recorded labeling
# ``pos_L`` and the class's canonical one ``best``) is an isomorphism onto
# the form, with the sign and edge orbits any isomorphism gives.
# `_new_class` keeps such a map of classes, and `_onto_class` labels a
# graph against it.
# ---------------------------------------------------------------------------


def _neighbors(graph: Multigraph) -> list[list[tuple[int, int]]]:
    """Per vertex, the (neighbor, multiplicity) pairs, sorted by neighbor.

    One run over the sorted edge tuple: the copies of an edge are adjacent,
    and a vertex meets its lower neighbors (as the second end) before its
    higher ones (as the first end), each group in increasing order.
    """
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(graph.num_vertices)]
    edges = graph.edges
    if not edges:
        return nbrs
    prev = edges[0]
    m = 0
    for e in edges:
        if e == prev:
            m += 1
            continue
        u, v = prev
        nbrs[u].append((v, m))
        nbrs[v].append((u, m))
        prev = e
        m = 1
    u, v = prev
    nbrs[u].append((v, m))
    nbrs[v].append((u, m))
    return nbrs


def _initial_cells(nbrs) -> list[list[int]]:
    """Vertices grouped by their multiplicities, ordered by degree, then key.

    A vertex is grouped by the number of its neighbors joined by m edges,
    for each m, packed as digit m of a number in radix 2^shift, which
    exceeds every neighbor count.  Of two vertices of one degree, the
    larger key has more neighbors at the highest multiplicity where the
    counts differ, so the order is that of the degree and then the
    multiplicities in decreasing order.  The groups are ordered only
    when there are two or more; every cubic graph is one.
    """
    shift = len(nbrs).bit_length()
    groups: dict[int, list[int]] = {}
    for v, row in enumerate(nbrs):
        key = 0
        for _, m in row:
            key += 1 << shift * m
        if key in groups:
            groups[key].append(v)
        else:
            groups[key] = [v]
    if len(groups) == 1:
        return list(groups.values())
    order = sorted(groups, key=lambda key: (sum([m for _, m in nbrs[groups[key][0]]]), key))
    return [groups[key] for key in order]


def _refine(cells: list[list[int]], nbrs, parts, base: int) -> list[list[int]]:
    """Refine to an equitable partition.

    Each pass keys every vertex by its multiplicity counts into the cells
    present at the start of the pass, and splits each cell into groups of
    equal keys, ordered by key.  ``parts`` lists, in partition order, the
    cells split off since the partition was last equitable, less the last
    part of each split.  The vertices of a cell then agree on their count
    into every older cell and into the union of each split's parts, so a
    count into a cell outside ``parts`` is fixed by the counts before it:
    keying by the counts into ``parts`` alone gives the same groups in the
    same order.  A key packs those counts as the digits, most significant
    first, of a number in radix ``base``, which exceeds every degree.  A
    discrete partition is equitable and comes back unchanged, unkeyed.
    """
    while len(cells) < len(nbrs):
        key = [0] * len(nbrs)
        place = 1
        for part in reversed(parts):
            for u in part:
                for v, m in nbrs[u]:
                    key[v] += m * place
            place *= base
        new_cells = []
        parts = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            first = key[cell[0]]
            for i, v in enumerate(cell):
                if key[v] != first:
                    break
            else:
                new_cells.append(cell)
                continue
            second = key[v]
            low, high = cell[:i], []
            for v in cell[i:]:
                k = key[v]
                if k == first:
                    low.append(v)
                elif k == second:
                    high.append(v)
                else:
                    break
            else:
                if first > second:
                    low, high = high, low
                new_cells.append(low)
                new_cells.append(high)
                parts.append(low)
                continue
            groups: dict[int, list[int]] = {}
            for v in cell:
                groups.setdefault(key[v], []).append(v)
            ordered = [groups[k] for k in sorted(groups)]
            new_cells += ordered
            parts += ordered[:-1]
        if not parts:
            break
        cells = new_cells
    return cells


class _Search:
    """State of one canonical-form search, passed down the recursion.

    ``path`` lists the vertices individualized on the way to the current
    node.  ``first``/``first_key`` are the first leaf's labeling and edge
    list; ``best``/``best_key``/``best_path`` describe the first leaf
    attaining the minimal edge list found so far.  A labeling maps vertex
    -> position; a leaf's edge list is packed as the sorted codes u * n + v
    (u < v), which order exactly as the sorted (u, v) pairs do.  ``orbits``
    is the union-find forest of the generators, made with the first one.
    ``known`` maps edge lists, as tuples, to the values a leaf spelling one
    of them stops the search with; ``hit`` is then ``(value, labeling)``.
    ``leaves``, if not None, collects each new edge list with its leaf's
    labeling.
    """

    __slots__ = ("nbrs", "base", "edges", "known", "leaves", "hit", "path", "first",
                 "first_key", "best", "best_key", "best_path", "generators", "orbits", "order")

    def __init__(self, nbrs, base, edges, known, leaves):
        self.nbrs = nbrs
        self.base = base
        self.edges = edges
        self.known = known
        self.leaves = leaves
        self.hit = None
        self.path = []
        self.first = self.first_key = None
        self.best = self.best_key = self.best_path = None
        self.generators = []
        self.orbits = None
        self.order = 1


def _find(orbits, v: int) -> int:
    """Root of v in a union-find forest whose roots are their trees' minima."""
    while orbits[v] != v:
        orbits[v] = v = orbits[orbits[v]]
    return v


def _join(orbits, perm) -> None:
    """Merge the orbits of each point and its image under ``perm``."""
    for v, w in enumerate(perm):
        a, b = _find(orbits, v), _find(orbits, w)
        if a != b:
            orbits[max(a, b)] = min(a, b)


def _orbit_roots(size: int, perms) -> list[int]:
    """The least point of each point's orbit under ``perms``, on range(size)."""
    orbits = list(range(size))
    for perm in perms:
        _join(orbits, perm)
    # a point's parent is below it, so its parent's root is already final
    for v in range(size):
        orbits[v] = orbits[orbits[v]]
    return orbits


def _leaf(cells, depth: int, anchor: int, st: _Search) -> int:
    """Compare a leaf with the first and the best leaf; see `_search`.

    A leaf whose edge list is a key of ``st.known`` returns -1 and sets
    ``st.hit``; only a leaf matching neither kept leaf is looked up, since
    those two were looked up when they were reached.  Such a leaf's edge
    list, if new, goes into ``st.leaves`` with its labeling.
    """
    n = len(cells)
    pos = [0] * n
    for i, c in enumerate(cells):
        pos[c[0]] = i
    key = sorted([
        pos[u] * n + pos[v] if pos[u] < pos[v] else pos[v] * n + pos[u]
        for u, v in st.edges
    ])
    if st.first is not None:
        if key == st.first_key:
            _add_generator(st, st.first, pos)
            return anchor
        if key == st.best_key:
            _add_generator(st, st.best, pos)
            back = 0
            for a, b in zip(st.path, st.best_path):
                if a != b:
                    break
                back += 1
            return back
    known, leaves = st.known, st.leaves
    if known is not None or leaves is not None:
        code = tuple(key)
        if known is not None and code in known:
            st.hit = known[code], tuple(pos)
            return -1
        if leaves is not None and code not in leaves:
            leaves[code] = tuple(pos)
    if st.first is None:
        st.first = st.best = pos
        st.first_key = st.best_key = key
        st.best_path = st.path[:]
        return depth
    if key < st.best_key:
        st.best, st.best_key, st.best_path = pos, key, st.path[:]
    return depth


def _inverse(perm) -> tuple[int, ...]:
    """The inverse of a permutation of range(len(perm)), i -> the j with perm[j] = i."""
    inv = [0] * len(perm)
    for j, i in enumerate(perm):
        inv[i] = j
    return tuple(inv)


def _add_generator(st: _Search, target, pos) -> None:
    """Record the automorphism taking labeling ``target`` to ``pos``."""
    inv = _inverse(target)
    gamma = [inv[i] for i in pos]
    st.generators.append(gamma)
    if st.orbits is None:
        st.orbits = list(range(len(pos)))
    _join(st.orbits, gamma)


def _search(cells, parts, depth: int, anchor: int, st: _Search) -> int:
    """Search below one node; return the depth the search resumes at.

    ``anchor`` is the depth of the deepest first-path node on the path to
    this node, which is ``depth`` itself on the first path.  The return
    value is ``depth`` when the node is done, a smaller depth when a
    leaf below matched the first or the best leaf: the depth where the two
    paths part, or -1 when a leaf below hit ``st.known``.  The recursion
    passes its state as arguments: a recursive closure is a reference
    cycle, and leaving one per graph to the cyclic garbage collector added
    about 7% to the g=6 tables' time.
    """
    cells = _refine(cells, st.nbrs, parts, st.base)
    for idx, cell in enumerate(cells):
        if len(cell) > 1:
            break
    else:
        return _leaf(cells, depth, anchor, st)
    head, rest = cells[:idx], cells[idx + 1:]
    path = st.path
    if anchor < depth:
        for v in cell:
            path.append(v)
            back = _search(head + [[v], [u for u in cell if u != v]] + rest, [[v]],
                           depth + 1, anchor, st)
            path.pop()
            if back < depth:
                return back
        return depth
    explored: list[int] = []
    for v in cell:
        orbits = st.orbits
        if orbits is not None and explored:
            root = _find(orbits, v)
            if any(_find(orbits, x) == root for x in explored):
                continue
        path.append(v)
        back = _search(head + [[v], [u for u in cell if u != v]] + rest, [[v]],
                       depth + 1, depth if explored else depth + 1, st)
        path.pop()
        if back < 0:
            return back
        explored.append(v)
    if st.orbits is not None:
        root = _find(st.orbits, cell[0])
        st.order *= sum(1 for u in cell if _find(st.orbits, u) == root)
    return depth


def _edge_codes(graph: Multigraph) -> tuple[int, ...]:
    """The sorted codes ``u * n + v`` of ``graph``'s edges, as ``known`` keys them."""
    n = graph.num_vertices
    return tuple([u * n + v for u, v in graph.edges])


def _canonical_data(graph: Multigraph, nbrs=None, known=None, leaves=None):
    """Uncached canonical search: ``(form, labeling, generators, order)``.

    The first canonical labeling relabels ``graph`` onto ``form``; each
    automorphism gamma of ``graph`` the search finds is returned as the
    generator labeling∘gamma∘labeling⁻¹ of Aut(form), on the form's labels.

    ``nbrs``, if given, is ``_neighbors(graph)``, built by the caller.
    ``known``, if given, maps the `_edge_codes` of canonical forms with
    ``graph``'s vertex count to values.  When ``graph`` is in one of those
    classes, the search stops at the first leaf that spells its form and
    returns ``(value, labeling)``, the labeling an isomorphism onto the
    form that need not be the first canonical one.  Otherwise it returns
    the quadruple it returns without ``known``.

    ``leaves``, if given, is a dict that the search fills: each distinct
    edge list (as `_edge_codes` packs it) that a leaf reached spells ->
    the labeling of the first leaf that spelled it, which relabels
    ``graph`` onto that list.  After a search run to the end these are all
    the lists the leaves of any isomorphic graph's search tree spell (see
    the comment above `_neighbors`), the canonical one with the returned
    labeling among them; after a hit they are only those reached before it.
    """
    n = graph.num_vertices
    if nbrs is None:
        nbrs = _neighbors(graph)
    cells = _initial_cells(nbrs)
    st = _Search(nbrs, len(graph.edges) + 1, graph.edges, known, leaves)
    # the initial cells are the parts of one split of the vertex set, and
    # the degree is constant on each; the radix exceeds every degree
    if _search(cells, cells[:-1], 0, 0, st) < 0:
        return st.hit
    best = st.best
    inv = _inverse(best)
    canon = Multigraph._trusted(n, tuple(divmod(code, n) for code in st.best_key))
    generators = tuple(tuple([best[gamma[v]] for v in inv]) for gamma in st.generators)
    return canon, tuple(best), generators, st.order


def _new_class(graph: Multigraph, known: dict):
    """``graph``'s `_canonical_data` quadruple if its class is not in ``known``, else None.

    ``known`` maps every edge list that the searches of the classes found
    so far reached (their ``leaves``) to ``(form, generators, to_form)``,
    and a new class adds its own.  ``to_form`` is None for the form's own
    list; for another list L it relabels L onto the form, ``best∘pos_L⁻¹``
    (see the comment above `_neighbors`).  It is kept as bytes, a third of
    a tuple's size, so ``graph`` must have fewer than 256 vertices.  A
    later graph of a known class stops at its first leaf.
    """
    leaves: dict[tuple[int, ...], tuple[int, ...]] = {}
    data = _canonical_data(graph, known=known, leaves=leaves)
    if len(data) == 2:
        return None
    form, best, generators, _ = data
    codes = _edge_codes(form)
    for code, pos in leaves.items():
        to_form = None if code == codes else bytes([best[v] for v in _inverse(pos)])
        known[code] = form, generators, to_form
    return data


def _onto_class(graph: Multigraph, known: dict):
    """``(form, generators, labeling)``: ``graph``'s class, Aut(form), an isomorphism onto it.

    ``known`` is a map `_new_class` filled.  A graph in one of its classes
    stops at its first leaf, and the labeling is that leaf's followed by
    the list's ``to_form``.  Any other graph is searched to the end, and
    gives the form, generators and first canonical labeling of the plain
    search.  Either labeling gives a nonzero class the sign, and each edge
    the Aut(form) orbit, that the first canonical labeling gives.
    """
    data = _canonical_data(graph, known=known)
    if len(data) == 4:
        form, labeling, generators, _ = data
        return form, generators, labeling
    (form, generators, to_form), labeling = data
    if to_form is not None:
        labeling = tuple([to_form[i] for i in labeling])
    return form, generators, labeling


@lru_cache(maxsize=1 << 18)
def canonical_data(graph: Multigraph) -> tuple[Multigraph, tuple[tuple[int, ...], ...], int]:
    """Canonical representative, minimal labelings and |Aut| of the vertices.

    Returns ``(canonical, labelings, order)``.  A labeling maps original
    vertex -> canonical position and relabels the graph onto the canonical
    edge list.  ``labelings[0]`` is the first such labeling in the search
    order; each later one is ``labelings[0]`` composed with one generator
    of the vertex automorphism group, and the generators generate it.
    ``order`` is the order of that group.
    """
    canon, lab, generators, order = _canonical_data(graph)
    return canon, (lab,) + tuple(tuple([sigma[i] for i in lab]) for sigma in generators), order


@lru_cache(maxsize=1 << 18)
def canonicalize(graph: Multigraph, parity: Parity) -> CanonicalResult:
    """Canonical representative with sign, or Zero.

    Zero is returned exactly when some automorphism acts with sign -1 on
    the orientation datum; under even parity any graph with a parallel
    edge vanishes this way (swapping the two copies is an odd edge
    permutation fixing the graph).  The sign is a homomorphism on the
    automorphism group, so checking the generators of Aut(form) that
    `_canonical_data` returns suffices.
    """
    form, labeling, generators, _ = _canonical_data(graph)
    if _is_zero(form, parity, generators):
        return CanonicalResult.zero()
    return CanonicalResult(form, orientation_sign(graph, labeling, parity))


def _is_zero(graph: Multigraph, parity: Parity, generators) -> bool:
    """Whether ``graph`` is the zero generator, given generators of Aut(graph).

    It is zero exactly when some generator acts on the orientation with
    sign -1.  Under even parity a graph with a parallel edge is zero, and
    ``generators`` is not read.
    """
    if parity is Parity.EVEN and not graph.is_simple():
        return True
    return any(orientation_sign(graph, gamma, parity) < 0 for gamma in generators)


def automorphism_group_size(graph: Multigraph) -> int:
    """Order of the automorphism group of the multigraph.

    Counts compatible pairs of vertex and edge bijections: the number of
    vertex automorphisms times m! for every parallel class of size m.
    """
    order = canonical_data(graph)[2]
    run = 1
    for prev, cur in zip(graph.edges, graph.edges[1:]):
        if cur == prev:
            run += 1
            order *= run
        else:
            run = 1
    return order


# ---------------------------------------------------------------------------
# Structural predicates.
# ---------------------------------------------------------------------------


def is_connected(graph: Multigraph) -> bool:
    return _connected_after_deleting(graph, ())


def _connected_after_deleting(graph: Multigraph, removed: tuple[int, ...]) -> bool:
    n = graph.num_vertices
    alive = [v for v in range(n) if v not in removed]
    if not alive:
        return True
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in set(graph.edges):
        if u in removed or v in removed:
            continue
        adj[u].append(v)
        adj[v].append(u)
    seen = {alive[0]}
    stack = [alive[0]]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(alive)


def is_triconnected(graph: Multigraph) -> bool:
    """Simple, at least 4 vertices, and no disconnecting vertex pair.

    All-pairs vertex deletion; exact and fast enough at the graph sizes
    this pipeline produces (<= ~16 vertices).  K4 counts as triconnected.
    """
    if not graph.is_simple():
        return False
    n = graph.num_vertices
    if n < 4:
        return False
    if not is_connected(graph):
        return False
    for pair in itertools.combinations(range(n), 2):
        if not _connected_after_deleting(graph, pair):
            return False
    return True
