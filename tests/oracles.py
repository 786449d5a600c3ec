"""Independent brute-force oracles used by the test suite.

Everything here is deliberately naive: exhaustive permutation scans,
filter-all-multisets enumeration, dense rational elimination.  The
oracles share no code path with the production implementations they
check.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction

import numpy as np

from gchom.graphs import Multigraph, Parity
from gchom.linalg import _matmul_mod


def relabel_sorted(graph: Multigraph, perm) -> tuple:
    return tuple(
        sorted(
            (perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])
            for u, v in graph.edges
        )
    )


def vertex_orientation_sign(graph: Multigraph, perm, parity: Parity) -> int:
    """Orientation sign of a vertex relabeling, recomputed from scratch."""
    if parity is Parity.ODD:
        sign = 1
        seen = [False] * len(perm)
        for i in range(len(perm)):
            if not seen[i]:
                j, ln = i, 0
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    ln += 1
                if ln % 2 == 0:
                    sign = -sign
        flips = sum(1 for u, v in graph.edges if perm[u] > perm[v])
        return sign * (-1 if flips % 2 else 1)
    # even: sign of the permutation sorting the mapped edge list (stable)
    mapped = [
        (perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])
        for u, v in graph.edges
    ]
    order = sorted(range(len(mapped)), key=mapped.__getitem__)
    sign = 1
    seen = [False] * len(order)
    for i in range(len(order)):
        if not seen[i]:
            j, ln = i, 0
            while not seen[j]:
                seen[j] = True
                j = order[j]
                ln += 1
            if ln % 2 == 0:
                sign = -sign
    return sign


def graphs_by_edge_addition(num_vertices: int, num_edges: int, *,
                            max_multiplicity: int | None = None,
                            min_degree: int = 0,
                            max_degree: int | None = None,
                            connected: bool = True) -> list[Multigraph]:
    """All isomorphism classes with the given counts, by levelwise growth.

    Adds one edge at a time, collapsing each level to canonical forms.
    Only for small instances; slice enumeration splits vertices.
    """
    from gchom.graphs import canonical_data, is_connected

    if num_vertices < 1 or num_edges < 0:
        raise ValueError("bad vertex or edge count")
    pairs = list(itertools.combinations(range(num_vertices), 2))
    level = {Multigraph(num_vertices, ())}
    for done in range(num_edges):
        remaining = num_edges - done - 1
        nxt: set[Multigraph] = set()
        for g in level:
            deg = list(g.degrees())
            mult = Counter(g.edges)
            for u, v in pairs:
                if max_multiplicity is not None and mult[(u, v)] >= max_multiplicity:
                    continue
                if max_degree is not None and (deg[u] >= max_degree or deg[v] >= max_degree):
                    continue
                deficit = 0
                if min_degree:
                    for w, d in enumerate(deg):
                        need = min_degree - d
                        if w == u or w == v:
                            need -= 1
                        if need > 0:
                            deficit += need
                    if deficit > 2 * remaining:
                        continue
                child = Multigraph._trusted(num_vertices, tuple(sorted(g.edges + ((u, v),))))
                nxt.add(canonical_data(child)[0])
        level = nxt
    out = [
        g for g in level
        if g.min_degree() >= min_degree and (not connected or is_connected(g))
    ]
    return sorted(out, key=lambda m: m.edges)


def brute_vertex_automorphisms(graph: Multigraph) -> list[tuple[int, ...]]:
    base = tuple(graph.edges)
    auts = []
    for perm in itertools.permutations(range(graph.num_vertices)):
        if relabel_sorted(graph, perm) == base:
            auts.append(perm)
    return auts


def brute_canonicalize(graph: Multigraph, parity: Parity):
    """(canonical edge tuple, sign) over all V! labelings, or None for zero.

    Zero iff some automorphism has orientation sign -1; under even parity
    a parallel edge forces zero (swapping the two copies is an odd edge
    permutation that no vertex permutation sees).
    """
    if parity is Parity.EVEN and len(set(graph.edges)) != len(graph.edges):
        return None
    for perm in brute_vertex_automorphisms(graph):
        if vertex_orientation_sign(graph, perm, parity) == -1:
            return None
    best = None
    best_perm = None
    for perm in itertools.permutations(range(graph.num_vertices)):
        key = relabel_sorted(graph, perm)
        if best is None or key < best:
            best, best_perm = key, perm
    return best, vertex_orientation_sign(graph, best_perm, parity)


def _reference_refine(cells, weights):
    while True:
        changed = False
        new_cells = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups = {}
            for v in cell:
                wv = weights[v]
                key = tuple(sum(wv[u] for u in other) for other in cells)
                groups.setdefault(key, []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for key in sorted(groups):
                    new_cells.append(groups[key])
        cells = new_cells
        if not changed:
            return cells


def counter_neighbors(graph: Multigraph) -> list[list[tuple[int, int]]]:
    """Per vertex, the (neighbor, multiplicity) pairs, sorted by neighbor.

    Counted with a Counter over the edge list and sorted row by row.
    """
    rows: list[list[tuple[int, int]]] = [[] for _ in range(graph.num_vertices)]
    for (u, v), m in Counter(graph.edges).items():
        rows[u].append((v, m))
        rows[v].append((u, m))
    return [sorted(row) for row in rows]


def reference_canonical_data(graph: Multigraph):
    """(canonical edge tuple, all minimal labelings) by the dense search.

    Dense per-pass refinement (every vertex against every cell, on every
    pass) plus backtracking over every child of every node.  The sparse
    production core must agree with it exactly: the same minimal edge list
    and the same labelings in the same order.
    """
    n = graph.num_vertices
    edges = graph.edges
    if n == 1:
        return edges, ((0,),)
    weights = [[0] * n for _ in range(n)]
    for u, v in edges:
        weights[u][v] += 1
        weights[v][u] += 1
    groups = {}
    for v in range(n):
        mults = sorted((m for m in weights[v] if m), reverse=True)
        groups.setdefault((sum(mults), tuple(mults)), []).append(v)
    cells = _reference_refine([groups[k] for k in sorted(groups)], weights)
    best = None
    labelings = []

    def search(cells):
        nonlocal best
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                break
        else:
            pos = [0] * n
            for i, c in enumerate(cells):
                pos[c[0]] = i
            key = relabel_sorted(graph, pos)
            if best is None or key < best:
                best = key
                labelings.clear()
            if key == best:
                labelings.append(tuple(pos))
            return
        for v in cell:
            others = [u for u in cell if u != v]
            search(_reference_refine(cells[:idx] + [[v], others] + cells[idx + 1:],
                                     weights))

    search(cells)
    return best, tuple(labelings)


def permutation_group(generators, n: int) -> set[tuple[int, ...]]:
    """Every product of the generators (permutations of range(n)), by search."""
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        grown = []
        for h in frontier:
            for g in generators:
                product = tuple(g[h[v]] for v in range(n))
                if product not in group:
                    group.add(product)
                    grown.append(product)
        frontier = grown
    return group


def all_vertex_splits(graph: Multigraph) -> list[Multigraph]:
    """Every one-vertex split keeping minimum degree 3, with no orbit pruning.

    Every vertex v of degree >= 4 is split in every way that moves k_x of
    the m_x edges between v and each neighbor x to a new vertex joined to
    v, keeping at least two old half-edges on each side.  Of the two
    orders of the sides only the one with the smaller moved-count vector
    is kept; the splits come in the order of v, then of the count vectors.
    """
    n = graph.num_vertices
    out = []
    for v in range(n):
        nbrs = sorted(Counter(u if w == v else w for u, w in graph.edges if v in (u, w)).items())
        degree = sum(m for _, m in nbrs)
        if degree < 4:
            continue
        others = [e for e in graph.edges if v not in e]
        for take in itertools.product(*(range(m + 1) for _, m in nbrs)):
            kept = tuple(m - k for (_, m), k in zip(nbrs, take))
            if not 2 <= sum(take) <= degree - 2 or take > kept:
                continue
            edges = others + [(v, n)]
            for (x, _), k, c in zip(nbrs, take, kept):
                edges += [(x, n)] * k + [(v, x)] * c
            out.append(Multigraph.from_edges(n + 1, edges))
    return out


def per_edge_contractions(sources, targets, parity: Parity, *, strict: bool):
    """``(source index, target index) -> coefficient``, one term per edge.

    The contraction differential summed over every edge of every source,
    without orbit weighting; images missing from ``targets`` raise when
    ``strict`` and are dropped otherwise.  It checks the orbit weighting
    only: the contraction itself is checked by the d∘d = 0 tests.
    """
    acc = {}
    for j, graph in enumerate(sources):
        for e in range(graph.num_edges):
            res = contract_edge(graph, e, parity)
            if res.is_zero:
                continue
            i = targets.get(res.canonical)
            if i is None:
                if strict:
                    raise RuntimeError(f"image missing: {res.canonical}")
                continue
            acc[(j, i)] = acc.get((j, i), 0) + res.sign
    return {k: v for k, v in acc.items() if v}


# ---------------------------------------------------------------------------
# Not oracles: entry points into gchom's own splitting and contraction that
# only the tests call, kept here rather than as package API.
# ---------------------------------------------------------------------------


def vertex_splits(graph: Multigraph) -> list[Multigraph]:
    """gchom's one-vertex splits of ``graph``, one per Aut(graph) orbit.

    The new vertex gets the highest label; the children are not
    canonicalized.
    """
    from gchom.complexes import _generators_of, _split_children

    return [child for _, child in _split_children(graph, _generators_of(graph))]


def contract_edge(graph: Multigraph, edge_index: int, parity: Parity):
    """Contract one edge and canonicalize, with the orientation sign.

    Contracting an edge with a parallel partner would create tadpoles,
    so it gives zero; any other edge is contracted by gchom's
    `_contract` and labeled through the cached `canonicalize`.
    """
    from gchom.complexes import _contract, _is_parallel
    from gchom.graphs import CanonicalResult, canonicalize

    edges = graph.edges
    if not 0 <= edge_index < len(edges):
        raise IndexError(f"edge index {edge_index} out of range")
    if _is_parallel(edges, edge_index):
        return CanonicalResult.zero()
    image, sign = _contract(graph, edge_index, parity)
    res = canonicalize(image, parity)
    if res.is_zero:
        return res
    return CanonicalResult(res.canonical, sign * res.sign)


def naive_enumerate(num_vertices: int, num_edges: int, *, min_degree: int = 3,
                    connected: bool = True, simple_only: bool = False):
    """All isomorphism classes by filtering every sorted edge multiset.

    Exponential in num_edges; only usable for tiny slices.  Returns the
    set of brute-force canonical edge tuples.
    """
    from gchom.graphs import is_connected

    pairs = list(itertools.combinations(range(num_vertices), 2))
    if simple_only:
        candidates = itertools.combinations(pairs, num_edges)
    else:
        candidates = itertools.combinations_with_replacement(pairs, num_edges)
    classes = set()
    for edges in candidates:
        deg = [0] * num_vertices
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        if min(deg) < min_degree:
            continue
        g = Multigraph(num_vertices, tuple(edges))
        if connected and not is_connected(g):
            continue
        best = None
        for perm in itertools.permutations(range(num_vertices)):
            key = relabel_sorted(g, perm)
            if best is None or key < best:
                best = key
        classes.add(best)
    return classes


def degree_sequence_enumerate(num_vertices: int, num_edges: int, *,
                              min_degree: int = 3, connected: bool = True):
    """Isomorphism classes via degree-sequence stratified backtracking.

    Enumerates non-increasing degree sequences, then all edge multisets
    realizing each by assigning pair multiplicities in lexicographic
    order.  Deduplication is by canonical form; returns that set.
    Exponential in the labeled count, so small slices only.
    """
    from gchom.graphs import canonical_data, is_connected

    target = 2 * num_edges
    classes = set()

    def sequences(i, remaining, cap):
        if i == num_vertices:
            if remaining == 0:
                yield ()
            return
        left_min = min_degree * (num_vertices - i - 1)
        for d in range(min(cap, remaining - left_min), min_degree - 1, -1):
            for rest in sequences(i + 1, remaining - d, d):
                yield (d,) + rest

    pairs = list(itertools.combinations(range(num_vertices), 2))

    def backtrack(idx, residual, edges):
        if idx == len(pairs):
            if any(residual):
                return
            g = Multigraph(num_vertices, tuple(sorted(edges)))
            if connected and not is_connected(g):
                return
            classes.add(canonical_data(g)[0])
            return
        u, v = pairs[idx]
        # once the last pair touching u is passed, u must be saturated
        last_for_u = v == num_vertices - 1
        cap = min(residual[u], residual[v])
        for m in range(cap, -1, -1):
            if last_for_u and residual[u] - m != 0:
                continue
            residual[u] -= m
            residual[v] -= m
            backtrack(idx + 1, residual, edges + [(u, v)] * m)
            residual[u] += m
            residual[v] += m

    for seq in sequences(0, target, num_edges):
        backtrack(0, list(seq), [])
    return classes


def det_mod_p(matrix, p: int) -> int:
    """Determinant of a square integer matrix mod p, by elimination."""
    m = [[int(x) % p for x in row] for row in matrix]
    n = len(m)
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det % p
        det = det * m[col][col] % p
        inv = pow(m[col][col], p - 2, p)
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv % p
                for c in range(col, n):
                    m[r][c] = (m[r][c] - f * m[col][c]) % p
    return det % p


def charpoly_mod_p(matrix, p: int) -> list[int]:
    """Characteristic polynomial det(xI - B) mod p, ascending coefficients.

    Evaluated at n+1 points and Lagrange-interpolated; exact as long as
    p > n.
    """
    n = len(matrix)
    xs = list(range(n + 1))
    ys = []
    for x in xs:
        shifted = [[(x if i == j else 0) - int(matrix[i][j]) for j in range(n)]
                   for i in range(n)]
        ys.append(det_mod_p(shifted, p))
    # Lagrange interpolation over F_p
    coeffs = [0] * (n + 1)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = [1]
        denom = 1
        for j, xj in enumerate(xs):
            if j == i:
                continue
            new = [0] * (len(basis) + 1)
            for k, b in enumerate(basis):
                new[k] = (new[k] - xj * b) % p
                new[k + 1] = (new[k + 1] + b) % p
            basis = new
            denom = denom * (xi - xj) % p
        scale = yi * pow(denom, p - 2, p) % p
        for k, b in enumerate(basis):
            coeffs[k] = (coeffs[k] + scale * b) % p
    return coeffs


def poly_divides(g: list[int], f: list[int], p: int) -> bool:
    """True if polynomial g divides f over F_p (ascending coefficients)."""
    f = [c % p for c in f]
    g = [c % p for c in g]
    while g and g[-1] == 0:
        g.pop()
    if not g:
        return all(c == 0 for c in f)
    ginv = pow(g[-1], p - 2, p)
    rem = f[:]
    while len(rem) >= len(g) and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(g):
            break
        factor = rem[-1] * ginv % p
        shift = len(rem) - len(g)
        for i, c in enumerate(g):
            rem[shift + i] = (rem[shift + i] - factor * c) % p
    return all(c == 0 for c in rem)


def rational_rank(rows: list[list[Fraction]]) -> int:
    """Exact rank over Q by dense fraction elimination."""
    m = [row[:] for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    row = 0
    for col in range(nc):
        piv = None
        for r in range(row, nr):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        pv = m[row][col]
        for r in range(row + 1, nr):
            if m[r][col] != 0:
                f = m[r][col] / pv
                mr, mp = m[r], m[row]
                for c in range(col, nc):
                    mr[c] -= f * mp[c]
        rank += 1
        row += 1
        if row == nr:
            break
    return rank


def rank_mod_p(matrix, p: int) -> int:
    """Rank mod p of a sparse integer matrix's `entries`, by echelon insertion.

    Each row is reduced by the echelon rows found so far, leading column
    first, and joins them (scaled to a leading 1) unless it vanishes.
    Plain Python ints, one prime, no pivot ordering.
    """
    rows: dict[int, dict[int, int]] = {}
    for (i, j), v in matrix.entries.items():
        if v % p:
            rows.setdefault(i, {})[j] = v % p
    echelon: dict[int, dict[int, int]] = {}  # leading column -> row
    for row in rows.values():
        while row:
            lead = min(row)
            basis = echelon.get(lead)
            if basis is None:
                inv = pow(row[lead], p - 2, p)
                echelon[lead] = {j: v * inv % p for j, v in row.items()}
                break
            f = row[lead]
            for j, v in basis.items():
                nv = (row.get(j, 0) - f * v) % p
                if nv:
                    row[j] = nv
                else:
                    row.pop(j, None)
    return len(echelon)


def family_graph(kind: str, perm) -> Multigraph:
    """The graph of ``perm`` in family ``kind``, A and A' from `complement_graph`."""
    from gchom.kneissler import barrel, x_graph, y_graph

    if kind in ("A", "Aprime"):
        return complement_graph(kind, perm)
    return {"B": barrel, "X": x_graph, "Y": y_graph}[kind](perm)


def exhaustive_family(kind: str, loops: int, parity: Parity) -> dict:
    """Each nonzero class of a family -> the permutations whose graph is in it.

    No frame-symmetry orbits: each defining permutation's graph is built,
    filtered and labeled on its own, in `itertools.permutations` order,
    and the complement kinds exclude the forms of every barrel.  The keys,
    over the kinds of a group (X and Y for "V", A and Aprime for "C"), are
    the classes of ``kneissler._families(loops).classes[group]`` that do
    not vanish under ``parity``.
    """
    from gchom.graphs import canonical_data, canonicalize

    degree = loops - 1 if kind == "B" else loops - 2
    excluded = set()
    if kind in ("A", "Aprime"):
        excluded = {canonical_data(family_graph("B", p))[0]
                    for p in itertools.permutations(range(loops - 1))}
    reps: dict = {}
    for perm in itertools.permutations(range(degree)):
        g = family_graph(kind, perm)
        if kind in ("Y", "Aprime") and not g.is_simple():
            continue
        form = canonical_data(g)[0]
        if form in excluded or canonicalize(g, parity).is_zero:
            continue
        reps.setdefault(form, []).append(perm)
    return {k: tuple(v) for k, v in reps.items()}


def complement_graph(kind: str, perm) -> Multigraph:
    """The A or A' graph of ``perm``, its edges written out one by one.

    The new vertex q = 2m+1 joins vertex 0, takes the edge to m (A) or
    to the hub 2m (A'), and becomes the end of the strand that the X or
    Y graph routes to vertex 0.
    """
    m = len(perm)
    q = 2 * m + 1
    edges = [(0, q)] + [(i, (i + 1) % m) for i in range(m)]
    if kind == "A":
        edges += [(m + j, m + (j + 1) % (m + 1)) for j in range(m + 1)]
        edges.append((q, m))
        sources = [m + 1 + i for i in range(m)]
    else:
        hub = 2 * m
        edges += [(m + i, m + (i + 1) % m) for i in range(m)] + [(m, hub), (q, hub)]
        sources = [hub] + [m + i for i in range(1, m)]
    edges += [(q if target == 0 else target, source) for target, source in zip(perm, sources)]
    return Multigraph.from_edges(q + 1, edges)


def dense(matrix):
    """The dense int64 array of a sparse matrix's `entries`."""
    out = np.zeros((matrix.nrows, matrix.ncols), dtype=np.int64)
    for (i, j), v in matrix.entries.items():
        out[i, j] = v
    return out


# ---------------------------------------------------------------------------
# Reference Wiedemann: one operator application per sequence term, the
# diagonals applied as separate passes, the Berlekamp-Massey window rebuilt
# from a list.  Shares `_matmul_mod` with gchom.  The random draws are
# computed here in Python ints, one entry at a time.
# ---------------------------------------------------------------------------


def splitmix64(z: int) -> int:
    """The splitmix64 finalizer of a 64-bit integer (Steele, Lea & Flood 2014)."""
    mask = (1 << 64) - 1
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
    return z ^ (z >> 31)


def reference_draw(seed: int, stream: int, size: int, low: int, high: int) -> np.ndarray:
    """Entry i: low + splitmix64(seed*G + stream*H + i mod 2**64) mod (high - low)."""
    start = seed * 0x9E3779B97F4A7C15 + stream * 0xD1B54A32D192ED03
    return np.array([low + splitmix64((start + i) % (1 << 64)) % (high - low)
                     for i in range(size)], dtype=np.int64)


def reference_draws(matrix, seed: int):
    """(d1, d2, u) of one Wiedemann run at ``seed``: streams 1, 2 and 3."""
    p = matrix.p
    return (reference_draw(seed, 1, matrix.ncols, 1, p),
            reference_draw(seed, 2, matrix.nrows, 1, p),
            reference_draw(seed, 3, matrix.ncols, 0, p))


class _ReferenceOperator:
    """B = D1 A^T D2 A D1, each diagonal its own pass."""

    def __init__(self, matrix, seed: int):
        self.p = matrix.p
        self.nrows = matrix.nrows
        self.n = matrix.ncols
        self.d1, self.d2, _ = reference_draws(matrix, seed)
        items = sorted(matrix.entries.items())
        self.ri = np.array([k[0] for k, _ in items], dtype=np.int64)
        self.ci = np.array([k[1] for k, _ in items], dtype=np.int64)
        self.vals = np.array([v for _, v in items], dtype=np.int64)

    def _matvec(self, x):
        t = (self.vals * x[self.ci]) % self.p
        y = np.bincount(self.ri, weights=t.astype(np.float64), minlength=self.nrows)
        return y.astype(np.int64) % self.p

    def _rmatvec(self, y):
        t = (self.vals * y[self.ri]) % self.p
        x = np.bincount(self.ci, weights=t.astype(np.float64), minlength=self.n)
        return x.astype(np.int64) % self.p

    def apply(self, x):
        x = np.asarray(x, dtype=np.int64) % self.p
        w = (self.d1 * x) % self.p
        w = self._matvec(w)
        w = (self.d2 * w) % self.p
        w = self._rmatvec(w)
        return (self.d1 * w) % self.p


class _ReferenceBMState:
    """Online Berlekamp-Massey, the pushed terms kept in a Python list."""

    def __init__(self, p: int):
        self.p = p
        self.c = np.zeros(1, dtype=np.int64)
        self.c[0] = 1
        self.b = self.c.copy()
        self.L = 0
        self.m = 1
        self.bden = 1
        self.seq: list[int] = []
        self.last_discrepancy = 0

    def push(self, a: int):
        p = self.p
        seq = self.seq
        n = len(seq)
        seq.append(a)
        L = self.L
        if L:
            window = np.array(seq[n - L:n][::-1], dtype=np.int64)
            d = (a + int(_matmul_mod(self.c[1:L + 1], window, p))) % p
        else:
            d = a % p
        if d == 0:
            self.m += 1
            return
        self.last_discrepancy = n + 1
        coef = d * pow(self.bden, p - 2, p) % p
        shift = self.m
        new_len = max(len(self.c), len(self.b) + shift)
        c = np.zeros(new_len, dtype=np.int64)
        c[: len(self.c)] = self.c
        c[shift: shift + len(self.b)] = (
            c[shift: shift + len(self.b)] - coef * self.b
        ) % p
        if 2 * L <= n:
            self.b = self.c
            self.bden = d
            self.L = n + 1 - L
            self.m = 1
        else:
            self.m += 1
        self.c = c % p

    def generator(self) -> list[int]:
        p = self.p
        L = self.L
        g = [0] * (L + 1)
        for i in range(min(len(self.c), L + 1)):
            g[L - i] = int(self.c[i]) % p
        g[L] = 1
        return g


def reference_wiedemann_bound(matrix, seed: int):
    """(bound, pushed sequence) of one scalar Wiedemann run: the sequence
    u^T B^k u built as u . (B^k u), one application of B per term."""
    extra_terms, stall_terms = 16, 8
    p = matrix.p
    op = _ReferenceOperator(matrix, seed)
    _, _, u = reference_draws(matrix, seed)
    limit = 2 * min(matrix.nrows, matrix.ncols) + extra_terms
    state = _ReferenceBMState(p)
    w = u.copy()
    for k in range(limit):
        state.push(int(_matmul_mod(u, w, p)))
        processed = k + 1
        if (processed >= 2 * state.L + stall_terms
                and processed - state.last_discrepancy >= stall_terms):
            break
        w = op.apply(w)
    g = state.generator()
    deg = len(g) - 1
    if deg == 0:
        return 0, state.seq
    return deg - (1 if g[0] == 0 else 0), state.seq
