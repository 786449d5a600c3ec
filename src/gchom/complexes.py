"""Generator bases of the graph complexes and the contraction differential.

A slice of the complex fixes the loop order g and the vertex count V
(so E = V + g - 1) and holds one canonical representative per nonzero
isomorphism class of connected multigraphs with all degrees >= 3 and no
self-edges.  The "full" variant takes all such graphs, the triconnected
variant only the simple 3-connected ones.  The differential contracts
edges and lowers V by one.

Slices are enumerated bottom-up in V: every admissible graph that has
at least one non-parallel edge arises by splitting a vertex of an
admissible graph with one vertex fewer, and the remaining graphs (all
edges parallel) are enumerated directly from their simple supports,
grown one vertex at a time.  Splitting is isomorphism-free by canonical
augmentation: each parent class is split once per orbit of its
automorphisms, and a child is kept only when its fresh edge is its
canonical contraction edge, so every class is reached exactly once, no
global dedup is needed, and the astronomically larger labeled search
space is never touched.

Each class is labeled once, as the child that finds it, and returned
with the generators of its automorphism group.  Splitting it, the zero test
and the edge orbits of the differential take them as an argument instead
of labeling the canonical form again; a graph read from a file gets them
from one uncached labeling.  The contracted images of the differential
are labeled once per matrix and worker, outside the `canonical_data` and
`canonicalize` caches, which they would otherwise fill with graphs
looked up about once each.

The loops that dominate a table run on every CPU this process may use
(`os.sched_getaffinity`): here, splitting the parents of a raw slice and
contracting the sources of a differential, and in `gchom.cohomology`,
ranking the differentials of a table.  Each is one call of
`_split_work(fn, items, weights)`, a map: it deals the items by weight
(`_deal`), runs one share here and the others in one forked worker per
extra CPU, and returns ``fn``'s results in item order, so the slices,
their generators, the matrices and the ranks are the same as in one
process.  Calls with less work than `_FORK_FLOOR`, hosts with one usable
CPU, platforms without `os.fork` and processes with other live threads
run in one process.
"""

from __future__ import annotations

import itertools
import os
import pickle
import threading
from bisect import insort
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, cached_property
from typing import TYPE_CHECKING

from gchom.graphs import (
    Multigraph,
    Parity,
    _canonical_data,
    _edge_codes,
    _inverse,
    _is_zero,
    _neighbors,
    _new_class,
    _orbit_roots,
    is_triconnected,
    orientation_sign,
    perm_sign,
)
from gchom.sparse import IntSparseMatrix

if TYPE_CHECKING:
    import numpy as np


class Variant(Enum):
    FULL = "full"
    TRICONNECTED = "tri"

    @classmethod
    def from_name(cls, name: str) -> "Variant":
        try:
            return {"full": cls.FULL, "tri": cls.TRICONNECTED}[name.lower()]
        except KeyError:
            raise ValueError(f"unknown variant {name!r}; expected 'full' or 'tri'")

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ComplexSpec:
    parity: Parity
    variant: Variant
    loops: int

    def __post_init__(self):
        if self.loops < 2:
            raise ValueError("loop order must be >= 2")

    def degree_of(self, num_vertices: int) -> int:
        """Cohomological degree of the slice with the given vertex count."""
        if self.parity is Parity.EVEN:
            return num_vertices - self.loops - 1
        return num_vertices - 2 * self.loops - 1


@dataclass(frozen=True)
class BasisSlice:
    spec: ComplexSpec
    num_vertices: int
    generators: tuple[Multigraph, ...]

    def __len__(self) -> int:
        return len(self.generators)

    @cached_property
    def index(self) -> dict[Multigraph, int]:
        return {g: i for i, g in enumerate(self.generators)}


# ---------------------------------------------------------------------------
# Enumeration.
# ---------------------------------------------------------------------------


def _connected_simple_graphs(num_vertices: int, max_edges: int) -> set[Multigraph]:
    """Canonical forms of the connected simple graphs with at most ``max_edges`` edges.

    Grown one vertex at a time: the new vertex is joined to a nonempty
    subset of the old ones, and each level is collapsed to canonical
    forms, each grown graph labeled against the level's classes found so
    far (`_new_class`).  Deleting a vertex that is not a cut vertex (a leaf
    of a spanning tree) removes at least one edge and leaves a connected
    graph, so every such graph is reached through smaller ones that
    leave an edge for each vertex still to come.
    """
    level = {Multigraph._trusted(1, ())}
    for k in range(1, num_vertices):
        budget = max_edges - (num_vertices - 1 - k)
        grown: set[Multigraph] = set()
        known: dict[tuple[int, ...], tuple] = {}
        for graph in level:
            for size in range(1, min(k, budget - len(graph.edges)) + 1):
                for subset in itertools.combinations(range(k), size):
                    edges = tuple(sorted(graph.edges + tuple((u, k) for u in subset)))
                    data = _new_class(Multigraph._trusted(k + 1, edges), known)
                    if data is not None:
                        grown.add(data[0])
        level = grown
    return level


def _all_parallel_graphs(num_vertices: int, num_edges: int) -> dict[Multigraph, tuple]:
    """Connected loopless multigraphs, degrees >= 3, every edge parallel.

    These are the graphs with no contractible edge; they only exist when
    a connected simple support with at most E/2 edges fits, i.e. for
    V <= g + 1.  Enumerated as support graphs plus multiplicities >= 2,
    each labeled against the classes found so far (`_new_class`).  Returns
    each canonical form with the generators of its automorphism group,
    from the first graph of its class.
    """
    out: dict[Multigraph, tuple] = {}
    if num_vertices == 1 or 2 * (num_vertices - 1) > num_edges:
        return out
    known: dict[tuple[int, ...], tuple] = {}
    for support in _connected_simple_graphs(num_vertices, num_edges // 2):
        sup_edges = support.edges
        for comp in _compositions(num_edges - 2 * len(sup_edges), len(sup_edges)):
            mults = [2 + c for c in comp]
            deg = [0] * num_vertices
            for (u, v), m in zip(sup_edges, mults):
                deg[u] += m
                deg[v] += m
            if min(deg) < 3:
                continue
            edges = []
            for (u, v), m in zip(sup_edges, mults):
                edges.extend([(u, v)] * m)
            data = _new_class(Multigraph._trusted(num_vertices, tuple(sorted(edges))), known)
            if data is not None:
                out[data[0]] = data[2]
    return out


def _compositions(total: int, parts: int):
    """All ways to write total as an ordered sum of `parts` nonnegative ints."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _split_children(graph: Multigraph, generators):
    """``(v, child)`` for each split `_split_orbit_reps` keeps, in its order.

    ``generators`` generate Aut(graph).  v is the split vertex, so the
    child's fresh edge is ``(v, n)`` for ``n = graph.num_vertices``.
    """
    nbrs = _neighbors(graph)
    deg = [sum(m for _, m in row) for row in nbrs]
    for v, take in _split_orbit_reps(nbrs, generators):
        yield v, _rows_graph(_split_child(nbrs, deg, v, take)[0])


@lru_cache(maxsize=None)
def _split_takes(counts: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The takes that split a vertex whose multiplicities, in neighbor order, are ``counts``.

    A take gives the half-edges to each neighbor that move.  Both sides
    must keep at least two old half-edges, and of a take and its
    complement, the two orders of the sides, only the smaller is kept.
    These depend on the multiplicities alone, so they are found once per
    tuple, in `itertools.product` order; the slices of g=7 meet 145 tuples.
    """
    d = sum(counts)
    return tuple(take for take in itertools.product(*(range(m + 1) for m in counts))
                 if 2 <= sum(take) <= d - 2
                 and take <= tuple([m - k for m, k in zip(counts, take)]))


def _split_orbit_reps(nbrs, generators, keep=None):
    """One-vertex splits keeping minimum degree 3, one per Aut(graph) orbit.

    Splitting vertex v distributes its half-edges over two vertices
    joined by a fresh edge; both sides must keep at least two old
    half-edges, so only vertices of degree >= 4 split.  A split is v with
    the number of half-edges to each neighbor that move, up to swapping
    the sides: one of v's `_split_takes`, read from the table of its
    multiplicity pattern, so no split is built to be thrown away.  Splits
    in one orbit give isomorphic graphs, so only the first split of each
    orbit (in the order of v, then of the takes) is kept; the orbits come
    from ``generators``, which generate Aut(graph).

    ``nbrs`` is ``_neighbors(graph)``.  Returns the first ``(v, take)`` of
    each Aut(graph) orbit, where ``take`` gives the half-edges to each
    neighbor in ``nbrs[v]`` that move.  ``keep``, if given, is a predicate
    ``keep(v, nbrs[v], take)`` that must be invariant under Aut(graph); it
    drops whole orbits before any pruning.
    """
    splits = []  # (v, moved counts in the order of nbrs[v])
    for v, row in enumerate(nbrs):
        for take in _split_takes(tuple([m for _, m in row])):
            if keep is None or keep(v, row, take):
                splits.append((v, take))
    if len(splits) > 1 and generators:
        roots = _orbit_roots(len(splits), _split_images(splits, nbrs, generators))
        splits = [split for i, split in enumerate(splits) if roots[i] == i]
    return splits


def _split_child(nbrs, deg, v: int, take):
    """Rows and degrees of the split of vertex v, edited from the parent's.

    ``nbrs`` and ``deg`` are the parent's `_neighbors` rows and degrees,
    and ``take`` the half-edges to each neighbor in ``nbrs[v]`` that move
    to the new vertex n = len(nbrs), which the fresh edge (v, n) joins to
    v.  Only the rows of v, of its neighbors and of n, and the degrees of
    v and n, differ from the parent's; the other rows are the parent's
    own lists, shared.  The rows are those `_neighbors` gives the child.
    """
    n = len(nbrs)
    rows = nbrs + [None]
    row_v, row_n = [], []
    moved = 0
    for (x, m), k in zip(nbrs[v], take):
        kept = m - k
        row = [(y, kept) if y == v else (y, c) for y, c in nbrs[x] if y != v or kept]
        if k:
            row.append((n, k))
            row_n.append((x, k))
            moved += k
        if kept:
            row_v.append((x, kept))
        rows[x] = row
    row_v.append((n, 1))
    insort(row_n, (v, 1))
    rows[v], rows[n] = row_v, row_n
    child_deg = deg + [moved + 1]
    child_deg[v] = deg[v] + 1 - moved
    return rows, child_deg


def _rows_graph(rows) -> Multigraph:
    """The graph whose `_neighbors` rows are ``rows``."""
    edges = []
    for u, row in enumerate(rows):
        for x, m in row:
            if u < x:
                edges.extend([(u, x)] * m)
    return Multigraph._trusted(len(rows), tuple(edges))


def _split_images(splits, nbrs, generators):
    """Per generator, the index of each split's image."""
    index = {split: i for i, split in enumerate(splits)}
    slot = [{x: i for i, (x, _) in enumerate(row)} for row in nbrs]
    for gamma in generators:
        perm = []
        for v, take in splits:
            w = gamma[v]
            moved = [0] * len(take)
            kept = [0] * len(take)
            for (x, m), k in zip(nbrs[v], take):
                i = slot[w][gamma[x]]
                moved[i] = k
                kept[i] = m - k
            perm.append(index[(w, min(tuple(moved), tuple(kept)))])
        yield perm


def _sorted_pair(a, b):
    return (a, b) if a < b else (b, a)


def _still_tied(tied, fresh, key):
    """The edges of ``tied`` whose sorted pair of endpoint keys is fresh's.

    ``key`` lists a key per vertex.  None as soon as one edge's pair is
    larger than fresh's.
    """
    top = _sorted_pair(key[fresh[0]], key[fresh[1]])
    out = []
    for a, b in tied:
        ka, kb = key[a], key[b]
        pair = (ka, kb) if ka < kb else (kb, ka)
        if pair > top:
            return None
        if pair == top:
            out.append((a, b))
    return out


def _canonical_parent_form(nbrs, deg, fresh: tuple[int, int]):
    """``(form, generators)`` of the child if ``fresh`` is its canonical contraction edge.

    The child is given by its `_neighbors` rows ``nbrs`` and degrees
    ``deg``.  The canonical contraction edge m(child) is a simple edge
    chosen up to Aut(child), in four isomorphism-invariant stages: the
    largest sorted pair of endpoint degrees; among those, the largest
    sorted pair of endpoint signatures (a vertex's sorted (neighbor
    degree, multiplicity) pairs); among those, the largest sorted pair of
    endpoint two-hop signatures (a vertex's sorted (neighbor signature,
    multiplicity) pairs); and among those, the edge with the smallest
    image under the first canonical labeling.

    Stage 1 must already have passed: no simple edge may have a larger
    degree pair than ``fresh``, which `_accepted_children` decides on the
    split descriptor.  Stages 2 and 2b run on the rows and return None as
    soon as an edge beats ``fresh``; the child is built and labeled only
    when ``fresh`` survives them.  None also when ``fresh`` is not in the
    Aut(child) orbit of m(child), compared on their images in the form.
    An accepted child gives its canonical form and the generators of Aut(form).
    """
    a, b = fresh
    # an edge at a vertex of one of fresh's degrees ties when its degrees sum as fresh's do
    top, total = (deg[a], deg[b]), deg[a] + deg[b]
    tied = [(u, x) for u, row in enumerate(nbrs) if deg[u] in top
            for x, m in row if m == 1 and u < x and deg[u] + deg[x] == total]
    if len(tied) > 1:
        signature = [sorted([(deg[y], m) for y, m in row]) for row in nbrs]
        tied = _still_tied(tied, fresh, signature)
        if tied is None:
            return None
        if len(tied) > 1:
            tied = _still_tied(tied, fresh, [sorted([(signature[y], m) for y, m in row])
                                             for row in nbrs])
            if tied is None:
                return None
    child = _rows_graph(nbrs)
    canon, lab, generators, _ = _canonical_data(child, nbrs)
    if len(tied) > 1:
        # the tied edges are simple, so each image is one edge of the form
        best = min(_sorted_pair(lab[u], lab[x]) for u, x in tied)
        mine = _sorted_pair(lab[a], lab[b])
        if best != mine:
            roots = _edge_orbit_roots(canon, generators)
            if roots[canon.edges.index(best)] != roots[canon.edges.index(mine)]:
                return None
    return canon, generators


def _accepted_children(parent: Multigraph, generators):
    """``(form, generators)`` of the split children whose fresh edge is canonical.

    One child per orbit of splits, and only those whose fresh edge passes
    stage 1 of the canonical contraction edge (see
    `_canonical_parent_form`), decided here on the split descriptor by
    `fresh_may_win` before the orbit pruning.  The child's rows and
    degrees are edited from the parent's (`_split_child`) for stages 2
    and 2b, and the child is built only when it is labeled.  ``generators``
    generate Aut(parent).
    """
    n = parent.num_vertices
    nbrs = _neighbors(parent)
    deg = [sum(m for _, m in row) for row in nbrs]
    simple = sorted(((_sorted_pair(deg[u], deg[x]), u, x) for u, row in enumerate(nbrs)
                     for x, m in row if m == 1 and u < x), reverse=True)
    # per splittable vertex v, the largest degree pair of a simple edge
    # away from v, which the split leaves as it is
    away = {v: next((pair for pair, a, b in simple if a != v != b), (0, 0))
            for v in range(n) if deg[v] >= 4}

    def fresh_may_win(v, row, take):
        """Stage 1 of the canonical contraction edge, on the split descriptor.

        The split keeps the degrees of every vertex but v and n, so only
        the simple edges at v and at n can change their degree pair.  It
        reads only degrees and multiplicities, so it is invariant under
        Aut(parent) and can run before the orbit pruning.
        """
        moved = sum(take)
        dv, dn = deg[v] + 1 - moved, moved + 1
        fresh = _sorted_pair(dv, dn)
        return not (away[v] > fresh or any(
            (m - k == 1 and _sorted_pair(dv, deg[x]) > fresh)
            or (k == 1 and _sorted_pair(dn, deg[x]) > fresh)
            for (x, m), k in zip(row, take)))

    for v, take in _split_orbit_reps(nbrs, generators, fresh_may_win):
        rows, child_deg = _split_child(nbrs, deg, v, take)
        accepted = _canonical_parent_form(rows, child_deg, (v, n))
        if accepted is not None:
            yield accepted


# A call with less work than this many items runs in one process: a
# fork, its pipe and its exit cost a few milliseconds, more than that much
# work.  An item is one parent split or one source contracted, about
# 0.1-0.5 ms each on a 2-core Xeon.  Ranking `_NONZEROS_PER_ITEM` matrix
# nonzeros counts as one item.  In one process there, the eight odd g=6
# differentials (5,319 nonzeros) take 16 ms in a two-prime Gauss
# elimination and 21 ms in a one-seed Wiedemann rank, best of five: 3-4 us
# a nonzero, so a rank item (60-80 us) is lighter than a split.  The odd
# g=5 ranks (227 nonzeros, 1-2 ms) run in one process, and the odd g=6
# ranks are split.  `_split_work` weighs work in nonzeros, so that every
# weight is an integer and the floor test and the deal are exact.
_FORK_FLOOR = 100
_NONZEROS_PER_ITEM = 20


def _deal(weights, jobs: int) -> list[list[int]]:
    """The indices of ``weights`` dealt to ``jobs`` shares, heaviest first.

    Each index, in order of decreasing weight and then increasing index,
    goes to the share with the least weight so far (the first, on a tie),
    so the deal depends only on the weights and ``jobs``.  Equal weights
    are dealt round robin: share k gets k, k + jobs, k + 2 jobs, ...
    """
    shares: list[list[int]] = [[] for _ in range(jobs)]
    loads = [0] * jobs
    for i in sorted(range(len(weights)), key=lambda i: -weights[i]):
        k = loads.index(min(loads))
        shares[k].append(i)
        loads[k] += weights[i]
    return shares


def _split_work(fn, items: list, weights=None) -> list:
    """``[fn(item) for item in items]``, computed on every CPU this process may use.

    `_deal` deals the item indices by ``weights``, in matrix nonzeros
    (`_NONZEROS_PER_ITEM` each when not given), to jobs shares, jobs being
    the number of usable CPUs but at most ``len(items)``.  Share 0 runs
    here; every other share runs in a forked child, which pickles its
    results, or the exception it raised, into a pipe and leaves with
    `os._exit`.  A child's exception is raised again here, with its type
    and message.  Every child is reaped before this returns or raises;
    when anything fails, the children still running are killed first.  A
    child sees this process as it was at the fork, so ``fn`` must return,
    not store, what it finds.

    A share runs its items lightest first and sets each one's slot in
    ``items`` to None once done, and this process clears the other
    shares' slots after the fork: an item held nowhere else is freed once
    done, and a share's heaviest item runs after its others are gone.

    Everything runs here, as one share, when only one CPU is usable, when
    the weights sum below `_FORK_FLOOR` items, when ``os.fork`` is
    missing, or when another thread is alive, since a forked child gets
    only the calling thread and may inherit a lock some other thread held.
    """
    if weights is None:
        weights = [_NONZEROS_PER_ITEM] * len(items)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    jobs = min(cpus, len(items))
    if (jobs < 2 or sum(weights) < _FORK_FLOOR * _NONZEROS_PER_ITEM
            or not hasattr(os, "fork") or threading.active_count() > 1):
        jobs = 1
    shares = [share[::-1] for share in _deal(weights, jobs)]  # lightest first
    children = []  # (pid, read end of its pipe)
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:  # the child never leaves this block
                status = 1
                try:
                    os.close(read)
                    for _, pipe in children:
                        pipe.close()
                    _send_share(fn, items, share, write)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb")))
        for share in shares[1:]:
            for i in share:
                items[i] = None
        got = [_run_share(fn, items, shares[0])]
        for k, (_, pipe) in enumerate(children, 1):
            try:
                ok, values = pickle.load(pipe)
            except EOFError:
                raise RuntimeError(f"worker {k} of {jobs} exited without a result") from None
            if not ok:
                raise values
            got.append(values)
        out = [None] * len(items)
        for share, values in zip(shares, got):
            for i, value in zip(share, values):
                out[i] = value
        return out
    except BaseException:
        import signal

        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)  # a child that has exited stays a zombie until reaped
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)


def _run_share(fn, items: list, share: list[int]) -> list:
    """``fn(items[i])`` for each i of ``share``, in order, clearing each slot once done."""
    out = []
    for i in share:
        out.append(fn(items[i]))
        items[i] = None
    return out


def _send_share(fn, items: list, share: list[int], fd: int) -> None:
    """Pickle ``(True, results)`` of `_run_share`, or ``(False, exception)``, into fd."""
    try:
        reply = (True, _run_share(fn, items, share))
    except BaseException as exc:  # KeyboardInterrupt too: the parent re-raises it
        reply = (False, exc)
    with os.fdopen(fd, "wb") as pipe:
        pickle.dump(reply, pipe, pickle.HIGHEST_PROTOCOL)


# (loops, vertices) -> {class: generators of Aut(class)}, sorted by edges,
# for every slice `raw_slice` has enumerated; the generators permute the
# class's own vertex labels.  Never emptied.
_raw_classes: dict[tuple[int, int], dict[Multigraph, tuple[tuple[int, ...], ...]]] = {}


def _slice_classes(loops: int, num_vertices: int) -> dict[Multigraph, tuple]:
    """The classes of `raw_slice` (called through the module), with their generators."""
    raw_slice(loops, num_vertices)
    return _raw_classes.get((loops, num_vertices), {})


def _generators_of(graph: Multigraph) -> tuple[tuple[int, ...], ...]:
    """Generators of Aut(graph), found with its class by `raw_slice`.

    A graph in no enumerated slice, read from a file, say, is labeled by
    the uncached `_canonical_data`, and its generators of Aut(form) are
    conjugated back through the labeling.
    """
    generators = _raw_classes.get((graph.loop_order, graph.num_vertices), {}).get(graph)
    if generators is None:
        _, lab, generators, _ = _canonical_data(graph)
        inv = _inverse(lab)
        generators = tuple(tuple([inv[sigma[i]] for i in lab]) for sigma in generators)
    return generators


def raw_slice(loops: int, num_vertices: int) -> tuple[Multigraph, ...]:
    """Canonical forms of every admissible graph class in the slice.

    Admissible: connected, loopless, min degree >= 3, E = V + g - 1.
    Parity and variant filtering happen in enumerate_basis; keeping the
    raw classes lets all four (parity, variant) combinations share one
    enumeration.

    A class with a simple edge is found by canonical augmentation (McKay,
    "Isomorph-free exhaustive generation", 1998).  Contracting a simple
    edge of an admissible graph gives an admissible graph with one vertex
    fewer, and the split that undoes it is unique up to the parent's
    automorphisms.  So each such class is the split child, with the fresh
    edge in the orbit of its canonical contraction edge, of exactly one
    parent class and one split orbit, and no dedup is needed.  The
    canonical contraction edge is chosen in stages (`_canonical_parent_form`):
    the endpoint degree pair, on the split descriptor; the endpoint
    signature pair and two-hop signature pair, on the child's rows edited
    from the parent's; then the first canonical labeling.  So a child is
    built and labeled only when its fresh edge survives the first three
    stages.  The classes whose edges are all parallel come from
    `_all_parallel_graphs`.

    Every class is labeled once, and the code that labels it returns the
    generators of its automorphism group with it.  The slice is kept in
    `_raw_classes` with them, so the class is not labeled again when it
    becomes a parent, is filtered or is contracted.

    The parents are split by `_split_work`, on every usable CPU; each
    parent's children come back with their generators, and the final sort
    gives the slice the order of a run in one process.
    """
    g, v = loops, num_vertices
    if g < 2:
        raise ValueError("loop order must be >= 2")
    if v < 2 or v > 2 * (g - 1):
        return ()
    if (g, v) not in _raw_classes:
        found = _all_parallel_graphs(v, v + g - 1)
        if v > 2:
            parents = list(_slice_classes(g, v - 1).items())
            for children in _split_work(lambda p: list(_accepted_children(*p)), parents):
                found.update(children)
        _raw_classes[(g, v)] = dict(sorted(found.items(), key=lambda item: item[0].edges))
    return tuple(_raw_classes[(g, v)])


def enumerate_basis(spec: ComplexSpec, num_vertices: int) -> BasisSlice:
    """All generators of the slice: admissible, variant-filtered, nonzero."""
    if num_vertices < 1:
        raise ValueError("vertex count must be positive")
    gens = []
    for m, generators in _slice_classes(spec.loops, num_vertices).items():
        if spec.variant is Variant.TRICONNECTED and not is_triconnected(m):
            continue
        if _is_zero(m, spec.parity, generators):
            continue
        gens.append(m)
    return BasisSlice(spec, num_vertices, tuple(gens))


# ---------------------------------------------------------------------------
# Differential.
# ---------------------------------------------------------------------------


def _is_parallel(edges, i: int) -> bool:
    """Whether edge i has a parallel partner; sorted edges put it next to i."""
    return (i > 0 and edges[i - 1] == edges[i]) or (
        i + 1 < len(edges) and edges[i + 1] == edges[i])


def _contract(graph: Multigraph, edge_index: int, parity: Parity) -> tuple[Multigraph, int]:
    """The graph with edge ``edge_index`` contracted, and the orientation sign.

    The edge must have no parallel partner.  The image is in storage
    normal form but not canonical.  Even parity: move the edge to the
    front of the edge order (sign (-1)^index), drop it, then account for
    re-sorting the surviving edges.  Odd parity: with the edge directed
    low-to-high, cycle its head to the last vertex position, merge, and
    pick up -1 for every surviving edge whose direction flips.
    """
    edges = graph.edges
    u, v = edges[edge_index]
    n = graph.num_vertices

    def shift(x: int) -> int:
        if x == v:
            return u
        return x - 1 if x > v else x

    if parity is Parity.EVEN:
        sign = -1 if edge_index % 2 else 1
        mapped = []
        for i, (a, b) in enumerate(edges):
            if i == edge_index:
                continue
            a2, b2 = shift(a), shift(b)
            mapped.append((a2, b2) if a2 < b2 else (b2, a2))
        order = sorted(range(len(mapped)), key=mapped.__getitem__)
        image = tuple([mapped[i] for i in order])
        return Multigraph._trusted(n - 1, image), sign * perm_sign(order)
    sign = -1 if (n - 1 - v) % 2 else 1
    mapped = []
    for i, (a, b) in enumerate(edges):
        if i == edge_index:
            continue
        a2, b2 = shift(a), shift(b)
        if a2 > b2:
            sign = -sign
            a2, b2 = b2, a2
        mapped.append((a2, b2))
    return Multigraph._trusted(n - 1, tuple(sorted(mapped))), sign


def _edge_orbit_roots(graph: Multigraph, generators) -> dict[int, int]:
    """Each simple edge index -> the first edge index of its Aut(graph) orbit.

    ``generators`` generate Aut(graph).  Parallel edges are left out:
    contracting one gives zero.
    """
    edges = graph.edges
    simple = [i for i in range(len(edges)) if not _is_parallel(edges, i)]
    if not generators:
        return {i: i for i in simple}
    index = {edges[i]: k for k, i in enumerate(simple)}
    perms = []
    for gamma in generators:
        perm = []
        for i in simple:
            a, b = gamma[edges[i][0]], gamma[edges[i][1]]
            perm.append(index[(a, b) if a < b else (b, a)])
        perms.append(perm)
    roots = _orbit_roots(len(simple), perms)
    return {i: simple[roots[k]] for k, i in enumerate(simple)}


def _edge_orbits(graph: Multigraph, generators) -> dict[int, int]:
    """First edge index of each Aut(graph) orbit of simple edges -> its size.

    The keys come in increasing order, since a root is its orbit's first edge.
    """
    return dict(Counter(_edge_orbit_roots(graph, generators).values()))


def contraction_entries(sources, targets: dict[Multigraph, int], parity: Parity, *,
                        strict: bool) -> dict[tuple[int, int], int]:
    """Contraction differential as ``(source index, target index) -> coefficient``.

    Each source graph contributes the signed sum of its edge contractions,
    looked up in ``targets``, which holds nonzero classes of the parity,
    as every `BasisSlice` does.  A nonzero graph has only automorphisms of
    sign +1, so contracting any edge of an Aut orbit gives the same term:
    one edge per orbit is contracted and weighted by the orbit size.  A
    zero source contributes nothing, as its terms cancel.  An image class
    missing from ``targets`` raises RuntimeError when ``strict``, and is
    dropped otherwise; a zero image is dropped in both modes.  So the
    sign of one labeling alone gives the term of a class found in
    ``targets``, and only a missing class is tested for zero, in strict
    mode.

    Each distinct image is labeled once per process, with the uncached
    `_canonical_data`, so images never enter the `canonical_data` or
    `canonicalize` caches: an image is rarely met again outside the
    matrix that contracts to it.  The search is given the edge codes of
    ``targets`` (canonical forms, built once per call) and stops at the
    first leaf that spells one; that leaf's labeling is an isomorphism
    onto the target, whose sign is the first canonical labeling's.  Only
    an image in no target class, zero or missing, is searched to the end.

    The sources are contracted by `_split_work`, on every usable CPU,
    each process with its own image memo; their rows come back in source
    order, so the entries have the order of a run in one process.  A
    missing image's RuntimeError raised in a worker reaches the caller
    unchanged.
    """

    known = {_edge_codes(target): i for target, i in targets.items()}
    # keyed by the image's vertex count and edge codes, not by the image:
    # a tuple per edge of every image would live as long as the memo
    terms: dict[tuple[int, ...], tuple[int, int] | None] = {}

    def term(image: Multigraph) -> tuple[int, int] | None:
        # (target index, sign) of a contracted image; None if it is dropped
        if parity is Parity.EVEN and not image.is_simple():
            return None
        data = _canonical_data(image, known=known)
        if len(data) == 2:
            i, labeling = data
            return i, orientation_sign(image, labeling, parity)
        if strict and not _is_zero(data[0], parity, data[2]):
            raise RuntimeError(f"contraction image missing from target slice: {data[0]}")
        return None

    def row(graph: Multigraph) -> dict[int, int]:
        # target index -> coefficient, for one source
        generators = _generators_of(graph)
        out: dict[int, int] = {}
        if _is_zero(graph, parity, generators):
            return out
        for e, weight in _edge_orbits(graph, generators).items():
            image, sign = _contract(graph, e, parity)
            n = image.num_vertices
            code = tuple([n] + [u * n + v for u, v in image.edges])
            if code not in terms:
                terms[code] = term(image)
            found = terms[code]
            if found is not None:
                i = found[0]
                out[i] = out.get(i, 0) + weight * sign * found[1]
        return out

    rows = _split_work(row, list(sources))
    return {(j, i): val for j, terms_j in enumerate(rows) for i, val in terms_j.items() if val}


def differential_matrix(src: BasisSlice, dst: BasisSlice) -> IntSparseMatrix:
    """Matrix of the contraction differential from src into dst coordinates.

    Column j expands the contractions of src generator j in dst's basis.
    In the triconnected variant, image classes outside the basis are the
    quotient's zero and are dropped; in the full variant every nonzero
    image must be a dst generator.
    """
    if src.spec != dst.spec:
        raise ValueError("slice mismatch: src and dst must share one spec")
    if dst.num_vertices != src.num_vertices - 1:
        raise ValueError("dst must have one vertex fewer than src")
    entries = contraction_entries(src.generators, dst.index, src.spec.parity,
                                  strict=src.spec.variant is Variant.FULL)
    return IntSparseMatrix(len(dst), len(src),
                           {(i, j): val for (j, i), val in entries.items()})


# ---------------------------------------------------------------------------
# Basis slice files (.gls).
# ---------------------------------------------------------------------------


def dump_basis(slice_: BasisSlice) -> str:
    spec = slice_.spec
    head = (
        f"#gls parity={spec.parity} variant={spec.variant} "
        f"loops={spec.loops} vertices={slice_.num_vertices} count={len(slice_)}"
    )
    lines = [head]
    lines.extend(g.to_line() for g in slice_.generators)
    return "\n".join(lines) + "\n"


def basis_rows(text: str) -> tuple[ComplexSpec, int, np.ndarray]:
    """The spec, vertex count and graph lines of a .gls text, all checked.

    The graph lines come back as a ``(count, 2 + 2E)`` int64 array, one
    row ``V E u1 v1 ...`` per nonblank line.  The body is checked as a
    whole: digits and whitespace only, 2 + 2E tokens on each line, the
    header's V and E on each, 0 <= u < v < V, sorted edges, and `count`
    lines.  A line that fails gets the error `Multigraph.from_line`
    raises for it, or else one saying it is not in the header's slice.
    ``np.fromstring`` saturates values past the int64 range, which
    fails the range checks, and it never sees a token that is not
    digits.
    """
    # numpy is imported here, not with the module: imported by gchom.cache
    # ahead of gchom.linalg, it left a process 0.5-0.7 MB larger
    import numpy as np

    head, _, body = text.lstrip().partition("\n")
    if not head.startswith("#gls"):
        raise ValueError("missing #gls header")
    fields = dict(tok.split("=", 1) for tok in head.split()[1:])
    spec = ComplexSpec(
        Parity.from_name(fields["parity"]),
        Variant.from_name(fields["variant"]),
        int(fields["loops"]),
    )
    count = int(fields["count"])
    vertices = int(fields["vertices"])
    edges = vertices + spec.loops - 1
    raw = np.frombuffer(body.encode(), dtype=np.uint8)
    digit = (raw >= ord("0")) & (raw <= ord("9"))
    space = (raw == ord(" ")) | ((raw >= ord("\t")) & (raw <= ord("\r")))
    line = np.cumsum(raw == ord("\n"))  # the line of each byte
    first = digit.copy()
    first[1:] &= ~digit[:-1]  # the first digit of each token
    nlines = body.count("\n") + 1
    tokens = np.bincount(line[first], minlength=nlines)
    junk = np.bincount(line[~(digit | space)], minlength=nlines)
    used = np.flatnonzero(tokens + junk)  # the nonblank lines
    bad = (tokens[used] != 2 + 2 * edges) | (junk[used] > 0)
    rows = np.empty((0, 2 + 2 * edges), dtype=np.int64)
    if used.size and not bad.any():
        rows = np.fromstring(body, dtype=np.int64, sep=" ").reshape(used.size, -1)
        u, v = rows[:, 2::2], rows[:, 3::2]
        bad = ((rows[:, 0] != vertices) | (rows[:, 1] != edges) | (u >= v).any(axis=1)
               | (v >= vertices).any(axis=1)
               | (np.diff(u * vertices + v, axis=1) < 0).any(axis=1))
    # the first failing line raises its own parse error, else the count or the slice
    culprit = Multigraph.from_line(body.split("\n")[used[bad.argmax()]]) if bad.any() else None
    if used.size != count:
        raise ValueError(f"header count {count} != {used.size} graphs")
    if culprit is not None:
        raise ValueError(f"graph {culprit.to_line()!r} is not in the header's slice: "
                         f"{vertices} vertices, {edges} edges")
    return spec, vertices, rows


def load_basis(text: str) -> BasisSlice:
    """The slice a .gls text holds, checked by `basis_rows`."""
    spec, vertices, rows = basis_rows(text)
    gens = tuple(Multigraph._trusted(vertices, tuple(zip(row[2::2], row[3::2])))
                 for row in rows.tolist())
    return BasisSlice(spec, vertices, gens)
