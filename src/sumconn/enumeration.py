"""Isomorph-free exhaustive generation of trees and unicyclic graphs.

Free trees come from the Wright/Richmond/Odlyzko/McKay successor algorithm
on level sequences: a rooted tree is the list of depths in preorder, and a
level sequence represents a free tree exactly when the root's first
subtree is no "larger" (height, then size, then lexicographic order) than
the rest of the tree.  Unicyclic graphs are produced by adding chords to
free trees.  A chord is deduplicated by the pendant-code necklace of the
cycle it closes: one BFS from each chord end extends the codes of the path
to a vertex's parent by one memoized code, so each cycle's codes cost one
list copy; chords that a tree automorphism maps onto an earlier chord are
skipped before they are keyed; no candidate graph is built or canonically
coded, and the first chord seen for each class gives its representative.

Classes are ordered by canonical code so that repeated runs, reports, and
CLI output are reproducible.  A tree's code is read off its level sequence
(``canon.level_sequence_code``) and its graph is built from the sequence's
parent array, with no validation, BFS or AHU sort per tree; the trees of
each n are kept.  A unicyclic class is kept as a record (maximum degree,
tree index, chord), and ``enumerate_unicyclic`` returns a lazy sequence
that builds each graph from its tree when it is read, so memory holds the
records and not the graphs.  The maximum degree of every tree is computed
once per n, the first time a caller filters by it.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from operator import itemgetter
from typing import Iterator

from .canon import level_sequence_code, necklace_code, necklace_min
from .construct import DeltaRangeError
from .graphs import Graph, SizeLimitError, _graph_from_sorted_edges, _graph_with_edge

MAX_TREE_VERTICES = 16
MAX_UNICYCLIC_VERTICES = 14

DeltaFilter = int | tuple[int, int] | None


def _next_rooted(seq: list[int], p: int | None = None) -> list[int] | None:
    """Beyer-Hedetniemi successor of a rooted-tree level sequence."""
    if p is None:
        p = len(seq) - 1
        while seq[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while seq[q] != seq[p] - 1:
        q -= 1
    out = list(seq)
    for i in range(p, len(out)):
        out[i] = out[i - p + q]
    return out


def _split_first_subtree(seq: list[int]) -> tuple[list[int], list[int]]:
    """First subtree of the root (depths shifted up) and the remainder."""
    cut = len(seq)
    seen_one = False
    for i, depth in enumerate(seq):
        if depth == 1:
            if seen_one:
                cut = i
                break
            seen_one = True
    left = [seq[i] - 1 for i in range(1, cut)]
    rest = [0] + seq[cut:]
    return left, rest


def _next_free(candidate: list[int]) -> list[int] | None:
    """Advance a rooted level sequence to the next valid free-tree form."""
    left, rest = _split_first_subtree(candidate)
    left_height = max(left)
    rest_height = max(rest)
    valid = rest_height >= left_height
    if valid and rest_height == left_height:
        if len(left) > len(rest):
            valid = False
        elif len(left) == len(rest) and left > rest:
            valid = False
    if valid:
        return candidate
    p = len(left)
    successor = _next_rooted(candidate, p)
    if candidate[p] > 2:
        assert successor is not None
        new_left, _ = _split_first_subtree(successor)
        suffix = list(range(1, max(new_left) + 2))
        successor[-len(suffix) :] = suffix
    return successor


def _free_tree_level_sequences(n: int):
    seq: list[int] | None = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while seq is not None:
        seq = _next_free(seq)
        if seq is None:
            return
        yield seq
        seq = _next_rooted(seq)


def _level_sequence_tree(seq: list[int]) -> Graph:
    """The tree whose vertex ``v`` has depth ``seq[v]`` in preorder."""
    last = [0] * len(seq)  # the latest vertex seen at each depth
    edges = []
    for v in range(1, len(seq)):
        depth = seq[v]
        edges.append((last[depth - 1], v))
        last[depth] = v
    edges.sort()
    return _graph_from_sorted_edges(len(seq), tuple(edges))


@lru_cache(maxsize=None)
def _all_trees(n: int) -> tuple[Graph, ...]:
    if n == 1:
        return (_level_sequence_tree([0]),)
    keyed = [
        (level_sequence_code(seq), _level_sequence_tree(seq))
        for seq in _free_tree_level_sequences(n)
    ]
    keyed.sort(key=itemgetter(0))
    return tuple(g for _, g in keyed)


def _chord_necklaces(tree: Graph) -> Iterator[tuple[tuple[int, int], tuple[str, ...]]]:
    """Chords ``(u, v)``, ``u < v``, of ``tree`` in lexicographic order,
    with the necklace key of ``tree + (u, v)``, skipping chords that an
    automorphism of ``tree`` maps onto an earlier chord.

    The chord closes the cycle formed by the tree path from u to v.  The
    pendant code of a cycle vertex w is ``"(" + sorted(branch(c, w) for c
    off the cycle) + ")"``, where ``branch(c, w)`` is the AHU code of c's
    side of the tree edge (c, w) rooted at c.  That side holds no cycle
    vertex, so the chord leaves it unchanged, and the string is exactly
    what ``canon._pendant_codes`` computes for the unicyclic graph.  The
    key is ``necklace_min`` of those codes in path order, the necklace from
    which ``canonical_code`` builds its bytes, so equal keys mean equal
    canonical codes and, conversely, isomorphic graphs get equal keys.

    The paths are read off one BFS per u: the path from u to y is the path
    to y's BFS parent x plus y, so its codes are those of the path to x,
    with x now coded between its parent and y, plus y's code as an end
    vertex, ``branch(y, x)`` (its other cycle neighbour is the chord).
    Branch codes are memoized per directed edge, and each vertex keeps
    them sorted, so a pendant code is a filtered join, memoized per
    (vertex, path neighbours).

    Orbit pruning (McKay, "Isomorph-free exhaustive generation", J.
    Algorithms 1998).  An automorphism s of the tree maps the chord
    (u, v) to the chord {s(u), s(v)}, a non-edge too, and both give
    isomorphic graphs, hence equal keys.  Two rules skip a chord only when
    such an s maps it onto a lexicographically earlier chord:

    - u is skipped when its rooted code, the join of its sorted branch
      codes, was seen at a smaller vertex u'.  Equal rooted codes give an
      s with s(u) = u', and the smaller end of {u', s(v)} is below u.
    - v is skipped when the branch codes along its BFS path from u,
      ``branch(y, parent(y))`` for each y after u, equal those of a
      smaller vertex v'.  In the tree rooted at u these are the rooted
      codes of the path's vertices, so swapping equal sibling subtrees
      level by level gives an s that fixes u and maps v to v'.  Then
      {u, v'} comes first: it starts at u with v' < v, or at v' < u.

    By induction over the chord order, each skipped chord has the key of
    a chord yielded before it from the same tree, so a caller that keeps
    the first chord per key keeps the same chords, in the same order, as
    it would without the pruning.
    """
    n = tree.n
    adj = tree.adjacency
    branches: dict[tuple[int, int], str] = {}

    def branch(c: int, w: int) -> str:
        code = branches.get((c, w))
        if code is None:
            code = "(" + "".join(sorted(branch(d, c) for d in adj[c] if d != w)) + ")"
            branches[(c, w)] = code
        return code

    # Every directed edge's branch code is in ``branches`` from here on.
    around = [sorted((branch(c, w), c) for c in adj[w]) for w in range(n)]
    pendants: dict[tuple[int, int, int], str] = {}

    def pendant(w: int, a: int, b: int) -> str:
        """Code of w's pendant tree when its path neighbors are a and b."""
        code = pendants.get((w, a, b))
        if code is None:
            code = "(" + "".join([bc for bc, c in around[w] if c != a and c != b]) + ")"
            pendants[(w, a, b)] = code
        return code

    rooted: set[str] = set()
    for u in range(n - 1):
        code = "".join([bc for bc, _ in around[u]])
        if code in rooted:
            continue
        rooted.add(code)
        # prefix[y]: codes of the path from u up to, not including, y;
        # u's missing path neighbour is -1.  path[y] numbers the tuple of
        # branch codes on the path from u to y (0 for u itself).
        parent = [-1] * n
        prefix: list[list[str]] = [[]] * n
        path = [0] * n
        paths: dict[tuple[int, str], int] = {}
        order = [u]
        for x in order:
            px = parent[x]
            for y in adj[x]:
                if y != px:
                    parent[y] = x
                    prefix[y] = prefix[x] + [pendant(x, px, y)]
                    path[y] = paths.setdefault((path[x], branches[y, x]), len(paths) + 1)
                    order.append(y)
        seen: set[int] = set()
        for v in range(n):
            if path[v] in seen:
                continue
            seen.add(path[v])
            p = parent[v]
            if v > u and p != u:
                yield (u, v), necklace_min(prefix[v] + [branches[v, p]])


@lru_cache(maxsize=None)
def _unicyclic_records(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """``(max degree, tree index, u, v)`` of every class: the class of
    ``_all_trees(n)[tree index]`` plus the chord (u, v).

    Trees and chords are visited in a fixed order and a class keeps the
    first chord found for it, so the representatives do not depend on how
    keys are computed.  Classes are ordered by the canonical code built
    from their key; the keys are dropped once sorted.
    """
    found: dict[tuple[str, ...], tuple[int, int, int, int]] = {}
    for index, tree in enumerate(_all_trees(n)):
        degrees = [len(nbrs) for nbrs in tree.adjacency]
        top = max(degrees)
        for (u, v), key in _chord_necklaces(tree):
            if key not in found:
                found[key] = (max(top, degrees[u] + 1, degrees[v] + 1), index, u, v)
    return tuple(found[key] for key in sorted(found, key=lambda key: necklace_code(n, key)))


class _UnicyclicClasses(Sequence[Graph]):
    """Class records read as graphs: each graph is built when read, from
    its tree plus its chord, and not kept."""

    __slots__ = ("_trees", "_records")

    def __init__(self, trees: tuple[Graph, ...], records: tuple[tuple[int, int, int, int], ...]):
        self._trees = trees
        self._records = records

    def _graph(self, record: tuple[int, int, int, int]) -> Graph:
        _, index, u, v = record
        return _graph_with_edge(self._trees[index], u, v)

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._graph(r) for r in self._records[i]]
        return self._graph(self._records[i])

    def __iter__(self) -> Iterator[Graph]:
        return map(self._graph, self._records)


def _degree_range(delta: DeltaFilter, lowest: int, n: int) -> tuple[int, int]:
    """``delta`` as an inclusive range.  An exact degree must lie in
    [lowest, n-1]; a range is taken as given."""
    if isinstance(delta, tuple):
        return delta
    if not lowest <= delta <= n - 1:
        raise DeltaRangeError(f"delta must lie in [{lowest}, {n - 1}] for n={n}, got {delta}")
    return delta, delta


@lru_cache(maxsize=None)
def _max_degrees(n: int) -> tuple[int, ...]:
    """The maximum degree of each tree of ``_all_trees(n)``, computed once."""
    return tuple(max(map(len, g.adjacency)) for g in _all_trees(n))


def _select(n: int, delta: DeltaFilter) -> list[Graph]:
    trees = _all_trees(n)
    if delta is None:
        return list(trees)
    lo, hi = _degree_range(delta, min(1, n - 1), n)
    return [g for g, top in zip(trees, _max_degrees(n)) if lo <= top <= hi]


def enumerate_trees(n: int, delta: DeltaFilter = None) -> list[Graph]:
    """One representative per isomorphism class of free trees on n vertices,
    optionally filtered by maximum degree (exact value in [1, n-1], 0 at
    n = 1, or inclusive range), ordered by canonical code."""
    if not 1 <= n <= MAX_TREE_VERTICES:
        raise SizeLimitError(f"tree enumeration supports 1 <= n <= {MAX_TREE_VERTICES}")
    return _select(n, delta)


def enumerate_unicyclic(n: int, delta: DeltaFilter = None) -> Sequence[Graph]:
    """One representative per isomorphism class of connected unicyclic graphs
    on n vertices, optionally filtered by maximum degree (exact value in
    [2, n-1], or inclusive range), ordered by canonical code.

    The result is a lazy, re-iterable ``Sequence``: the classes are
    selected by degree from their records, and each graph is built when it
    is read.
    """
    if not 3 <= n <= MAX_UNICYCLIC_VERTICES:
        raise SizeLimitError(
            f"unicyclic enumeration supports 3 <= n <= {MAX_UNICYCLIC_VERTICES}"
        )
    if delta is None:
        return _UnicyclicClasses(_all_trees(n), _unicyclic_records(n))
    lo, hi = _degree_range(delta, 2, n)
    records = tuple(r for r in _unicyclic_records(n) if lo <= r[0] <= hi)
    return _UnicyclicClasses(_all_trees(n), records)
