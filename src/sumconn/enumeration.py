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
CLI output are reproducible.  Both classes are kept as records that start
with the maximum degree: a tree as its level sequence, whose code is read
off the depths (``canon.level_sequence_code``); a unicyclic class as its
tree's graph plus a chord.  ``enumerate_trees`` and ``enumerate_unicyclic``
filter the records by degree and return a lazy sequence that builds each
graph when it is read, a tree from its sequence's parent array and a
unicyclic graph from its tree plus the chord, with no validation, BFS or
AHU sort; memory holds the records and not the graphs.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from operator import itemgetter
from typing import Any, Callable, Iterator

from .canon import level_sequence_code, level_sequence_edges, necklace_code, necklace_min
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


def _level_sequence_tree(seq: Sequence[int]) -> Graph:
    """The tree whose vertex ``v`` has depth ``seq[v]`` in preorder."""
    return _graph_from_sorted_edges(len(seq), tuple(level_sequence_edges(seq)))


@lru_cache(maxsize=None)
def _tree_records(n: int) -> tuple[tuple[int, bytes], ...]:
    """``(max degree, level sequence)`` of every free tree on n vertices,
    in canonical-code order.  A code is the byte n, which is no vertex
    label, then each edge's two ends, so a vertex's degree is its count in
    the code."""
    if n == 1:
        return ((0, bytes([0])),)
    seqs = map(bytes, _free_tree_level_sequences(n))
    keyed = [(level_sequence_code(seq), seq) for seq in seqs]
    keyed.sort(key=itemgetter(0))
    return tuple((max(map(code.count, range(n))), seq) for code, seq in keyed)


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
    # pendants[w, a, b]: code of w's pendant tree when its path neighbours
    # are a and b.
    pendants: dict[tuple[int, int, int], str] = {}

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
        prefix: list[tuple[str, ...]] = [()] * n
        path = [0] * n
        paths: dict[tuple[int, str], int] = {}
        order = [u]
        for x in order:
            px = parent[x]
            for y in adj[x]:
                if y != px:
                    parent[y] = x
                    code = pendants.get((x, px, y))
                    if code is None:
                        code = pendants[x, px, y] = (
                            "(" + "".join([bc for bc, c in around[x] if c != px and c != y]) + ")"
                        )
                    prefix[y] = prefix[x] + (code,)
                    path[y] = paths.setdefault((path[x], branches[y, x]), len(paths) + 1)
                    order.append(y)
        seen: set[int] = set()
        for v in range(n):
            if path[v] in seen:
                continue
            seen.add(path[v])
            p = parent[v]
            if v > u and p != u:
                yield (u, v), necklace_min(prefix[v] + (branches[v, p],))


@lru_cache(maxsize=None)
def _unicyclic_records(n: int) -> tuple[tuple[int, Graph, int, int], ...]:
    """``(max degree, tree, u, v)`` of every class: the class of the tree
    plus the chord (u, v).  The trees are those of ``_tree_records(n)``,
    each built once and shared by the records of its classes.

    Trees and chords are visited in a fixed order and a class keeps the
    first chord found for it, so the representatives do not depend on how
    keys are computed.  Classes are ordered by the canonical code built
    from their key; the keys are dropped once sorted.
    """
    found: dict[tuple[str, ...], tuple[int, Graph, int, int]] = {}
    for top, seq in _tree_records(n):
        tree = _level_sequence_tree(seq)
        adj = tree.adjacency
        for (u, v), key in _chord_necklaces(tree):
            if key not in found:
                found[key] = (max(top, len(adj[u]) + 1, len(adj[v]) + 1), tree, u, v)
    return tuple(found[key] for key in sorted(found, key=lambda key: necklace_code(n, key)))


def _tree_graph(record: tuple[int, bytes]) -> Graph:
    return _level_sequence_tree(record[1])


def _unicyclic_graph(record: tuple[int, Graph, int, int]) -> Graph:
    _, tree, u, v = record
    return _graph_with_edge(tree, u, v)


class _LazyGraphs(Sequence[Graph]):
    """Records read as graphs: each graph is built from its record by
    ``build`` when it is read, and not kept."""

    __slots__ = ("_records", "_build")

    def __init__(self, records: tuple, build: Callable[[Any], Graph]):
        self._records = records
        self._build = build

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._build(r) for r in self._records[i]]
        return self._build(self._records[i])

    def __iter__(self) -> Iterator[Graph]:
        return map(self._build, self._records)


def _select(records: tuple, delta: DeltaFilter, lowest: int, n: int, build) -> _LazyGraphs:
    """The records whose maximum degree, their first field, ``delta``
    admits, read lazily through ``build``.  An exact degree must lie in
    [lowest, n-1]; a range is taken as given."""
    if delta is not None:
        if not isinstance(delta, tuple):
            if not lowest <= delta <= n - 1:
                raise DeltaRangeError(
                    f"delta must lie in [{lowest}, {n - 1}] for n={n}, got {delta}"
                )
            delta = (delta, delta)
        lo, hi = delta
        records = tuple(r for r in records if lo <= r[0] <= hi)
    return _LazyGraphs(records, build)


def enumerate_trees(n: int, delta: DeltaFilter = None) -> Sequence[Graph]:
    """One representative per isomorphism class of free trees on n vertices,
    optionally filtered by maximum degree (exact value in [1, n-1], 0 at
    n = 1, or inclusive range), ordered by canonical code.

    The result is a lazy, re-iterable ``Sequence``: the trees are selected
    by degree from their records, and each tree is built from its level
    sequence when it is read.
    """
    if not 1 <= n <= MAX_TREE_VERTICES:
        raise SizeLimitError(f"tree enumeration supports 1 <= n <= {MAX_TREE_VERTICES}")
    return _select(_tree_records(n), delta, min(1, n - 1), n, _tree_graph)


def enumerate_unicyclic(n: int, delta: DeltaFilter = None) -> Sequence[Graph]:
    """One representative per isomorphism class of connected unicyclic graphs
    on n vertices, optionally filtered by maximum degree (exact value in
    [2, n-1], or inclusive range), ordered by canonical code.

    The result is a lazy, re-iterable ``Sequence``: the classes are
    selected by degree from their records, and each graph is built from
    its tree and chord when it is read.
    """
    if not 3 <= n <= MAX_UNICYCLIC_VERTICES:
        raise SizeLimitError(
            f"unicyclic enumeration supports 3 <= n <= {MAX_UNICYCLIC_VERTICES}"
        )
    return _select(_unicyclic_records(n), delta, 2, n, _unicyclic_graph)
