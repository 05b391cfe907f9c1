"""Isomorph-free exhaustive generation of trees and unicyclic graphs.

Free trees come from the Wright/Richmond/Odlyzko/McKay successor algorithm
on level sequences: a rooted tree is the list of depths in preorder, and a
level sequence represents a free tree exactly when the root's first
subtree is no "larger" (height, then size, then lexicographic order) than
the rest of the tree.  Unicyclic graphs are produced by adding every
possible chord to every free tree.  A chord is deduplicated by the
pendant-code necklace of the cycle it closes: one BFS from each chord end
extends the codes of the path to a vertex's parent by one memoized code,
so each cycle's codes cost one list copy; no candidate graph is built or
canonically coded, and the first chord seen for each class gives its
representative.

Results are materialized and ordered by canonical code so that repeated
runs, reports, and CLI output are reproducible.  A tree's code is read off
its level sequence (``canon.level_sequence_code``) and its graph is built
from the sequence's parent array, with no validation, BFS or AHU sort per
tree.  The maximum degree of every graph is computed once per n, the first
time a caller filters by it.
"""

from __future__ import annotations

from bisect import bisect
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterator

from .canon import level_sequence_code, necklace_code, necklace_min
from .graphs import Graph, SizeLimitError, _graph_from_sorted_edges

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
    """Every chord ``(u, v)``, ``u < v``, of ``tree`` in lexicographic order,
    with the necklace key of ``tree + (u, v)``.

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

    around = [sorted((branch(c, w), c) for c in adj[w]) for w in range(n)]
    pendants: dict[tuple[int, int, int], str] = {}

    def pendant(w: int, a: int, b: int) -> str:
        """Code of w's pendant tree when its path neighbors are a and b."""
        code = pendants.get((w, a, b))
        if code is None:
            code = "(" + "".join([bc for bc, c in around[w] if c != a and c != b]) + ")"
            pendants[(w, a, b)] = code
        return code

    for u in range(n - 1):
        # prefix[y]: codes of the path from u up to, not including, y;
        # u's missing path neighbour is -1.
        parent = [-1] * n
        prefix: list[list[str]] = [[]] * n
        order = [u]
        for x in order:
            px = parent[x]
            for y in adj[x]:
                if y != px:
                    parent[y] = x
                    prefix[y] = prefix[x] + [pendant(x, px, y)]
                    order.append(y)
        for v in range(u + 1, n):
            p = parent[v]
            if p != u:
                yield (u, v), necklace_min(prefix[v] + [branch(v, p)])


@lru_cache(maxsize=None)
def _all_unicyclic(n: int) -> tuple[Graph, ...]:
    """Every tree plus every chord, one graph per necklace key.

    Trees and chords are visited in a fixed order and a class keeps the
    first graph found for it, so the representatives do not depend on how
    keys are computed.  Classes are ordered by the canonical code built
    from their key.
    """
    found: dict[tuple[str, ...], Graph] = {}
    for tree in _all_trees(n):
        for chord, key in _chord_necklaces(tree):
            if key not in found:
                at = bisect(tree.edges, chord)
                found[key] = _graph_from_sorted_edges(
                    n, tree.edges[:at] + (chord,) + tree.edges[at:]
                )
    return tuple(found[key] for key in sorted(found, key=lambda key: necklace_code(n, key)))


@lru_cache(maxsize=None)
def _max_degrees(family: Callable[[int], tuple[Graph, ...]], n: int) -> tuple[int, ...]:
    """The maximum degree of each graph of ``family(n)``, computed once."""
    return tuple(max(map(len, g.adjacency)) for g in family(n))


def _select(family: Callable[[int], tuple[Graph, ...]], n: int, delta: DeltaFilter) -> list[Graph]:
    graphs = family(n)
    if delta is None:
        return list(graphs)
    lo, hi = delta if isinstance(delta, tuple) else (delta, delta)
    return [g for g, top in zip(graphs, _max_degrees(family, n)) if lo <= top <= hi]


def enumerate_trees(n: int, delta: DeltaFilter = None) -> list[Graph]:
    """One representative per isomorphism class of free trees on n vertices,
    optionally filtered by maximum degree (exact value or inclusive range),
    ordered by canonical code."""
    if not 1 <= n <= MAX_TREE_VERTICES:
        raise SizeLimitError(f"tree enumeration supports 1 <= n <= {MAX_TREE_VERTICES}")
    return _select(_all_trees, n, delta)


def enumerate_unicyclic(n: int, delta: DeltaFilter = None) -> list[Graph]:
    """One representative per isomorphism class of connected unicyclic graphs
    on n vertices, optionally filtered by maximum degree, ordered by
    canonical code."""
    if not 3 <= n <= MAX_UNICYCLIC_VERTICES:
        raise SizeLimitError(
            f"unicyclic enumeration supports 3 <= n <= {MAX_UNICYCLIC_VERTICES}"
        )
    return _select(_all_unicyclic, n, delta)
