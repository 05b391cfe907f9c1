"""Canonical codes for trees and unicyclic graphs: equal codes iff isomorphic.

These are the two classes the paper studies, and the only ones coded:
``canonical_code`` refuses any other connected graph with
``NotTreeOrUnicyclicError``.  A code is the byte encoding of a
canonically relabeled edge set, prefixed by the vertex count.  A rooted
tree's code is its canonical level sequence, ``bytes`` of depths in
preorder (``_rooted_code``), the format the generators in ``enumeration``
emit.  Trees are labeled by the greatest such sequence over their
centers; unicyclic graphs canonicalize the cycle under rotation and
reflection with the codes of the subtrees hanging off each cycle vertex.
No enumerator calls ``canonical_code``: the unicyclic listing keys its
classes by codes its generator emits, with ``necklace_code`` and the
level-sequence helpers here.  ``verify`` canonicalizes each family member
and argmax tree once, when it builds a report, and ``export --canonical``
its one graph, so ``canonical_code`` keeps no memo.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import Sequence

from .graphs import (
    Graph,
    GraphError,
    MAX_VERTICES,
    NotConnectedError,
    SizeLimitError,
    graph_from_edges,
    is_connected,
    peel_leaves,
    peel_to_cycle,
)

CanonicalCode = bytes

# ``bytes.translate`` tables that move every depth one level down, and d
# levels up (``_LIFT[d]``, for the depths of a tree on n <= 16 vertices).
_DEEPER = bytes([*range(1, 256), 255])
_LIFT = [bytes(d) + bytes(range(256 - d)) for d in range(MAX_VERTICES)]


class NotTreeOrUnicyclicError(GraphError):
    """A connected graph with more edges than vertices: neither a tree nor
    unicyclic, so it has no canonical code."""


def canonical_code(g: Graph) -> CanonicalCode:
    """Label-invariant identifier of the isomorphism class of ``g``, a tree
    or a unicyclic graph on at most ``MAX_VERTICES`` vertices.

    Raises ``SizeLimitError`` past the size limit, ``NotConnectedError`` for
    a disconnected graph and ``NotTreeOrUnicyclicError`` for a connected one
    with m > n, checked in that order."""
    if g.n > MAX_VERTICES:
        raise SizeLimitError(f"canonical codes support at most {MAX_VERTICES} vertices")
    if not is_connected(g):
        raise NotConnectedError("canonical codes are defined for connected graphs only")
    # Connected, so the edge count alone tells trees and unicyclic graphs.
    if g.m == g.n:
        return necklace_code(g.n, necklace_max(_pendant_codes(g)))
    if g.m == g.n - 1:
        return _tree_code(g)
    raise NotTreeOrUnicyclicError(
        "canonical codes are defined for trees and unicyclic graphs only,"
        f" got a connected graph with n={g.n} and m={g.m}"
    )


def canonical_form(g: Graph) -> Graph:
    """Canonically relabeled copy of ``g`` (identical for isomorphic inputs)."""
    return code_graph(canonical_code(g))


def code_graph(code: CanonicalCode) -> Graph:
    """The graph a code spells: its vertex count, then its edges' ends,
    normalized, as ``necklace_code`` writes the wrap edge larger end first."""
    return graph_from_edges(code[0], zip(code[1::2], code[2::2]))


# -- trees ---------------------------------------------------------------


def _rooted_code(adj, root: int, skip) -> bytes:
    """Canonical level sequence of the tree at ``root``, leaving out the
    root's neighbours in ``skip`` and, below the root, each vertex's
    parent: the root's depth 0, then its children's sequences one level
    deeper, in non-increasing order (Beyer-Hedetniemi's canonical form).

    It is the AHU code written as depths.  The paren string of a depth
    sequence (root first, depth 0, every later vertex deeper) puts
    ``s[i] + 1 - s[i + 1]`` closing parens between the opening ones of
    vertices i and i + 1, and ``s[-1] + 1`` after the last.  Where two
    sequences first differ, the larger depth gives ``(`` against ``)``;
    where one ends first, the other goes on with an opening paren that the
    ended one closes.  As ``'(' < ')'``, one sequence is greater (Python's
    order, a proper prefix being smaller) exactly when its paren string is
    smaller.  So children in non-increasing sequence order are children in
    ascending AHU order, this sequence's paren string is the AHU string,
    and the greatest sequence over a tree's centers is its least AHU
    string.  Reading the AHU string as a preorder, each vertex joined to
    the innermost vertex still open, gives ``level_sequence_edges``: the
    innermost open vertex is the latest before it one level up, as a depth
    sequence rises by at most one per step.
    """
    children = [_rooted_code(adj, w, (root,)) for w in adj[root] if w not in skip]
    return b"\x00" + b"".join(sorted(children, reverse=True)).translate(_DEEPER)


def _tree_code(g: Graph) -> CanonicalCode:
    """The tree's code: the byte n, then each edge's two ends, the tree
    labeled by its greatest level sequence over its centers and its edges
    sorted, as ``level_sequence_edges`` returns them."""
    seq = max(_rooted_code(g.adjacency, c, ()) for c in peel_leaves(g))
    return bytes([g.n, *chain.from_iterable(level_sequence_edges(seq))])


def level_sequence_edges(seq: Sequence[int]) -> list[tuple[int, int]]:
    """Sorted edges of the tree whose vertex v has depth ``seq[v]``, the
    vertices numbered in preorder: v's parent is the latest vertex before
    it one level up."""
    last = [0] * len(seq)  # the latest vertex seen at each depth
    edges = []
    for v in range(1, len(seq)):
        depth = seq[v]
        edges.append((last[depth - 1], v))
        last[depth] = v
    edges.sort()
    return edges


# -- unicyclic graphs ------------------------------------------------------


def _pendant_codes(g: Graph) -> list[bytes]:
    """Canonical level sequence of the pendant tree rooted at each cycle
    vertex, in cycle order: a root skips its cycle neighbours, and a branch
    off the cycle holds no cycle vertex."""
    cycle = peel_to_cycle(g)
    on_cycle = set(cycle)
    return [_rooted_code(g.adjacency, c, on_cycle) for c in cycle]


def necklace_max(codes: Sequence[bytes]) -> tuple[bytes, ...]:
    """Greatest rotation or reflection of a cyclic sequence of pendant codes.

    A unicyclic graph is determined up to isomorphism by the cyclic
    sequence of its pendant-tree codes read in either direction, and the
    maximum over all 2k readings does not depend on where or which way the
    cycle was walked.  So two unicyclic graphs are isomorphic exactly when
    their necklace maxima are equal.  Readings are tuples of k codes,
    compared element by element, so a map that reverses the order of codes
    reverses that of readings: written as AHU strings (``_rooted_code``),
    the greatest reading is the least.

    Only readings that start at an occurrence of the greatest code are
    compared: a reading's first element is the code it starts at, so a
    reading starting anywhere else is beaten at its first element by one
    that starts at the greatest code, and the maximum is among the rest.
    The reading from position i is ``t[i:] + t[:i]``, for ``t`` the codes
    or their reverse.  When the greatest code occurs once, at i, exactly
    two readings start there: forwards, ``t[i:] + t[:i]``, and backwards,
    ``t[i::-1] + t[:i:-1]``, which is ``t[i], ..., t[0]`` and then
    ``t[k-1], ..., t[i+1]``.  Only those two are compared.

    Three codes are sorted.  The three rotations and three reflections of
    a triangle are all six permutations of its positions, so the readings
    are every order of the codes, and the greatest is the non-increasing
    one.
    """
    if len(codes) == 3:
        return tuple(sorted(codes, reverse=True))
    forward = tuple(codes)
    top = max(forward)
    if forward.count(top) == 1:
        i = forward.index(top)
        return max(forward[i:] + forward[:i], forward[i::-1] + forward[:i:-1])
    backward = forward[::-1]
    return max(
        [seq[i:] + seq[:i] for seq in (forward, backward) for i, c in enumerate(seq) if c == top]
    )


# ``_SHIFT[f]`` adds f to every byte that is a vertex label on n <= 16.
_SHIFT = [bytes(range(f, 256)) + bytes(f) for f in range(MAX_VERTICES)]


@lru_cache(maxsize=1 << 8)
def _segment(seq: bytes) -> bytes:
    """Edge bytes of the pendant tree with level sequence ``seq``, its
    vertices labeled 0.. in preorder: the sorted edges at the root, then
    the cycle edge to the next root, ``(0, s)`` for a tree of s vertices,
    then the other edges, sorted.  So the bytes are 2s long and the byte s
    occurs once, in the cycle edge.

    The memo keeps the latest 256 codes: small pendant trees recur in
    nearly every key, while most large ones occur in one key only (at
    n = 13, each of the 1,842 trees on 11 vertices)."""
    edges = level_sequence_edges(seq)
    edges.insert(seq.count(1), (0, len(seq)))  # after the root's child edges
    return bytes([x for edge in edges for x in edge])


def necklace_code(n: int, necklace: tuple[bytes, ...]) -> CanonicalCode:
    """Canonical code of the unicyclic graph on ``n`` vertices whose
    pendant codes, read around the cycle, are ``necklace`` (a
    ``necklace_max`` result): the pendant trees are labeled in necklace
    order, each in preorder from its root, and consecutive roots are
    joined into the cycle.

    The code is the byte n, then the sorted edges ``(a, b)``: a tree's
    edges and the cycle edges ``(r_i, r_(i+1))`` with ``a < b``, and the
    wrap edge as ``(r_(k-1), 0)``, r_i being the i-th root's label.  It is joined from one ``_segment`` per
    pendant, shifted by its root's label r_i, with no sort.  Why that
    order is sorted:

    * Edges sort by their first end.  Every edge's first end lies in the
      labels of one pendant tree, r_i up to r_(i+1) - 1: a tree edge's, as
      its tree's labels are consecutive; the cycle edge's and the wrap
      edge's, r_i.  So the pendants' groups follow in necklace order.
    * Within a group, edges from the root r_i sort by their second end.
      A root's children are labeled above r_i and below r_(i+1), the next
      pendant's first label, so the cycle edge ``(r_i, r_(i+1))`` comes
      right after them and before every edge from a later label.  The
      wrap edge ``(r_(k-1), 0)`` has second end 0, below every child, so
      it comes right before the last root's child edges.
    * Shifting every label of a tree by r_i keeps its own edges' order,
      which ``_segment`` sorted, and turns its cycle edge ``(0, s)``,
      right after the root's child edges, into ``(r_i, r_(i+1))``.  The
      last pendant's is dropped and the wrap edge put before its root's
      child edges.
    """
    out = [bytes((n,))]
    at = 0
    *path, last = necklace
    for code in path:
        segment = _segment(code)
        out.append(segment.translate(_SHIFT[at]))
        at += len(segment) >> 1
    segment = _segment(last)
    cut = segment.index(len(segment) >> 1) - 1  # the cycle edge, dropped
    segment = segment.translate(_SHIFT[at])
    out += [bytes((at, 0)), segment[:cut], segment[cut + 2 :]]
    return b"".join(out)
