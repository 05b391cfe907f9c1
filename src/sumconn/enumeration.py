"""Isomorph-free exhaustive generation of trees and unicyclic graphs.

Free trees come from the Wright/Richmond/Odlyzko/McKay successor algorithm
on level sequences: a rooted tree is the ``bytes`` of its depths in
preorder, and a level sequence represents a free tree exactly when the
root's first subtree is no "larger" (height, then size, then lexicographic
order) than the rest of the tree.  Each step copies and slices bytes and
reports the least position it rewrote.  Unicyclic graphs are produced by
adding chords to free trees.  A chord is deduplicated by the pendant-code
necklace of the cycle it closes.  A pendant code is the tree's canonical
level sequence (``canon._rooted_code``), the one rooted-tree format of the
package: the generators below emit it too, so a bracelet letter's bytes
are its pendant code.  The trees keyed are the tree listing's, in WROM
labeling, a preorder whose depths are a Beyer-Hedetniemi canonical level
sequence at vertex 0.  Every subtree of a canonical sequence is canonical,
and siblings come in non-increasing order, so the code of the lower side
of each tree edge is a slice of the sequence, and one pass from the root
down joins the upper sides (``_tree_sides``).  From each first end u, a
walk reaches every larger label v through the path to v's parent plus one
code, entering only sides that hold a label above u: a side holding none
holds no second end, so every chord and its reading are as in a walk of
the whole tree.  Before a chord is keyed, it is skipped when a tree
automorphism maps its first end to a smaller vertex, or when its cycle
reads, from the same first end, as an already keyed chord's; no candidate
graph is built or canonically coded, and the first chord seen for each
class gives its representative.

A tree is kept as the bytes of its sorted edges under the WROM
labeling, and only the edges of the rewritten suffix are decoded per
step, since a vertex's parent is the latest vertex before it one level
up (``_tree_records``).  The tree listing is in generation order, which
is graph6 order, so it needs no key and no sort.  In the graph6 bit
string, column v (the pairs (u, v), u < v) holds one 1, at v's parent,
since v's other neighbours are its children, labeled above it.  WROM
yields level sequences in decreasing lexicographic order.  Let v be the
first vertex at which two of them differ, the earlier sequence deeper
there.  The vertices before v have equal depths, so equal parents, and
the columns before v are equal.  The latest vertex before v at a depth
no deeper than v - 1 is the ancestor of v - 1 at that depth, so the
deeper v has the later parent: the earlier tree's 1 in column v comes
later, and its graph6 string is the smaller.

The unicyclic listing orders classes by canonical code so that repeated
runs and CLI output are reproducible; a class's code is joined from its
key by ``canon.necklace_code`` out of one byte segment per pendant tree,
with no edge sort.  Its chord generator visits the trees in
canonical-code order.  A tree's record is the edge part of its canonical
code unless the tree is bicentral and re-rooting it at vertex 1 gives a
greater sequence, which one comparison of the two halves at the central
edge tells.  The generator yields the root's second child, where the
halves meet, and whether they are equally tall, as its own validity test
measured them.  Then the code's edges are the record's own, relabeled by
one ``bytes.translate`` and joined in another order
(``_unicyclic_records``), with no second decode or sort.  A unicyclic
class is kept in the same format: its tree's record with the chord's two
bytes inserted at their sorted place.  A record's maximum degree is the
most times a label occurs in it, computed only for a degree filter or a
count, as the records are generated.  ``enumerate_trees`` and
``enumerate_unicyclic`` filter the records by degree when asked and
return one lazy sequence of the records; no cache holds either class's
records, the sequence does, for as long as its caller holds it.  A
caller that iterates it gets each graph built when it is read, its edges
unpacked from the joined records in one pass, with no validation, BFS or
sort; the CLI's listing reads no graph, but the records' graph6 lines,
encoded a chunk at a time straight from the bytes
(``graph6.emit_graph6_records``).  Memory holds the records and not the
graphs, so both listings reach the graph limit, n = 16
(``graphs.MAX_VERTICES``), as every function here does.

Verification reads both classes as edge-type profiles, packed integers in
the format ``indices`` defines and values, with no graph and in
generation order, as no report depends on order.  ``tree_profiles``
reads each tree's profile and maximum degree off its level sequence as
the generator emits it, with no canonical code and no sort.
``unicyclic_bracelets`` lists each unicyclic class once, as a bracelet
of rooted trees (orderly generation after Read, "Every one a winner",
1978, and Sawada's bracelets, SIAM J. Comput. 2001), and reads its
profile off the trees'.  Its size sequences are generated as necklaces
(Fredricksen-Kessler-Maiorana) and kept when no reflection is smaller.
Free and rooted trees alike get parents and degrees stepped along the
successor (``_level_profiles``): only the suffix the step rewrote is
derived again.
A bracelet's words are built position by position, each prefix's running
profile, top degree and last root shared by every word that extends it,
and the last letter closes the cycle.  The unicyclic listing keeps the
tree+chord generator, whose representatives' labels are pinned, and is
the reference the bracelets are checked against.
"""

from __future__ import annotations

from bisect import bisect
from collections import Counter
from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import repeat, tee
from operator import add, itemgetter
from struct import Struct
from typing import Callable, Iterator

from .canon import _DEEPER, _LIFT, code_graph, level_sequence_edges
from .canon import necklace_code, necklace_max
from .construct import RANGES
from .graph6 import emit_graph6_records
from .graphs import Graph
from .indices import _UNIT

DeltaFilter = int | tuple[int, int] | None


def _next_rooted(seq: bytes, p: int | None = None) -> tuple[bytes, int] | None:
    """Beyer-Hedetniemi successor of a rooted-tree level sequence and the
    least position it rewrote, p, or None after the last sequence.

    p is the last depth above 1 unless given: the depth there drops by one
    and the tail repeats the block from q, the latest vertex before p one
    level up (its parent), to p."""
    if p is None:
        p = len(seq.rstrip(b"\x01")) - 1
        if p == 0:
            return None
    q = seq.rfind(seq[p] - 1, 0, p)
    tail = len(seq) - p
    return seq[:p] + (seq[q:p] * tail)[:tail], p


def _free_trees(n: int) -> Iterator[tuple[bytes, int, int, bool]]:
    """``(seq, p, cut, bicentral)`` for every free tree on n >= 1 vertices:
    its WROM level sequence; the least position at which it may differ from
    the one before (1 for the first: the root's depth 0 never changes); the
    root's second child (n if none); and whether the root's first subtree,
    ``seq[1:cut]``, is as tall as the rest, which makes the tree bicentral
    with centers 0 and 1 (``_unicyclic_records``).

    A rooted successor is kept when the root's first subtree is no larger
    than the rest of the tree: no higher; if as high, with no more
    vertices; if as many too, no greater lexicographically.  Else it
    jumps: the rooted successor from the first subtree's last vertex and,
    if that vertex was deeper than 2, the tail replaced by a path one
    longer than the new first subtree's height.  A jump lands on the next
    free tree, which the test, run again, keeps.

    The test's measures are the ones yielded, and each is taken again only
    when a step rewrote what it reads.  A step from p > ``cut`` leaves the
    first subtree and the cut as they were, so only the rest's height is
    measured again; a jump rewrites from below the cut, so the test after
    it measures both halves."""
    if n == 1:
        yield b"\x00", 1, 1, False  # the successor rule needs a root with a subtree
        return
    seq = bytes([*range(n // 2 + 1), *range(1, (n + 1) // 2)])
    p = 1
    cut = n
    while True:
        if p <= cut:
            cut = seq.find(1, 2)
            if cut < 0:
                cut = n
            left = max(seq[1:cut]) - 1  # the first subtree's height
        rest = max(seq[cut:], default=0)
        if left > rest or left == rest and (
            2 * cut > n + 2
            or 2 * cut == n + 2 and seq[1:cut].translate(_LIFT[1]) > b"\x00" + seq[cut:]
        ):
            jump, _ = _next_rooted(seq, cut - 1)
            p = min(p, cut - 1)
            if seq[cut - 1] > 2:
                second = jump.find(1, 2)
                path = bytes(range(1, max(jump[1 : second if second > 0 else n]) + 1))
                jump = jump[: n - len(path)] + path
                p = min(p, n - len(path))
            seq = jump
            continue
        yield seq, p, cut, left == rest
        step = _next_rooted(seq)
        if step is None:
            return
        seq, p = step


def _level_sequence_tree(seq: Sequence[int]) -> Graph:
    """The tree whose vertex ``v`` has depth ``seq[v]`` in preorder."""
    return Graph(len(seq), tuple(level_sequence_edges(seq)))


def _tree_records(steps: Iterable[tuple], n: int) -> Iterator[bytes]:
    """The bytes of each tree's sorted edges under its WROM labeling, each
    edge (parent, child), for each step ``(seq, p, cut, bicentral)`` of
    ``_free_trees(n)``, in its order.

    A vertex's parent is the latest vertex before it one level up, so a
    step changes the parents of the vertices it rewrote and of none before
    them: only those edges are read again."""
    pack = Struct(f">{n - 1}H").pack
    above = [0] * (n - 1)  # above[v - 1]: the edge to v from its parent
    for seq, p, _, _ in steps:
        above[p - 1 :] = [seq.rfind(seq[v] - 1, 0, v) << 8 | v for v in range(p, n)]
        yield pack(*sorted(above))


_EDGE = Struct("BB")


def _record_tree(record: bytes, n: int) -> Graph:
    """The graph on n vertices whose sorted edges are the bytes ``record``,
    two per edge.

    The edges go through a list: a tuple of known length is taken from
    the interpreter's free list, where one grown from an iterator is
    allocated anew and, once freed, left there, up to 2,000 of them."""
    return Graph(n, tuple([*_EDGE.iter_unpack(record)]))


def _record_max_degree(record: bytes) -> int:
    """Largest degree of the graph of ``record``: a vertex's degree is the
    number of its edges, the times its label occurs.  Labels 0 to the edge
    count are counted: a tree's n labels, or a unicyclic graph's n and the
    label n, which occurs in no edge."""
    return max(map(record.count, range(len(record) // 2 + 1)))


def _rooted_join(around: dict[int, bytes], a: int, b: int = -1) -> bytes:
    """Canonical level sequence of a vertex's side away from its
    neighbours a and b, from ``around``, its neighbours' branch codes in
    non-increasing order: depth 0, then the others' codes one level
    deeper."""
    below = b"".join([code for c, code in around.items() if c != a and c != b])
    return b"\x00" + below.translate(_DEEPER)


def _tree_sides(tree: Graph) -> tuple[list[int], list[int], list[dict[int, bytes]]]:
    """``(parent, end, around)`` of a tree in WROM labeling, as the tree
    listing emits it: ``parent[v]`` is v's parent (-1 at the root 0),
    ``end[v]`` the first label after v's subtree, and ``around[w]`` maps
    each neighbour c of w to ``branch(c, w)``, the canonical level
    sequence of c's side of the edge (c, w) rooted at c, in non-increasing
    order of the codes.

    The labels are a preorder, so a vertex's parent is its one smaller
    neighbour, and its subtree is the labels from it up to ``end``.  The
    depths in label order are the tree's WROM level sequence, which is
    Beyer-Hedetniemi canonical at vertex 0: every vertex's subtrees follow
    in non-increasing order, and each subtree's own sequence is canonical
    too.  So the branch code of a child c is its slice, ``seq[c:end[c]]``
    lifted by c's depth, and children come in non-increasing order.  The
    code of a parent's side, ``branch(p, c)``, is p's depth 0 and then the
    codes around p but c's, one level deeper: it is joined when c's turn
    comes, p's codes being done, and put in its place among c's."""
    n = tree.n
    adj = tree.adjacency
    parent = [-1] + [a[0] for a in adj[1:]]
    depth = [0] * n
    end = list(range(1, n + 1))
    for v in range(1, n):
        depth[v] = depth[parent[v]] + 1
    for v in range(n - 1, 0, -1):  # each subtree before its parent
        p = parent[v]
        if end[v] > end[p]:
            end[p] = end[v]
    seq = bytes(depth)
    around: list[dict[int, bytes]] = []
    for x in range(n):
        # A leaf's code is the one constant b"\x00" rather than a new
        # object per leaf, which the kept keys would each hold on to.
        sides = [
            (seq[c : end[c]].translate(_LIFT[depth[c]]) if end[c] > c + 1 else b"\x00", c)
            for c in adj[x]
            if c > x
        ]
        if x:
            sides.append((_rooted_join(around[parent[x]], x), parent[x]))
            sides.sort(reverse=True)
        around.append({c: code for code, c in sides})
    return parent, end, around


def _chord_necklaces(tree: Graph) -> Iterator[tuple[tuple[int, int], tuple[bytes, ...]]]:
    """Chords ``(u, v)``, ``u < v``, of ``tree`` in lexicographic order,
    with the necklace key of ``tree + (u, v)``, skipping chords whose key
    an earlier chord is sure to have.  ``tree`` must be in WROM labeling
    (``_tree_sides``).

    The chord closes the cycle formed by the tree path from u to v.  The
    pendant code of a cycle vertex w is the depth 0 and then, one level
    deeper, ``branch(c, w)`` for each c off the cycle, in non-increasing
    order.  That side holds no cycle vertex, so the chord leaves it
    unchanged, and the code is exactly what ``canon._pendant_codes``
    computes for the unicyclic graph.  The key is ``necklace_max`` of
    those codes in path order, the necklace from which ``canonical_code``
    builds its bytes, so equal keys mean equal canonical codes and,
    conversely, isomorphic graphs get equal keys.

    The paths are read off one walk from each u: the path from u to y is
    the path to the vertex x before it plus y, so its codes are those of
    the path to x, with x now coded between its path neighbours, plus
    y's code as an end vertex, ``branch(y, x)`` (its other cycle
    neighbour is the chord).  The walk enters a neighbour y of x only when
    y's side of the edge holds a label above u, as the ends keyed from u
    are: a side holding none is on no path to an end.  A child y's side is
    its subtree, the labels y to ``end[y] - 1``, which holds a label above
    u exactly when y > u: a child y < u lies on the path to u, or is an
    earlier sibling of u or of one of its ancestors, whose subtree ends at
    or before u.  The parent's side is entered only from u and its
    ancestors, whose subtrees hold u; it is every label below x or from
    ``end[x]`` on, and holds one above u exactly when ``end[x] < n``.  So
    the walk climbs from u while ``end[x] < n`` and then reaches each
    v > u from its parent, in label order.  Every end v > u is reached by
    its one path from u and reads the same codes as in a walk of the
    whole tree, so the same chords are keyed.

    A pendant code depends on the vertex and its two path neighbours, not
    on their order.  A vertex labeled above u, or one the climb passes,
    lies between its parent and a child c: its code is ``mid[c]``, one
    join per vertex.  u, with one path neighbour y, reads
    ``branch(u, y)``.  An ancestor of u between two of its children is a
    join memoized per pair.

    Pruning.  Two rules skip a chord only when an earlier chord has its
    key:

    - u is skipped when its rooted code, the join of its ordered branch
      codes, was seen at a smaller vertex u' (orbit pruning, McKay,
      "Isomorph-free exhaustive generation", J. Algorithms 1998).  Equal
      rooted codes give an automorphism s of the tree with s(u) = u'.  It
      maps the chord (u, v) to the chord {u', s(v)}, a non-edge too, whose
      graph is isomorphic, hence has the same key, and whose smaller end
      is below u.
    - v is skipped when its reading from u, the pendant codes along the
      path before ``necklace_max``, equals that of a chord (u, v') keyed
      before it.  Equal readings have equal maxima, so (u, v') has the
      key of (u, v) and comes first, as v' < v.  This skips every v that
      an automorphism fixing u maps to some v' with u < v' < v: it maps
      the path to v onto the path to v', so the two read alike, and v'
      was keyed or read like an end keyed before it.

    By induction over the chord order, each skipped chord has the key of
    a chord yielded before it from the same tree, so a caller that keeps
    the first chord per key keeps the same chords, in the same order, as
    it would without the pruning.
    """
    n = tree.n
    parent, end, around = _tree_sides(tree)
    mid = [b""] + [_rooted_join(around[parent[v]], v, parent[parent[v]]) for v in range(1, n)]
    forks: dict[tuple[int, int], bytes] = {}  # (c, v): their parent between them
    came = [-1] * n  # came[y]: the child of y the climb entered it from
    # prefix[y]: codes of the path from u up to, not including, y
    prefix: list[tuple[bytes, ...]] = [()] * n
    rooted: set[bytes] = set()
    for u in range(n - 1):
        code = b"".join(around[u].values())
        if code in rooted:
            continue
        rooted.add(code)
        prefix[u] = ()
        x = u
        while end[x] < n:
            y = parent[x]
            prefix[y] = prefix[x] + (mid[came[x]] if x != u else around[y][u],)
            came[y] = x
            x = y
        keyed: set[tuple[bytes, ...]] = set()
        for v in range(u + 1, n):
            p = parent[v]
            if p == u:  # adjacent to u: no chord
                prefix[v] = (around[v][u],)
                continue
            if p > u:
                code = mid[v]
            else:  # an ancestor of u, between two of its children
                code = forks.get((came[p], v))
                if code is None:
                    code = forks[came[p], v] = _rooted_join(around[p], came[p], v)
            prefix[v] = path = prefix[p] + (code,)
            reading = path + (around[p][v],)
            if reading not in keyed:
                keyed.add(reading)
                yield (u, v), necklace_max(reading)


def _reroot_table(n: int, cut: int) -> bytes:
    """``bytes.translate`` table from the labels of a WROM tree on n
    vertices whose root's second child is ``cut`` to its labels in
    preorder from vertex 1: vertices 0 and 1 swap, the root's other
    subtrees, ``cut`` to n - 1, follow as 2 to n - cut + 1, and vertex 1's
    descendants, 2 to cut - 1, as n - cut + 2 to n - 1."""
    return bytes([1, 0, *range(n - cut + 2, n), *range(2, n - cut + 2), *range(n, 256)])


def _unicyclic_records(n: int) -> tuple[bytes, ...]:
    """Every class as the bytes of its sorted edges: a tree's record
    (``_tree_records``) with a chord (u, v), ``u < v``, inserted at its
    sorted place.  Each tree's graph is built to key its chords and
    dropped after.

    Trees are visited in canonical-code order, chords in lexicographic
    order, and a class keeps the first chord found for it, so the
    representatives do not depend on how keys are computed.  Classes are
    ordered by the canonical code built from their key; the keys are
    dropped once sorted.

    A tree's sort key is the edge bytes of its canonical code: the
    parent-array edges of the greatest canonical level sequence over its
    centers (``canon._rooted_code``).  Keys are distinct, so the sorted
    keys are mapped back to their records through the few that differ.

    Which center.  Let ``seq`` be a WROM sequence, ``cut`` the root's
    second child (n if none), A = ``seq[1:cut]`` one level shallower, the
    half at vertex 1 of the edge (0, 1), and B = 0 + ``seq[cut:]``, the
    root's half:

    * The root is a center.  A Beyer-Hedetniemi canonical sequence lists
      every vertex's subtrees in non-increasing order, and a subtree's
      sequence starts with its longest root path, so the first root
      subtree, A, is the tallest.  WROM accepts a sequence only when A is
      no taller than B.  So either A is lower, and the root is the only
      center, or both halves have one height, and the centers are the
      root and vertex 1 (``_free_trees`` yields this as ``bicentral``,
      with ``cut``, from its own test).
    * ``seq`` is canonical at the root: WROM emits Beyer-Hedetniemi
      canonical sequences, so ``seq`` is ``_rooted_code`` at vertex 0,
      that is 0, then A one level deeper, then B's subtrees.
    * Rooted at vertex 1, a bicentral tree's canonical sequence is 0, then
      B one level deeper, then A's subtrees: B is as tall as A, so it is
      taller than every subtree of A and sorts first, and A's subtrees
      keep their canonical order.  Its preorder labels are
      ``_reroot_table``'s.
    * The two sequences first differ where A and B do, one level deeper,
      and then by the same sign.  If one half is a proper prefix of the
      other, the longer one goes on deeper than 1 where the shorter one's
      sequence reaches its next root subtree at depth 1, or ends, so the
      longer half wins again.  So the re-rooted sequence is greater
      exactly when B > A, and for equal halves the two are equal.

    The re-rooted key relabels the record.  Its sorted edges come by
    parent: the new root's, (0, 1) and then vertex 1's child edges; the
    old root's other child edges, now from 1; the root side's inner
    edges; vertex 1's side's inner edges.  The record holds each of these
    runs, in the same order within the run, since the relabeling is
    increasing on each side: ``(0, 1)``, the root's other child edges,
    vertex 1's child edges, vertex 1's side's inner edges and then the
    root side's.  So the key is the bytes 0 and 1, then the record's runs,
    relabeled, in the new order."""
    keys = []
    rerooted = {}
    steps, again = tee(_free_trees(n))
    for (seq, _, cut, bicentral), record in zip(steps, _tree_records(again, n)):
        if bicentral and b"\x00" + seq[cut:] > seq[1:cut].translate(_LIFT[1]):
            # Byte offsets where the runs end: the root's edges at r,
            # vertex 1's child edges at k, vertex 1's side's edges at a.
            r = 2 * seq.count(1)
            k = r + 2 * seq.count(2, 2, cut)
            a = r + 2 * cut - 4
            t = record.translate(_reroot_table(n, cut))
            key = b"\x00\x01" + t[r:k] + t[2:r] + t[a:] + t[k:a]
            rerooted[key] = record
            record = key
        keys.append(record)
    keys.sort()
    found: dict[tuple[bytes, ...], bytes] = {}
    for record in map(rerooted.get, keys, keys):
        tree = _record_tree(record, n)
        for (u, v), key in _chord_necklaces(tree):
            if key not in found:
                at = 2 * bisect(tree.edges, (u, v))
                found[key] = record[:at] + bytes((u, v)) + record[at:]
    return tuple(found[key] for key in sorted(found, key=lambda key: necklace_code(n, key)))


# -- edge-type profiles and unicyclic bracelets of rooted trees ------------------

def _level_profiles(
    steps: Iterable[tuple], s: int, root_edges: int
) -> Iterator[tuple[int, int, int, bytes]]:
    """``(profile, largest degree, root degree, seq)`` for each step of a
    level-sequence generator on s vertices, ``(seq, p, ...)`` with p the
    least position ``seq`` rewrote, read along the steps.  A vertex has
    degree ``children(v) + 1``, the root ``children + root_edges``, its
    edges outside the tree counted; the profile packs the degree sums of
    the tree's edges as ``sum 1 << (8*s)``.

    Only the suffix from p is derived again.  A vertex's parent is the
    latest vertex before it one level up, so a vertex before p keeps its
    parent, and its degree changes only by children from p on.  A step
    takes each old suffix vertex off its old parent's degree and adds it
    to its new parent's; then every parent and degree is the new tree's.
    The state before the first step is the star, every parent 0, which the
    first step (p = 1) rewrites whole.  The profile and largest degree are
    read over all edges, by C-level maps."""
    parent = [0] * s
    degree = [s - 1 + root_edges] + [1] * (s - 1)
    unit = _UNIT.__getitem__
    for step in steps:
        seq = step[0]
        p = step[1]
        for v in range(p, s):
            degree[parent[v]] -= 1
            parent[v] = q = seq.rfind(seq[v] - 1, 0, v)
            degree[q] += 1
        # Every pair (parent[v], v), the root's (0, 0) taken off again.
        profile = sum(map(unit, map(add, map(degree.__getitem__, parent), degree)))
        yield profile - _UNIT[2 * degree[0]], max(degree), degree[0], seq


# A letter is a rooted tree hung at a cycle vertex, as the tuple
# (index, profile, top, root, level sequence): its Beyer-Hedetniemi rank,
# by which letters of one size compare; the degree sums of its edges, the
# root's edges included, packed as sum 1 << (8*s); the largest degree of
# its vertices; and the root's degree, its child count plus its two cycle
# edges.  A plain tuple, as a word is compared and unpacked per class.
_Letter = tuple[int, int, int, int, bytes]


def _rooted_trees(s: int) -> Iterator[tuple[bytes, int]]:
    """Every rooted tree on s >= 1 vertices in Beyer-Hedetniemi order, the
    path first, with the least position it rewrote (1 for the first)."""
    seq = bytes(range(s))
    p = 1
    while True:
        yield seq, p
        step = _next_rooted(seq)
        if step is None:
            return
        seq, p = step


@lru_cache(maxsize=None)
def _rooted_letters(s: int) -> tuple[_Letter, ...]:
    """Every rooted tree on s vertices, in Beyer-Hedetniemi order.

    Its root, once hung at a cycle vertex, has its two cycle edges outside
    the tree.  An edge lies in one tree and its two ends' degrees depend
    on that tree alone, so the profile of all edges that do not join two
    cycle vertices is read here, with no graph."""
    profiles = _level_profiles(_rooted_trees(s), s, 2)
    return tuple([(index, *letter) for index, letter in enumerate(profiles)])


def _necklace_compositions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Each composition of n into k parts that is least among its k
    rotations, in lexicographic order: the Fredricksen-Kessler-Maiorana
    recursion, which extends only prenecklaces.  With p the length of the
    prefix's longest Lyndon prefix, part t is at least part t - p (equal
    keeps p, larger makes the prefix Lyndon), and the word is a necklace
    when p divides k.  Every part is at least the first, so each part is at
    most what leaves the first's value for every later one."""
    comp = [0] * k

    def extend(t: int, p: int, left: int) -> Iterator[tuple[int, ...]]:
        # Parts t..k-1 are still to place and sum to ``left``.
        least = comp[t - p]
        if t == k - 1:
            if left > least or (left == least and k % p == 0):
                comp[t] = left
                yield tuple(comp)
            return
        for part in range(least, left - comp[0] * (k - 1 - t) + 1):
            comp[t] = part
            yield from extend(t + 1, p if part == least else t + 1, left - part)

    for first in range(1, n // k + 1):
        comp[0] = first
        yield from extend(1, 1, n - first)


def _bracelet_compositions(n: int) -> Iterator[tuple[tuple[int, ...], list[Callable]]]:
    """Each composition of n into k >= 3 parts that is least among its 2k
    dihedral readings, with the readings other than itself that fix it, as
    position getters: of each k's necklace compositions, in lexicographic
    order, those that no reflection makes smaller."""
    for k in range(3, n + 1):
        # Reading r of the 2k starts at position r forwards, then at k-1-r
        # backwards: slices of the doubled forward and backward sequences.
        getters = [itemgetter(*[(r + j) % k for j in range(k)]) for r in range(k)]
        getters += [itemgetter(*[(k - 1 - r - j) % k for j in range(k)]) for r in range(k)]
        for comp in _necklace_compositions(n, k):
            both = comp + comp, comp[::-1] * 2
            images = [twice[r : r + k] for twice in both for r in range(k)]
            if min(images) == comp:
                yield comp, [g for g, image in zip(getters[1:], images[1:]) if image == comp]


def unicyclic_bracelets(n: int) -> Iterator[tuple[int, int, tuple[_Letter, ...]]]:
    """``(max degree, profile, word)`` of every connected unicyclic graph on
    n vertices up to isomorphism, with no graph built.

    A connected unicyclic graph is a cycle of length k >= 3 with a rooted
    tree hung at each cycle vertex, and two are isomorphic exactly when
    their cyclic sequences of rooted trees are equal up to rotation and
    reflection: a class is a bracelet of rooted trees whose sizes add up
    to n.  A word is one reading of it, a tuple of letters in cycle order;
    ``bracelet_graph`` builds its graph.

    One reading per class.  Each class has a size sequence up to the
    dihedral group D_k; exactly one of its readings, c, is least, and the
    words of the class whose sizes read c are one orbit of the fillings of
    c under the readings that fix c (a reading g maps a filling of c to a
    filling of c only when g fixes c).  So the classes are the orbits of
    the fillings of each least c under c's own symmetries, and each is
    yielded as its least filling (letters compared by index, sizes being
    equal position by position): every filling when c has no symmetry,
    else those that no symmetry makes smaller.  The order of the letters
    need not agree with any other order, only be total.

    Profile without a graph.  Every edge lies in one hung tree or joins
    two cycle vertices.  Degrees of tree vertices other than the root are
    the tree's own; a root has its child count plus 2.  So the profile
    of the edges' end-degree sums, packed as ``indices`` defines, is the
    trees' own profiles plus one ``root_i + root_(i+1)`` per cycle edge,
    and the maximum degree is the largest of the trees' ``top``s.
    """
    RANGES["unicyclic"].check_n(n, "graphs")
    return _bracelets(n)


def _bracelets(n: int) -> Iterator[tuple[int, int, tuple[_Letter, ...]]]:
    """``unicyclic_bracelets``'s words, each composition's built position
    by position in ``itertools.product`` order.  A word shares its prefix's
    running profile, top and last root with every word that extends it, so
    each letter is added once per prefix, not once per word; the last
    letter also closes the cycle edge back to the first root."""
    for comp, symmetries in _bracelet_compositions(n):
        first, *middle, last = map(_rooted_letters, comp)
        words = [(letter[1], letter[2], letter[3], (letter,)) for letter in first]
        for letters in middle:
            words = _extend(words, letters)
        for profile, top, root, word in words:
            first_root = word[0][3]
            for letter in last:
                whole = word + (letter,)
                if symmetries and any(whole > g(whole) for g in symmetries):
                    continue
                _, own, high, last_root, _ = letter
                yield (
                    high if high > top else top,
                    profile + own + _UNIT[root + last_root] + _UNIT[last_root + first_root],
                    whole,
                )


def _extend(
    words: Iterable[tuple[int, int, int, tuple[_Letter, ...]]], letters: tuple[_Letter, ...]
) -> Iterator[tuple[int, int, int, tuple[_Letter, ...]]]:
    """Each word prefix ``(profile, top, last root, word)`` followed by
    each of ``letters`` in turn, its running sums carried one letter on:
    the letter's profile plus the cycle edge from the last root to the
    letter's, and the larger top.  A function, so that each position
    binds its own letters."""
    return (
        (profile + own + _UNIT[root + new_root], high if high > top else top, new_root, word + (letter,))
        for profile, top, root, word in words
        for letter in letters
        for _, own, high, new_root, _ in [letter]
    )


def bracelet_graph(word: Sequence[_Letter]) -> Graph:
    """The canonical form of a bracelet word's graph: its letters' level
    sequences are their trees' ``_rooted_code``s, and ``canonical_code``
    lays out their ``necklace_max`` by ``necklace_code``, as here."""
    seqs = necklace_max([letter[-1] for letter in word])
    return code_graph(necklace_code(sum(map(len, seqs)), seqs))


# Each class's records on n vertices, in listing order, generated anew
# per call and held by no cache: trees as the generator yields them,
# unicyclic classes from theirs.
_RECORDS = {"tree": lambda n: _tree_records(_free_trees(n), n), "unicyclic": _unicyclic_records}


# Records per ``emit_graph6_records`` call in ``graph6_chunks``: large
# enough that the calls' own cost vanishes, small enough that a chunk's
# lines stay a small part of the listing's memory.
_GRAPH6_CHUNK = 4096


class _LazyGraphs(Sequence[Graph]):
    """Records of graphs on n vertices read as graphs: each graph is built
    from its record when it is read, and not kept."""

    __slots__ = ("_records", "_n")

    def __init__(self, records: tuple[bytes, ...], n: int):
        self._records = records
        self._n = n

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [_record_tree(r, self._n) for r in self._records[i]]
        return _record_tree(self._records[i], self._n)

    def __iter__(self) -> Iterator[Graph]:
        """Each graph, built when it is read: the records are unpacked in
        one pass, and each graph's edges are its record's pairs, grouped by
        ``zip`` into a tuple of known length."""
        records, n = self._records, self._n
        if n == 1 or not records:  # no pairs to group
            return map(_record_tree, records, repeat(n))
        pairs = _EDGE.iter_unpack(b"".join(records))
        return map(Graph, repeat(n), zip(*[pairs] * (len(records[0]) // 2)))

    def graph6_chunks(self) -> Iterator[list[str]]:
        """The graph6 strings of the graphs, in order, in lists of at most
        ``_GRAPH6_CHUNK``, each encoded from the records with no graph."""
        records, n = self._records, self._n
        for i in range(0, len(records), _GRAPH6_CHUNK):
            yield emit_graph6_records(records[i : i + _GRAPH6_CHUNK], n)


def _span(graph_class: str, n: int, delta: DeltaFilter) -> tuple[int, int] | None:
    """The inclusive range of maximum degrees ``delta`` admits, None for
    every degree, once ``RANGES`` has checked n and an exact degree."""
    limits = RANGES[graph_class]
    limits.check_n(n, "graphs")
    if delta is None or isinstance(delta, tuple):
        return delta
    limits.check_delta(n, delta)
    return delta, delta


def _select(graph_class: str, n: int, delta: DeltaFilter) -> _LazyGraphs:
    """The class's records on n vertices whose maximum degree ``delta``
    admits, read as graphs: each record's degree is computed as it is
    generated, only under a filter, and the sequence returned holds the
    only reference to the records it admits."""
    span = _span(graph_class, n, delta)
    records = _RECORDS[graph_class](n)
    if span is None:
        return _LazyGraphs(tuple(records), n)
    lo, hi = span
    return _LazyGraphs(tuple(r for r in records if lo <= _record_max_degree(r) <= hi), n)


def _degree_counts(graph_class: str, n: int, delta: int | None) -> dict[int, int]:
    """The class count at each maximum degree on n vertices that ``delta``
    admits, ascending, each record's degree counted as it is generated: a
    tree count holds no record, and no count is kept after it returns."""
    span = _span(graph_class, n, delta)
    counts = Counter(map(_record_max_degree, _RECORDS[graph_class](n)))
    return {d: c for d, c in sorted(counts.items()) if span is None or span[0] <= d <= span[1]}


def enumerate_trees(n: int, delta: DeltaFilter = None) -> _LazyGraphs:
    """One representative per isomorphism class of free trees on n vertices,
    optionally filtered by maximum degree (exact value in [1, n-1], 0 at
    n = 1, or inclusive range), in the generator's order, which is the
    order of their graph6 strings (module docstring): WROM yields level
    sequences in decreasing order, and at the first vertex where two
    differ, the earlier tree's vertex has the later parent.  Its labels
    are the WROM labels, a preorder.

    The result is a lazy, re-iterable ``Sequence``: the trees are selected
    by degree from their records, and each tree is built from its record's
    edge bytes when it is read; ``graph6_chunks()`` encodes the records
    with no graph.
    """
    return _select("tree", n, delta)


def tree_profiles(n: int) -> Iterator[tuple[int, int, bytes]]:
    """``(max degree, profile, level sequence)`` of every free tree on n
    vertices, read with no graph; ``_level_sequence_tree`` builds a tree's
    graph.

    The trees come straight off the generator, in the tree listing's
    order, with no canonical code and no sort."""
    RANGES["tree"].check_n(n, "graphs")
    return _tree_profiles(n)


def _tree_profiles(n: int) -> Iterator[tuple[int, int, bytes]]:
    for profile, top, _, seq in _level_profiles(_free_trees(n), n, 0):
        yield top, profile, seq


def enumerate_unicyclic(n: int, delta: DeltaFilter = None) -> _LazyGraphs:
    """One representative per isomorphism class of connected unicyclic graphs
    on n vertices, optionally filtered by maximum degree (exact value in
    [2, n-1], or inclusive range), ordered by canonical code.

    The result is a lazy, re-iterable ``Sequence``: the classes are
    selected by degree from their records, and each graph is built from
    its record's edge bytes when it is read; ``graph6_chunks()`` encodes
    the records with no graph.
    """
    return _select("unicyclic", n, delta)
