"""Independent reference implementations used only by the tests.

Everything here is deliberately written from scratch rather than imported
from the package: labeled-tree enumeration via Prufer sequences, a
separate AHU-style string encoder, a separate unicyclic class key, and
brute-force isomorphism classes by permutation-orbit closure.  The
package writes a rooted tree as its canonical level sequence;
``rooted_paren_codes`` lists every rooted tree as an AHU paren string
instead, and ``paren_to_level_sequence`` converts a paren string to
depths with a counter, so tests reach the package's format from strings
it never made.  Counts and
class structures computed here cross-check the production enumerators and
canonical codes without sharing their code paths.

The counting oracles ``rooted_tree_counts``, ``free_tree_counts`` and
``unicyclic_counts`` import nothing from the package: they count classes
from generating functions in integer arithmetic (Euler transform, Otter's
formula, the dihedral cycle index).

Fourteen references are kept for a different purpose: they are the earlier,
slower production algorithms, and tests compare the fast ones against them
output for output.  ``bracelet_compositions_by_scan`` tests every
composition of n for dihedral leastness, where the package generates only
necklaces.  ``level_profile`` decodes a level sequence's parents
and degrees whole, where the package steps them along the generator;
``bracelets_by_product`` takes each bracelet word whole from
``itertools.product`` and sums it from scratch, where the package shares
each prefix's sums.  ``free_tree_level_sequences``
runs the WROM generator on lists, with a full successor, subtree split
and validity check per step; ``level_sequence_trees`` builds the tree of
each of its sequences through ``graph_from_edges``, in its order;
``eager_level_sequence_trees`` builds the same trees with the
enumerator's own ``_level_sequence_tree``, all at once;
``chord_dedup_unicyclic`` builds every tree-plus-chord graph, trees in
the order of the package's ``canonical_code``, and deduplicates by it; ``chord_necklaces_unpruned``
keys every chord of a tree, with no orbit pruning, in AHU strings;
``squarefree_by_trial_division`` trial-divides up to the square root;
``graph6_by_pair_probe`` tests every vertex pair for an edge and packs the
bits six at a time; ``necklace_min_all_readings`` takes the least of all 2k
readings of a cyclic sequence; ``necklace_code_by_parse`` parses every
pendant AHU string of a necklace with its own parser and sorts the whole
edge list; ``canonical_level_sequence`` re-roots a bicentral
WROM sequence at vertex 1 by splitting, sorting and joining its blocks,
and ``level_sequence_code`` writes the canonical code of its edges, the
key the unicyclic generator sorts its trees by.

The Fraction-term functions (``fraction_terms`` and ``reciprocal_sqrt_terms``
with ``terms_hash``, ``terms_str``, ``terms_json`` and ``mp_terms``) keep
an exact value as ``RadicalValue`` once stored it, a dict of Fraction
coefficients, and write its hash, text, JSON and mpmath value from that;
they share no code with the package's integer coordinates.

``leading_groups_by_value`` is the ranking reference: it values every
graph through ``sum_connectivity``, sorts all distinct values and takes the
first k, with no streaming and no eviction, so it shares no code with
``verify._ranking``.

The ``*_as_printed`` functions are the paper's closed forms written term by
term, in ``RadicalValue`` arithmetic (the real-relaxed profile in floats)
and with the branch thresholds spelled out again; tests compare the
package's bounds, which are stated as edge types, against them.
"""

from __future__ import annotations

import heapq
import math
from functools import lru_cache
from fractions import Fraction
from itertools import combinations, permutations, product
from operator import itemgetter
from typing import Iterator

import mpmath

from sumconn.indices import sum_connectivity
from sumconn.radicals import RadicalValue, _decide

Edge = tuple[int, int]


def prufer_decode(seq: tuple[int, ...], n: int) -> list[Edge]:
    """Labeled tree on n >= 2 vertices from a Prufer sequence of length n-2."""
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    heap = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(heap)
    edges: list[Edge] = []
    for x in seq:
        leaf = heapq.heappop(heap)
        edges.append((min(leaf, x), max(leaf, x)))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(heap, x)
    a = heapq.heappop(heap)
    b = heapq.heappop(heap)
    edges.append((min(a, b), max(a, b)))
    return edges


def adjacency_from_edges(n: int, edges: list[Edge]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _centers(adj: list[list[int]]) -> list[int]:
    """The one or two middle vertices of a tree's longest paths, ascending:
    strip all leaves, round after round, until at most two are left."""
    n = len(adj)
    degree = [len(a) for a in adj]
    leaves = [v for v in range(n) if degree[v] <= 1]
    left = n
    while left > 2:
        left -= len(leaves)
        inner = []
        for v in leaves:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    inner.append(w)
        leaves = inner
    return sorted(leaves)


def tree_key(adj: list[list[int]]) -> str:
    """Label-invariant string for a free tree (bracket encoding)."""

    def enc(v: int, parent: int) -> str:
        subs = sorted(enc(w, v) for w in adj[v] if w != parent)
        return "[" + "".join(subs) + "]"

    return min(enc(c, -1) for c in _centers(adj))


def _cycle_by_dfs(adj: list[list[int]]) -> list[int]:
    """Cycle of a unicyclic graph from the first DFS back edge."""
    n = len(adj)
    parent = [-2] * n
    parent[0] = -1
    stack = [(0, -1)]
    back: tuple[int, int] | None = None
    while stack and back is None:
        v, par = stack.pop()
        for w in adj[v]:
            if w == par:
                continue
            if parent[w] == -2:
                parent[w] = v
                stack.append((w, v))
            else:
                back = (v, w)
                break
    assert back is not None
    v, w = back
    # Climb both endpoints' ancestor chains to their meeting point.
    anc_v = []
    x = v
    while x != -1:
        anc_v.append(x)
        x = parent[x]
    anc_set = set(anc_v)
    path_w = []
    x = w
    while x not in anc_set:
        path_w.append(x)
        x = parent[x]
    meet = x
    cycle = anc_v[: anc_v.index(meet) + 1] + list(reversed(path_w))
    return cycle


def unicyclic_key(n: int, edges: list[Edge]) -> str:
    """Label-invariant string for a connected unicyclic graph."""
    adj = adjacency_from_edges(n, edges)
    ring = _cycle_by_dfs(adj)
    cycle_set = set(ring)

    def enc(v: int, parent: int) -> str:
        subs = sorted(
            enc(w, v) for w in adj[v] if w != parent and w not in cycle_set
        )
        return "[" + "".join(subs) + "]"

    codes = [enc(v, -1) for v in ring]
    k = len(codes)
    best = None
    for direction in (1, -1):
        for shift in range(k):
            cand = "|".join(codes[(shift + direction * i) % k] for i in range(k))
            if best is None or cand < best:
                best = cand
    return f"{k}:{best}"


@lru_cache(maxsize=None)
def labeled_tree_classes(n: int) -> dict[str, list[Edge]]:
    """One representative per free-tree class, from all n**(n-2) labeled trees."""
    if n == 1:
        return {"[]": []}
    if n == 2:
        return {"[[]]": [(0, 1)]}
    reps: dict[str, list[Edge]] = {}
    for seq in product(range(n), repeat=n - 2):
        edges = prufer_decode(seq, n)
        key = tree_key(adjacency_from_edges(n, edges))
        if key not in reps:
            reps[key] = edges
    return reps


def labeled_unicyclic_class_count(n: int) -> int:
    """Unicyclic class count via labeled trees plus every chord."""
    keys: set[str] = set()
    for edges in labeled_tree_classes(n).values():
        present = set(edges)
        for u, v in combinations(range(n), 2):
            if (u, v) in present:
                continue
            keys.add(unicyclic_key(n, edges + [(u, v)]))
    return len(keys)


def _connected(n: int, edges: tuple[Edge, ...]) -> bool:
    if n == 1:
        return True
    adj = adjacency_from_edges(n, list(edges))
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def connected_graph_orbit_classes(n: int, edge_count: int | None = None) -> list[tuple[Edge, ...]]:
    """Ground-truth isomorphism classes of connected graphs on n vertices.

    Pure permutation-orbit closure over all labeled graphs; no canonical
    codes involved.  Exponential, intended for n <= 6.
    """
    all_pairs = list(combinations(range(n), 2))
    perms = list(permutations(range(n)))
    seen: set[frozenset[Edge]] = set()
    reps: list[tuple[Edge, ...]] = []
    for bits in range(1 << len(all_pairs)):
        edges = tuple(p for i, p in enumerate(all_pairs) if bits >> i & 1)
        if edge_count is not None and len(edges) != edge_count:
            continue
        if not _connected(n, edges):
            continue
        key = frozenset(edges)
        if key in seen:
            continue
        reps.append(edges)
        for perm in perms:
            seen.add(
                frozenset(
                    (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges
                )
            )
    return reps


def _level_sequence_edges(seq: list[int]) -> list[Edge]:
    edges: list[Edge] = []
    stack: list[int] = []
    for v, depth in enumerate(seq):
        while stack and seq[stack[-1]] >= depth:
            stack.pop()
        if stack:
            edges.append((stack[-1], v))
        stack.append(v)
    return edges


# ``bytes.translate`` tables that move every depth one level up or down.
_ONE_UP = bytes([0, *range(255)])
_ONE_DOWN = bytes([*range(1, 256), 255])


def canonical_level_sequence(seq: bytes) -> bytes:
    """The greatest canonical level sequence over the centers of the free
    tree a WROM level sequence denotes: ``seq`` itself, or its re-rooting
    at vertex 1 when that is greater.

    The root is a center, and vertex 1 is the other one exactly when the
    root's first subtree, up to its second child ``cut``, reaches as deep
    as the rest.  Rooted at vertex 1, the canonical sequence is 0 and then
    the blocks of vertex 1's subtrees, one level shallower, and of the
    root's side, one level deeper, in descending order."""
    n = len(seq)
    cut = seq.find(1, 2)
    if cut < 0:
        cut = n
    if max(seq[1:cut], default=0) <= max(seq[cut:], default=0):
        return seq
    # Each block without its first depth, 1: split at the children of
    # vertex 1, a block's other depths being at least 2.
    blocks = seq[2:cut].translate(_ONE_UP).split(b"\x01")[1:]
    blocks.append(seq[cut:].translate(_ONE_DOWN))
    blocks.sort(reverse=True)
    return max(seq, b"\x00\x01" + b"\x01".join(blocks))


def level_sequence_code(seq) -> bytes:
    """The canonical code of the free tree a WROM level sequence denotes:
    the byte n, then the sorted edges of ``canonical_level_sequence``."""
    top = canonical_level_sequence(bytes(seq))
    return bytes([len(top), *[x for edge in sorted(_level_sequence_edges(top)) for x in edge]])


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


def free_tree_level_sequences(n: int) -> Iterator[list[int]]:
    """The WROM level sequence of every free tree on n >= 1 vertices, as
    lists, one full successor and validity check per step."""
    if n == 1:
        yield [0]  # the successor rule needs a root with a subtree
        return
    seq: list[int] | None = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while seq is not None:
        seq = _next_free(seq)
        if seq is None:
            return
        yield seq
        seq = _next_rooted(seq)


def level_sequence_trees(n: int) -> list[tuple[Edge, ...]]:
    """Free trees (edge tuples) on n vertices: the tree of every WROM level
    sequence, in generation order, built by ``graph_from_edges``."""
    from sumconn.graphs import graph_from_edges

    return [
        graph_from_edges(n, _level_sequence_edges(seq)).edges
        for seq in free_tree_level_sequences(n)
    ]


def eager_level_sequence_trees(n: int) -> list:
    """Free trees (graphs) on n vertices as one eager list: every WROM level
    sequence's tree, in generation order, built by ``_level_sequence_tree``."""
    from sumconn.enumeration import _level_sequence_tree

    return [_level_sequence_tree(seq) for seq in free_tree_level_sequences(n)]


def level_profile(seq, root_edges: int) -> tuple[int, int, int]:
    """``(profile, largest degree, root degree)`` of the tree whose vertex v
    has depth ``seq[v]`` in preorder and whose root has ``root_edges`` more
    edges outside it, decoded whole: a non-root vertex has degree
    ``children(v) + 1``, the root ``children + root_edges``; the profile
    packs the degree sums of the tree's edges as ``sum 1 << (8*s)``."""
    from sumconn.indices import _UNIT

    s = len(seq)
    parent = [0] * s
    last = [0] * s  # the latest vertex seen at each depth
    children = [0] * s
    for v in range(1, s):
        parent[v] = p = last[seq[v] - 1]
        last[seq[v]] = v
        children[p] += 1
    degree = [c + 1 for c in children]
    degree[0] += root_edges - 1
    profile = sum([_UNIT[degree[parent[v]] + degree[v]] for v in range(1, s)])
    return profile, max(degree), degree[0]


def bracelet_compositions_by_scan(n: int) -> Iterator[tuple[tuple[int, ...], list]]:
    """Each composition of n into k >= 3 parts that is least among its 2k
    dihedral readings, with the readings other than itself that fix it, as
    position getters: every composition of n into k parts, in
    lexicographic order, tested whole."""
    for k in range(3, n + 1):
        # Reading r of the 2k starts at position r forwards, then at k-1-r
        # backwards: slices of the doubled forward and backward sequences.
        getters = [itemgetter(*[(r + j) % k for j in range(k)]) for r in range(k)]
        getters += [itemgetter(*[(k - 1 - r - j) % k for j in range(k)]) for r in range(k)]
        for cuts in combinations(range(1, n), k - 1):
            comp = tuple([b - a for a, b in zip((0, *cuts), (*cuts, n))])
            if comp[0] != min(comp):
                continue
            both = comp + comp, comp[::-1] * 2
            images = [twice[r : r + k] for twice in both for r in range(k)]
            if min(images) == comp:
                yield comp, [g for g, image in zip(getters[1:], images[1:]) if image == comp]


def bracelets_by_product(n: int) -> Iterator[tuple[int, int, tuple]]:
    """``(max degree, profile, word)`` of every unicyclic bracelet on n
    vertices: each least composition's words from ``itertools.product``,
    whole, filtered by its symmetries, their letters unzipped and their
    profiles and cycle edges summed from scratch per word."""
    from sumconn.enumeration import _bracelet_compositions, _rooted_letters
    from sumconn.indices import _UNIT

    for comp, symmetries in _bracelet_compositions(n):
        for word in product(*map(_rooted_letters, comp)):
            if symmetries and any(word > g(word) for g in symmetries):
                continue
            _, profiles, tops, roots, _ = zip(*word)
            yield max(tops), sum(profiles) + sum(
                [_UNIT[a + b] for a, b in zip(roots, roots[1:] + roots[:1])]
            ), word


def leading_groups_by_value(graphs, k: int) -> tuple[int, list[tuple[RadicalValue, list]]]:
    """The number of ``graphs`` and their ``k`` largest exact index values,
    largest first, each with the graphs that attain it in input order."""
    groups: dict[RadicalValue, list] = {}
    count = 0
    for g in graphs:
        count += 1
        groups.setdefault(sum_connectivity(g), []).append(g)
    return count, [(value, groups[value]) for value in sorted(groups, reverse=True)[:k]]


def chord_dedup_unicyclic(n: int) -> list[tuple[Edge, ...]]:
    """Unicyclic representatives (edge tuples) by building every free tree
    plus every chord, trees in canonical-code order, and keeping the first
    graph per canonical code, in canonical-code order."""
    from sumconn.canon import canonical_code
    from sumconn.enumeration import enumerate_trees
    from sumconn.graphs import graph_from_edges

    found = {}
    for tree in sorted(enumerate_trees(n), key=canonical_code):
        present = set(tree.edges)
        for u, v in combinations(range(n), 2):
            if (u, v) in present:
                continue
            g = graph_from_edges(n, tree.edges + ((u, v),))
            found.setdefault(canonical_code(g), g.edges)
    return [found[code] for code in sorted(found)]


def chord_necklaces_unpruned(tree) -> Iterator[tuple[tuple[int, int], tuple[str, ...]]]:
    """Every chord ``(u, v)``, ``u < v``, of ``tree`` in lexicographic order,
    with the necklace key of ``tree + (u, v)``.

    The chord closes the cycle formed by the tree path from u to v.  The
    pendant code of a cycle vertex w is ``"(" + sorted(branch(c, w) for c
    off the cycle) + ")"``, where ``branch(c, w)`` is the AHU code of c's
    side of the tree edge (c, w) rooted at c.  That side holds no cycle
    vertex, so the chord leaves it unchanged, and the string is the AHU
    form of what ``canon._pendant_codes`` computes for the unicyclic
    graph.  The key is ``necklace_min_all_readings`` of those codes in path
    order, so equal keys mean isomorphic graphs and, conversely, isomorphic
    graphs get equal keys; ``paren_to_level_sequence`` of each of its codes
    is the key ``enumeration._chord_necklaces`` gives.

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
                yield (u, v), necklace_min_all_readings(prefix[v] + [branch(v, p)])


def rooted_tree_counts(n_max: int) -> list[int]:
    """Rooted unlabeled trees on n vertices, n = 0..n_max (OEIS A000081),
    by the Euler transform: (n-1) r(n) = sum_{k=1}^{n-1} (sum_{d | k} d r(d)) r(n-k)."""
    r = [0, 1] + [0] * (n_max - 1)
    s = [0] * (n_max + 1)  # s[k] = sum of d * r(d) over the divisors d of k
    for n in range(2, n_max + 1):
        k = n - 1
        s[k] = sum(d * r[d] for d in range(1, k + 1) if k % d == 0)
        r[n] = sum(s[j] * r[n - j] for j in range(1, n)) // (n - 1)
    return r[: n_max + 1]


def _series_mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two power series truncated to the length of ``a``."""
    out = [0] * len(a)
    for i, x in enumerate(a):
        if x:
            for j in range(len(a) - i):
                out[i + j] += x * b[j]
    return out


def _series_pow(a: list[int], e: int) -> list[int]:
    out = [1] + [0] * (len(a) - 1)
    for _ in range(e):
        out = _series_mul(out, a)
    return out


def _series_substitute_power(a: list[int], d: int) -> list[int]:
    """a(x^d), truncated to the length of ``a``."""
    out = [0] * len(a)
    for i in range(0, len(a), d):
        out[i] = a[i // d]
    return out


def free_tree_counts(n_max: int) -> list[int]:
    """Free unlabeled trees on n vertices, n = 0..n_max (OEIS A000055), by
    Otter's formula t(x) = 1 + r(x) - (r(x)^2 - r(x^2)) / 2."""
    r = rooted_tree_counts(n_max)
    square = _series_mul(r, r)
    halved = _series_substitute_power(r, 2)
    t = [r[n] - (square[n] - halved[n]) // 2 for n in range(n_max + 1)]
    t[0] = 1
    return t


def unicyclic_counts(n_max: int) -> list[int]:
    """Connected unicyclic graphs on n vertices, n = 0..n_max (OEIS A001429):
    the sum over cycle lengths k >= 3 of the dihedral cycle index Z(D_k)
    with s_i replaced by r(x^i), the rooted-tree series (Harary and Palmer,
    Graphical Enumeration, ch. 3).  Each 2k Z(D_k) is summed in integers
    and divided exactly:

        2k Z(D_k) = sum_{d | k} phi(d) s_d^(k/d)
                    + k s_1 s_2^((k-1)/2)                       (k odd)
                    + (k/2) (s_2^(k/2) + s_1^2 s_2^((k-2)/2))   (k even)
    """
    r = rooted_tree_counts(n_max)
    s = [None] + [_series_substitute_power(r, i) for i in range(1, n_max + 1)]

    def phi(d: int) -> int:
        return sum(1 for i in range(1, d + 1) if math.gcd(i, d) == 1)

    total = [0] * (n_max + 1)
    for k in range(3, n_max + 1):
        twice = [0] * (n_max + 1)
        for d in range(1, k + 1):
            if k % d == 0:
                term = _series_pow(s[d], k // d)
                twice = [a + phi(d) * b for a, b in zip(twice, term)]
        if k % 2:
            term = _series_mul(s[1], _series_pow(s[2], (k - 1) // 2))
            twice = [a + k * b for a, b in zip(twice, term)]
        else:
            term = _series_pow(s[2], k // 2)
            other = _series_mul(_series_pow(s[1], 2), _series_pow(s[2], (k - 2) // 2))
            twice = [a + k // 2 * (b + c) for a, b, c in zip(twice, term, other)]
        for n in range(n_max + 1):
            count, rest = divmod(twice[n], 2 * k)
            assert rest == 0, (k, n, twice[n])
            total[n] += count
    return total


def squarefree_by_trial_division(value: int) -> tuple[int, int]:
    """``(a, b)`` with ``value == a*a*b`` and ``b`` squarefree, removing
    square factors p*p for every p up to the square root of what is left."""
    a, b = 1, value
    p = 2
    while p * p <= b:
        while b % (p * p) == 0:
            b //= p * p
            a *= p
        p += 1 if p == 2 else 2
    return a, b


# -- Fraction-term reference for exact values -----------------------------------
#
# A value sum q_b*sqrt(b) (b squarefree) as the dict {b: q_b} of nonzero
# Fractions: the representation ``RadicalValue`` kept before it stored
# integer coordinates, with its hash, text and JSON written out from it.


def fraction_terms(pairs) -> dict[int, Fraction]:
    """``{b: q_b}`` for sum q*sqrt(s) over ``(s, q)`` pairs, each s split
    by trial division as a*a*b and q*a added to b; zero terms dropped."""
    terms: dict[int, Fraction] = {}
    for s, q in pairs:
        a, b = squarefree_by_trial_division(s)
        terms[b] = terms.get(b, 0) + Fraction(q) * a
    return {b: q for b, q in sorted(terms.items()) if q}


def reciprocal_sqrt_terms(radicands) -> dict[int, Fraction]:
    """``{b: q_b}`` for sum 1/sqrt(s) over ``radicands``: 1/sqrt(s) is
    (1/s)*sqrt(s) before squarefree splitting."""
    return fraction_terms((s, Fraction(1, s)) for s in radicands)


def terms_hash(terms: dict[int, Fraction]) -> int:
    """The rational's hash for a rational value, else the hash of the
    sorted (b, q_b) pairs."""
    items = tuple(sorted(terms.items()))
    if not items:
        return hash(0)
    if len(items) == 1 and items[0][0] == 1:
        return hash(items[0][1])
    return hash(items)


def terms_str(terms: dict[int, Fraction]) -> str:
    """``1 + 2/5*sqrt(5)``-style text, terms by radicand."""
    if not terms:
        return "0"
    parts = []
    for b, q in sorted(terms.items()):
        size = abs(q)
        text = str(size) if b == 1 else ("" if size == 1 else f"{size}*") + f"sqrt({b})"
        sign = ("" if q > 0 else "-") if not parts else ("+ " if q > 0 else "- ")
        parts.append(sign + text)
    return " ".join(parts)


def terms_json(terms: dict[int, Fraction]) -> dict:
    """``{"terms": [[b, "p/q"], ...], "float": x}``, x the fsum of the
    per-term doubles float(q_b)*sqrt(b)."""
    items = sorted(terms.items())
    return {
        "terms": [[b, f"{q.numerator}/{q.denominator}"] for b, q in items],
        "float": math.fsum(float(q) * math.sqrt(b) for b, q in items),
    }


def mp_terms(terms: dict[int, Fraction]):
    """The value of ``terms`` as an mpmath number at the working precision."""
    return mpmath.fsum(mpmath.mpf(q.numerator) / q.denominator * mpmath.sqrt(b) for b, q in terms.items())


def graph6_by_pair_probe(g) -> str:
    """graph6 string of a ``Graph``: one membership test per vertex pair in
    column order, zero padding to a multiple of six bits, and each 6-bit
    group, most significant bit first, written as ``value + 63``."""
    bits: list[int] = []
    edge_set = set(g.edges)
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if (i, j) in edge_set else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(g.n + 63)]
    for k in range(0, len(bits), 6):
        value = 0
        for b in bits[k : k + 6]:
            value = (value << 1) | b
        chars.append(chr(value + 63))
    return "".join(chars)


def necklace_min_all_readings(codes: list[str]) -> tuple[str, ...]:
    """Least of the 2k readings (every start, both directions) of a cyclic
    sequence of k codes."""
    k = len(codes)
    readings = []
    for step in (1, -1):
        for start in range(k):
            readings.append(tuple(codes[(start + step * i) % k] for i in range(k)))
    return min(readings)


def necklace_code_by_parse(n: int, necklace: tuple[str, ...]) -> bytes:
    """Canonical code of the unicyclic graph on ``n`` vertices whose
    pendant AHU strings, read around the cycle, are ``necklace`` (a
    ``necklace_min_all_readings`` result): each string is parsed, its
    vertices labeled in the order of their opening parens after those of
    the trees before it, consecutive roots are joined into the cycle, and
    the whole edge list is sorted."""
    edges: list[tuple[int, int]] = []
    roots: list[int] = []
    nxt = 0
    for code in necklace:
        stack: list[int] = []
        for ch in code:
            if ch == "(":
                if stack:
                    edges.append((stack[-1], nxt))
                else:
                    roots.append(nxt)
                stack.append(nxt)
                nxt += 1
            else:
                stack.pop()
    k = len(roots)
    for i in range(k):
        edges.append((roots[i], roots[(i + 1) % k]))
    return bytes([n, *[x for edge in sorted(edges) for x in edge]])


def paren_to_level_sequence(code: str) -> bytes:
    """The depths, in order of their opening parens, of the vertices of the
    rooted tree a paren string denotes."""
    depths = []
    depth = 0
    for ch in code:
        if ch == "(":
            depths.append(depth)
            depth += 1
        else:
            depth -= 1
    return bytes(depths)


@lru_cache(maxsize=None)
def rooted_paren_codes(s: int) -> tuple[str, ...]:
    """The AHU string of every rooted tree on s >= 1 vertices, ascending:
    a root around each multiset of subtrees whose sizes add up to s - 1,
    the subtrees' strings in ascending order."""

    def forests(size: int, least: str) -> Iterator[str]:
        # Ascending lists of subtree strings, none below ``least``.
        if size == 0:
            yield ""
            return
        for k in range(1, size + 1):
            for first in rooted_paren_codes(k):
                if first >= least:
                    for rest in forests(size - k, first):
                        yield first + rest

    return tuple(sorted("(" + forest + ")" for forest in forests(s - 1, "")))


def _rsqrt(s: int) -> RadicalValue:
    return RadicalValue.reciprocal_sqrt(s)


def tree_bound_as_printed(n: int, delta: int) -> RadicalValue:
    """The paper's tree maximum as printed, term by term in ``RadicalValue``
    arithmetic: large delta means delta >= ceil(n/2)."""
    if delta >= (n + 1) // 2:
        return (
            _rsqrt(delta + 1) * (2 * delta - n + 1)
            + _rsqrt(delta + 2) * (n - delta - 1)
            + _rsqrt(3) * (n - delta - 1)
        )
    return (
        RadicalValue.from_rational(Fraction(n - 1 - 2 * delta, 2))
        + _rsqrt(3) * delta
        + _rsqrt(delta + 2) * delta
    )


def unicyclic_bound_as_printed(n: int, delta: int) -> RadicalValue:
    """The paper's unicyclic maximum as printed: large delta means
    delta >= ceil((n+2)/2)."""
    if delta >= (n + 3) // 2:
        return (
            _rsqrt(3) * (n - delta - 1)
            + _rsqrt(delta + 2) * (n - delta + 1)
            + _rsqrt(delta + 1) * (2 * delta - n - 1)
            + RadicalValue.from_rational(Fraction(1, 2))
        )
    return (
        _rsqrt(3) * (delta - 2)
        + _rsqrt(delta + 2) * delta
        + RadicalValue.from_rational(Fraction(n - 2 * delta + 2, 2))
    )


def unicyclic_profile_as_printed(n: int, x: float) -> float:
    """The small-degree unicyclic maximum as printed, in floats, with the
    maximum degree relaxed to a real x >= 2."""
    return (x - 2) / math.sqrt(3.0) + x / math.sqrt(x + 2.0) + (n - 2.0 * x + 2.0) / 2.0


def top_two_as_printed(n: int) -> tuple[RadicalValue, RadicalValue]:
    """The paper's top-two unicyclic values as printed, for n >= 4: n/2 for
    the n-cycle, then 1 + 2/sqrt(5) at n = 4 and
    (n-4)/2 + 1/sqrt(3) + 3/sqrt(5) for n >= 5."""
    first = RadicalValue.from_rational(Fraction(n, 2))
    if n == 4:
        return first, RadicalValue.from_rational(1) + _rsqrt(5) * 2
    return first, RadicalValue.from_rational(Fraction(n - 4, 2)) + _rsqrt(3) + _rsqrt(5) * 3


def packed_counts_by_shift(packed: int) -> dict[int, int]:
    """``{s: k}`` of a histogram packed one byte per radicand, byte s read
    by shift and mask, with no ``int.to_bytes``."""
    counts = {}
    s = 0
    while packed >> (8 * s):
        k = (packed >> (8 * s)) & 0xFF
        if k:
            counts[s] = k
        s += 1
    return counts


def _float_sign(a: int, b: int) -> int:
    """Sign of x_a - x_b for the histograms ``a`` and ``b`` packed one byte
    per radicand (byte s counting 1/sqrt(s)), decided in doubles, or 0 when
    undecided: ``_decide`` on enclosures summed here as ``fsum`` of
    k / sqrt(s) over ``packed_counts_by_shift``.  Values from
    ``reciprocal_sqrt_packed`` keep the same enclosures, so their
    comparisons make the same decision."""

    def enclosure(packed: int) -> float:
        return math.fsum(k / math.sqrt(s) for s, k in packed_counts_by_shift(packed).items())

    return _decide(enclosure(a), enclosure(b))
