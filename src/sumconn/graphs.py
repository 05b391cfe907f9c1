"""Immutable simple undirected graphs on at most 16 vertices.

Vertices are labeled ``0..n-1``.  Graphs are values: construction
normalizes and validates the edge set once, after which a graph can be
shared freely (including across threads).  Its value is its vertex count
and sorted edge tuple.  Each field is set once, through its slot's
descriptor; the rows slot starts ``None`` and the adjacency rows are
filled on first read.  All structural transforms in this package build new
graphs rather than mutating.
"""

from __future__ import annotations

from typing import Iterable, Sequence

MAX_VERTICES = 16


class GraphError(ValueError):
    """Base class for graph construction and query errors."""


class VertexRangeError(GraphError):
    pass


class SelfLoopError(GraphError):
    pass


class DuplicateEdgeError(GraphError):
    pass


class SizeLimitError(GraphError):
    pass


class NotConnectedError(GraphError):
    pass


class NotUnicyclicError(GraphError):
    pass


class Graph:
    """Simple undirected graph, unchecked: ``edges`` are strictly increasing
    pairs ``(u, v)``, ``0 <= u < v < n`` (``graph_from_edges`` checks).
    Appending them in order fills each ``adjacency`` list sorted, smaller
    neighbours (pairs ending in v) before larger ones (pairs starting at v);
    two threads reading it first may both build it, to equal tuples.

    ``__setattr__`` refuses every assignment, so ``__init__`` and the first
    ``adjacency`` read set the slots through their descriptors' ``__set__``
    (``_set_n``, ``_set_edges``, ``_set_adjacency``).  The rows slot starts
    ``None``, so the first read tests it and raises nothing."""

    __slots__ = ("n", "edges", "_adjacency")

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...]):
        _set_n(self, n)
        _set_edges(self, edges)
        _set_adjacency(self, None)

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        rows = self._adjacency
        if rows is None:
            adj: list[list[int]] = [[] for _ in range(self.n)]
            for u, v in self.edges:
                adj[u].append(v)
                adj[v].append(u)
            # The outer tuple goes through a list: a tuple of known length
            # is taken from the interpreter's free list, where one grown
            # from an iterator is allocated anew and, once freed, left there.
            rows = tuple([*map(tuple, adj)])
            _set_adjacency(self, rows)
        return rows

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Graph:
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return Graph, (self.n, self.edges)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges)})"


_set_n = Graph.n.__set__
_set_edges = Graph.edges.__set__
_set_adjacency = Graph._adjacency.__set__


def graph_from_edges(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Build a validated, normalized graph.

    Rejects out-of-range endpoints, self-loops, and duplicate edges, each
    with its own error type.
    """
    if n < 1:
        raise VertexRangeError(f"vertex count must be at least 1, got {n}")
    if n > MAX_VERTICES:
        raise SizeLimitError(f"at most {MAX_VERTICES} vertices supported, got {n}")
    seen: set[tuple[int, int]] = set()
    for pair in edges:
        u, v = pair
        if not (0 <= u < n and 0 <= v < n):
            raise VertexRangeError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdgeError(f"duplicate edge {key}")
        seen.add(key)
    return Graph(n, tuple(sorted(seen)))


def path_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"a cycle needs at least 3 vertices, got {n}")
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """Star on ``n`` vertices, center 0."""
    return graph_from_edges(n, [(0, i) for i in range(1, n)])


def is_connected(g: Graph) -> bool:
    if g.n == 1:
        return True
    adj = g.adjacency
    seen = [False] * g.n
    seen[0] = True
    order = [0]
    for v in order:  # breadth-first: the loop reads what it appends
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                order.append(w)
    return len(order) == g.n


def is_tree(g: Graph) -> bool:
    return g.m == g.n - 1 and is_connected(g)


def is_unicyclic(g: Graph) -> bool:
    return g.m == g.n and is_connected(g)


def max_degree(g: Graph) -> int:
    return max(g.degrees())


def unique_cycle(g: Graph) -> tuple[int, ...]:
    """Vertices of the single cycle, in traversal order from its smallest label.

    Peels degree-one vertices until only the cycle remains.
    """
    if not is_unicyclic(g):
        raise NotUnicyclicError("graph is not unicyclic")
    return peel_to_cycle(g)


def peel_leaves(g: Graph) -> list[int]:
    """The vertices left, ascending, after stripping the leaves of a
    connected graph layer by layer while more than two vertices remain and
    some leaf is left: a tree's one or two centers, a unicyclic graph's
    cycle."""
    adj = g.adjacency
    deg = list(g.degrees())
    alive = [True] * g.n
    layer = [v for v in range(g.n) if deg[v] == 1]
    remaining = g.n
    while remaining > 2 and layer:
        remaining -= len(layer)
        nxt = []
        for u in layer:
            alive[u] = False
            for w in adj[u]:
                if alive[w]:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    return [v for v in range(g.n) if alive[v]]


def peel_to_cycle(g: Graph) -> tuple[int, ...]:
    """``unique_cycle`` for a graph already known to be unicyclic (unchecked)."""
    cycle = peel_leaves(g)
    adj = g.adjacency
    # Deterministic orientation: from the least label, step to the smaller
    # cycle neighbour, then on to the cycle neighbour not just left.
    order = [cycle[0], min(w for w in adj[cycle[0]] if w in cycle)]
    while len(order) < len(cycle):
        order.append(next(w for w in adj[order[-1]] if w in cycle and w != order[-2]))
    return tuple(order)
