"""Immutable simple undirected graphs on at most 16 vertices.

Vertices are labeled ``0..n-1``.  Graphs are values: construction
normalizes and validates the edge set once, after which a graph can be
shared freely (including across threads).  All structural transforms in
this package build new graphs rather than mutating.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
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


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count, sorted edge list, adjacency."""

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self.adjacency))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges)})"


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
    return _graph_from_sorted_edges(n, tuple(sorted(seen)))


def _graph_from_sorted_edges(n: int, edges: tuple[tuple[int, int], ...]) -> Graph:
    """A graph from an edge tuple already in normalized form (unchecked).

    ``edges`` must be strictly increasing pairs ``(u, v)`` with
    ``0 <= u < v < n``.  Appending in that order fills each adjacency list
    sorted: a vertex's smaller neighbors arrive first, from the pairs that
    end in it, in increasing order, then its larger ones, from the pairs
    that start with it, also in increasing order.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n=n, edges=edges, adjacency=tuple(map(tuple, adj)))


def _graph_with_edge(g: Graph, u: int, v: int) -> Graph:
    """``g`` plus the edge (u, v), ``u < v``, not already in ``g`` (unchecked).

    Only the edge tuple and the two endpoint lists change; each takes the
    new entry at its sorted position, so the result equals what
    ``_graph_from_sorted_edges`` builds from the extended edge tuple.
    """
    edges = g.edges
    at = bisect(edges, (u, v))
    adj = list(g.adjacency)
    au, av = adj[u], adj[v]
    i, j = bisect(au, v), bisect(av, u)
    adj[u] = au[:i] + (v,) + au[i:]
    adj[v] = av[:j] + (u,) + av[j:]
    return Graph(n=g.n, edges=edges[:at] + ((u, v),) + edges[at:], adjacency=tuple(adj))


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
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in g.adjacency[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def is_tree(g: Graph) -> bool:
    return g.m == g.n - 1 and is_connected(g)


def is_unicyclic(g: Graph) -> bool:
    return g.m == g.n and is_connected(g)


def max_degree(g: Graph) -> int:
    return max((len(nbrs) for nbrs in g.adjacency), default=0)


def unique_cycle(g: Graph) -> tuple[int, ...]:
    """Vertices of the single cycle, in traversal order from its smallest label.

    Peels degree-one vertices until only the cycle remains.
    """
    if not is_unicyclic(g):
        raise NotUnicyclicError("graph is not unicyclic")
    return peel_to_cycle(g)


def peel_to_cycle(g: Graph) -> tuple[int, ...]:
    """``unique_cycle`` for a graph already known to be unicyclic (unchecked)."""
    deg = list(g.degrees())
    leaves = [v for v in range(g.n) if deg[v] == 1]
    alive = [True] * g.n
    while leaves:
        v = leaves.pop()
        alive[v] = False
        deg[v] = 0
        for w in g.adjacency[v]:
            if alive[w]:
                deg[w] -= 1
                if deg[w] == 1:
                    leaves.append(w)
    members = [v for v in range(g.n) if alive[v]]
    start = min(members)
    on_cycle = set(members)
    # Deterministic orientation: step to the smaller-labeled cycle neighbor.
    order = [start]
    prev = -1
    cur = start
    while True:
        nxt = min(w for w in g.adjacency[cur] if w in on_cycle and w != prev)
        if nxt == start:
            break
        order.append(nxt)
        prev, cur = cur, nxt
    return tuple(order)
