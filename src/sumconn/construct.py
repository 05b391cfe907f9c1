"""Named extremal constructions for trees and unicyclic graphs.

The maximum-index graphs with n vertices and maximum degree d come in two
regimes.  For large d a single center (or a triangle vertex) carries a mix
of pendant vertices and paths of length two; for small d they are spiders:
d paths of length at least two sharing one center, optionally grown on a
cycle.  Branch boundaries over the integers: large-d means
d >= ceil(n/2) for trees and d >= ceil((n+2)/2) for unicyclic graphs; the
complements are exactly d <= floor((n-1)/2) and d <= floor((n+1)/2).
``is_large_delta`` is the one place these boundaries are written, and
``extremal_family`` picks the family by them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .canon import canonical_code
from .graphs import (
    MAX_VERTICES,
    Graph,
    SizeLimitError,
    VertexRangeError,
    _graph_from_sorted_edges,
    cycle_graph,
    graph_from_edges,
)


class DeltaRangeError(ValueError):
    """Maximum degree incompatible with the requested family."""


@dataclass(frozen=True)
class GraphClassSpec:
    """Selects a family: n vertices, maximum degree delta, tree or unicyclic."""

    n: int
    delta: int
    graph_class: str

    def __post_init__(self) -> None:
        if self.graph_class not in ("tree", "unicyclic"):
            raise ValueError(f"unknown graph class {self.graph_class!r}")
        if self.n < 3:
            raise DeltaRangeError(f"families need n >= 3, got n={self.n}")
        if not 2 <= self.delta <= self.n - 1:
            raise DeltaRangeError(
                f"delta must lie in [2, n-1] = [2, {self.n - 1}], got {self.delta}"
            )


def is_large_delta(graph_class: str, n: int, delta: int) -> bool:
    """Whether ``delta`` lies in the large-degree branch for ``graph_class``:
    delta >= ceil(n/2) for trees, delta >= ceil((n+2)/2) for unicyclic
    graphs."""
    return delta >= ((n + 1) // 2 if graph_class == "tree" else (n + 3) // 2)


def attach_path(g: Graph, u: int, r: int) -> Graph:
    """Attach a path on ``r`` new vertices to ``u`` by a single edge.

    New vertices are labeled ``n .. n+r-1`` outward from ``u``; with
    ``r = 1`` this attaches a pendant vertex.
    """
    if not 0 <= u < g.n:
        raise VertexRangeError(f"vertex {u} out of range for n={g.n}")
    if r < 1:
        raise ValueError(f"path length must be at least 1, got {r}")
    if g.n + r > MAX_VERTICES:
        raise SizeLimitError(f"at most {MAX_VERTICES} vertices supported, got {g.n + r}")
    edges = list(g.edges)
    edges.append((u, g.n))
    edges.extend((g.n + i, g.n + i + 1) for i in range(r - 1))
    edges.sort()
    # Trusted build: u < g.n is checked and the larger ends of the new edges
    # are the distinct new vertices, so no pair is out of range, a loop or a repeat.
    return _graph_from_sorted_edges(g.n + r, tuple(edges))


def tree_extremal(n: int, delta: int) -> Graph:
    """The unique maximum tree for delta >= ceil(n/2): a center (label 0)
    with 2*delta+1-n pendant vertices and n-delta-1 paths of length two."""
    if n < 3 or delta > n - 1 or not is_large_delta("tree", n, delta):
        raise DeltaRangeError(
            f"tree_extremal needs ceil(n/2) <= delta <= n-1, got n={n}, delta={delta}"
        )
    pendants = 2 * delta + 1 - n
    twos = n - delta - 1
    g = graph_from_edges(1, [])
    for _ in range(pendants):
        g = attach_path(g, 0, 1)
    for _ in range(twos):
        g = attach_path(g, 0, 2)
    return g


def unicyclic_extremal(n: int, delta: int) -> Graph:
    """The unique maximum unicyclic graph for delta >= ceil((n+2)/2): a
    triangle vertex (label 0) with 2*delta-n-1 pendants and n-delta-1
    paths of length two."""
    if n < 3 or delta > n - 1 or not is_large_delta("unicyclic", n, delta):
        raise DeltaRangeError(
            f"unicyclic_extremal needs ceil((n+2)/2) <= delta <= n-1, got n={n}, delta={delta}"
        )
    pendants = 2 * delta - n - 1
    twos = n - delta - 1
    g = cycle_graph(3)
    for _ in range(pendants):
        g = attach_path(g, 0, 1)
    for _ in range(twos):
        g = attach_path(g, 0, 2)
    return g


def _leg_multisets(total: int, parts: int, minimum: int) -> Iterator[tuple[int, ...]]:
    """Nondecreasing tuples of ``parts`` integers >= minimum summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in _leg_multisets(total - first, parts - 1, first):
            yield (first,) + rest


def spider_family(n: int, delta: int) -> list[Graph]:
    """All non-isomorphic trees made of ``delta`` paths of length >= 2
    sharing a center: the maximum family for delta <= floor((n-1)/2)."""
    if delta < 2 or is_large_delta("tree", n, delta):
        raise DeltaRangeError(
            f"spider_family needs 2 <= delta <= floor((n-1)/2), got n={n}, delta={delta}"
        )
    out: dict[bytes, Graph] = {}
    for legs in _leg_multisets(n - 1, delta, 2):
        g = graph_from_edges(1, [])
        for leg in legs:
            g = attach_path(g, 0, leg)
        out.setdefault(canonical_code(g), g)
    return [out[code] for code in sorted(out)]


def cycle_spider_family(n: int, delta: int) -> list[Graph]:
    """All non-isomorphic unicyclic graphs made of a cycle with ``delta - 2``
    paths of length >= 2 attached to one cycle vertex, over every cycle
    length: the maximum family for delta <= floor((n+1)/2).  For delta = 2
    this is just the n-cycle."""
    if delta < 2 or is_large_delta("unicyclic", n, delta):
        raise DeltaRangeError(
            f"cycle_spider_family needs 2 <= delta <= floor((n+1)/2), got n={n}, delta={delta}"
        )
    if delta == 2:
        return [cycle_graph(n)]
    out: dict[bytes, Graph] = {}
    legs_needed = delta - 2
    for girth in range(3, n - 2 * legs_needed + 1):
        for legs in _leg_multisets(n - girth, legs_needed, 2):
            g = cycle_graph(girth)
            for leg in legs:
                g = attach_path(g, 0, leg)
            out.setdefault(canonical_code(g), g)
    return [out[code] for code in sorted(out)]


def extremal_family(spec: GraphClassSpec) -> list[Graph]:
    """The maximum-index graphs for ``spec``: the single large-degree graph
    or, below the branch boundary, the spider family."""
    n, delta = spec.n, spec.delta
    large = is_large_delta(spec.graph_class, n, delta)
    if spec.graph_class == "tree":
        return [tree_extremal(n, delta)] if large else spider_family(n, delta)
    return [unicyclic_extremal(n, delta)] if large else cycle_spider_family(n, delta)
