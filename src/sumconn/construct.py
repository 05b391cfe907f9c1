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

A spider family lists one graph per parameter tuple, as generated: the
cycle length of a unicyclic one, then the leg multiset, ascending.  No two
are isomorphic.  At delta = 2 there is one member, the path or the n-cycle.
For delta >= 3 the center is the only vertex of degree >= 3, so the graph
gives its parameters back: its cycle's length, and the legs, the vertex
counts of the paths that removing the center leaves off any cycle.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .graphs import (
    MAX_VERTICES,
    Graph,
    SizeLimitError,
    VertexRangeError,
    cycle_graph,
    graph_from_edges,
)
from .indices import _CAPACITY


class DeltaRangeError(ValueError):
    """Maximum degree incompatible with the requested family."""


def _check(error: type[ValueError], what: str, value: int, least: int, largest: int) -> None:
    if not least <= value <= largest:
        raise error(f"{what} must lie in [{least}, {largest}], got {value}")


class ClassRange(NamedTuple):
    """The one place a class's ranges are written: its least n and least exact
    degree filter, and the largest n of each use: ``values`` (n - 1 or n edges
    fit a profile's ``_CAPACITY``) and ``graphs``."""

    name: str
    least_n: int
    least_delta: int
    values: int
    graphs = MAX_VERTICES  # the same for every class

    def check_n(self, n: int, use: str) -> None:
        _check(SizeLimitError, f"{self.name} {use}: n", n, self.least_n, getattr(self, use))

    def check_delta(self, n: int, delta: int) -> None:
        least = min(self.least_delta, n - 1)  # a tree on one vertex has degree 0
        _check(DeltaRangeError, f"{self.name} delta for n={n}", delta, least, n - 1)


RANGES = {
    "tree": ClassRange("tree", 1, 1, values=_CAPACITY + 1),
    "unicyclic": ClassRange("unicyclic", 3, 2, values=_CAPACITY),
}

# The degrees whose unicyclic maxima rank first and second, both below n.
TOP_TWO_DEGREES = (2, 3)
TOP_TWO = RANGES["unicyclic"]._replace(name="top-two ranking", least_n=TOP_TWO_DEGREES[-1] + 1)
# Families start at a path or a cycle, 2 <= delta <= n - 1, so at n = 3.
FAMILIES = {name: limits._replace(least_n=3) for name, limits in RANGES.items()}


class _Spec(NamedTuple):
    n: int
    delta: int
    graph_class: str


class GraphClassSpec(_Spec):
    """Selects a family: n vertices, maximum degree delta, tree or unicyclic,
    n in the class's ``FAMILIES`` range."""

    __slots__ = ()

    def __new__(cls, n: int, delta: int, graph_class: str) -> GraphClassSpec:
        limits = FAMILIES.get(graph_class)
        if limits is None:
            raise ValueError(f"unknown graph class {graph_class!r}")
        if n < limits.least_n:  # no delta fits [2, n-1]
            raise DeltaRangeError(
                f"{graph_class} family: n must be at least {limits.least_n} "
                f"for a delta in [2, n-1], got {n}"
            )
        _check(DeltaRangeError, f"{graph_class} family delta", delta, 2, n - 1)
        limits.check_n(n, "values")
        return super().__new__(cls, n, delta, graph_class)


def is_large_delta(graph_class: str, n: int, delta: int) -> bool:
    """Whether ``delta`` lies in the large-degree branch for ``graph_class``:
    delta >= ceil(n/2) for trees, delta >= ceil((n+2)/2) for unicyclic
    graphs."""
    return delta >= ((n + 1) // 2 if graph_class == "tree" else (n + 3) // 2)


def _check_family(family: str, spec: GraphClassSpec, large: bool) -> None:
    """Before ``family`` builds a graph: the graph limit, and its side of ``is_large_delta``."""
    FAMILIES[spec.graph_class].check_n(spec.n, "graphs")
    if is_large_delta(spec.graph_class, spec.n, spec.delta) != large:
        side = "large" if large else "small"
        raise DeltaRangeError(f"{family} takes {side} delta, got n={spec.n}, delta={spec.delta}")


def attach_path(g: Graph, u: int, r: int) -> Graph:
    """Attach a path on ``r`` new vertices to ``u`` by a single edge.

    New vertices are labeled ``n .. n+r-1`` outward from ``u``; with
    ``r = 1`` this attaches a pendant vertex.
    """
    return attach_paths(g, u, (r,))


def attach_paths(g: Graph, u: int, lengths: Iterable[int]) -> Graph:
    """Attach a path on each of ``lengths`` new vertices to ``u``, in
    order, in one build: the graph ``attach_path`` gives, called once per
    length, with no graph in between."""
    lengths = list(lengths)
    if not 0 <= u < g.n:
        raise VertexRangeError(f"vertex {u} out of range for n={g.n}")
    for r in lengths:
        if r < 1:
            raise ValueError(f"path length must be at least 1, got {r}")
    total = g.n + sum(lengths)
    if total > MAX_VERTICES:
        raise SizeLimitError(f"at most {MAX_VERTICES} vertices supported, got {total}")
    edges = [*g.edges]
    n = g.n
    for r in lengths:
        edges += [(u, n), *[(n + i, n + i + 1) for i in range(r - 1)]]
        n += r
    edges.sort()
    # Trusted build: u < g.n is checked and the larger ends of the new edges
    # are the distinct new vertices, so no pair is out of range, a loop or a repeat.
    return Graph(n, tuple(edges))


def tree_extremal(n: int, delta: int) -> Graph:
    """The unique maximum tree for delta >= ceil(n/2): a center (label 0)
    with 2*delta+1-n pendant vertices and n-delta-1 paths of length two."""
    _check_family("tree_extremal", GraphClassSpec(n, delta, "tree"), True)
    legs = [1] * (2 * delta + 1 - n) + [2] * (n - delta - 1)
    return attach_paths(graph_from_edges(1, []), 0, legs)


def unicyclic_extremal(n: int, delta: int) -> Graph:
    """The unique maximum unicyclic graph for delta >= ceil((n+2)/2): a
    triangle vertex (label 0) with 2*delta-n-1 pendants and n-delta-1
    paths of length two."""
    _check_family("unicyclic_extremal", GraphClassSpec(n, delta, "unicyclic"), True)
    return attach_paths(cycle_graph(3), 0, [1] * (2 * delta - n - 1) + [2] * (n - delta - 1))


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
    """The trees made of ``delta`` paths of length >= 2 sharing a center,
    one per leg multiset, ascending: the maximum family for delta <=
    floor((n-1)/2).  Any two legs make the path, so delta = 2 takes (2, n-3)."""
    _check_family("spider_family", GraphClassSpec(n, delta, "tree"), False)
    center = graph_from_edges(1, [])
    multisets = [(2, n - 3)] if delta == 2 else _leg_multisets(n - 1, delta, 2)
    return [attach_paths(center, 0, legs) for legs in multisets]


def cycle_spider_family(n: int, delta: int) -> list[Graph]:
    """The unicyclic graphs made of a cycle with ``delta - 2`` paths of
    length >= 2 attached to one cycle vertex, one per cycle length and leg
    multiset, ascending in that order: the maximum family for
    delta <= floor((n+1)/2), the n-cycle alone for delta = 2."""
    _check_family("cycle_spider_family", GraphClassSpec(n, delta, "unicyclic"), False)
    legs_needed = delta - 2
    return [
        attach_paths(cycle_graph(girth), 0, legs)
        for girth in range(3, n - 2 * legs_needed + 1)
        for legs in _leg_multisets(n - girth, legs_needed, 2)
    ]


def extremal_family(spec: GraphClassSpec) -> list[Graph]:
    """The maximum-index graphs for ``spec``: the single large-degree graph
    or, below the branch boundary, the spider family."""
    n, delta = spec.n, spec.delta
    large = is_large_delta(spec.graph_class, n, delta)
    if spec.graph_class == "tree":
        return [tree_extremal(n, delta)] if large else spider_family(n, delta)
    return [unicyclic_extremal(n, delta)] if large else cycle_spider_family(n, delta)
