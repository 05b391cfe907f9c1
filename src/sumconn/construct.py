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

from typing import Iterable, Iterator, NamedTuple

from .canon import canonical_code
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
    fit a profile's ``_CAPACITY``), ``graphs`` and ``listing`` (held in memory)."""

    name: str
    least_n: int
    least_delta: int
    values: int
    listing: int
    graphs = MAX_VERTICES  # the same for every class

    def check_n(self, n: int, use: str) -> None:
        _check(SizeLimitError, f"{self.name} {use}: n", n, self.least_n, getattr(self, use))

    def check_delta(self, n: int, delta: int) -> None:
        least = min(self.least_delta, n - 1)  # a tree on one vertex has degree 0
        _check(DeltaRangeError, f"{self.name} delta for n={n}", delta, least, n - 1)


RANGES = {
    "tree": ClassRange("tree", 1, 1, values=_CAPACITY + 1, listing=MAX_VERTICES),
    "unicyclic": ClassRange("unicyclic", 3, 2, values=_CAPACITY, listing=14),
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
    return Graph(g.n + r, tuple(edges))


def _grow(g: Graph, legs: Iterable[int]) -> Graph:
    """``g`` with a path on each of ``legs`` vertices attached at vertex 0."""
    for leg in legs:
        g = attach_path(g, 0, leg)
    return g


def tree_extremal(n: int, delta: int) -> Graph:
    """The unique maximum tree for delta >= ceil(n/2): a center (label 0)
    with 2*delta+1-n pendant vertices and n-delta-1 paths of length two."""
    _check_family("tree_extremal", GraphClassSpec(n, delta, "tree"), True)
    return _grow(graph_from_edges(1, []), [1] * (2 * delta + 1 - n) + [2] * (n - delta - 1))


def unicyclic_extremal(n: int, delta: int) -> Graph:
    """The unique maximum unicyclic graph for delta >= ceil((n+2)/2): a
    triangle vertex (label 0) with 2*delta-n-1 pendants and n-delta-1
    paths of length two."""
    _check_family("unicyclic_extremal", GraphClassSpec(n, delta, "unicyclic"), True)
    return _grow(cycle_graph(3), [1] * (2 * delta - n - 1) + [2] * (n - delta - 1))


def _leg_multisets(total: int, parts: int, minimum: int) -> Iterator[tuple[int, ...]]:
    """Nondecreasing tuples of ``parts`` integers >= minimum summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in _leg_multisets(total - first, parts - 1, first):
            yield (first,) + rest


def _by_code(graphs: Iterable[Graph]) -> list[Graph]:
    """The first of ``graphs`` in each isomorphism class, by canonical code."""
    out: dict[bytes, Graph] = {}
    for g in graphs:
        out.setdefault(canonical_code(g), g)
    return [out[code] for code in sorted(out)]


def spider_family(n: int, delta: int) -> list[Graph]:
    """All non-isomorphic trees made of ``delta`` paths of length >= 2
    sharing a center: the maximum family for delta <= floor((n-1)/2)."""
    _check_family("spider_family", GraphClassSpec(n, delta, "tree"), False)
    center = graph_from_edges(1, [])
    return _by_code(_grow(center, legs) for legs in _leg_multisets(n - 1, delta, 2))


def cycle_spider_family(n: int, delta: int) -> list[Graph]:
    """All non-isomorphic unicyclic graphs made of a cycle with ``delta - 2``
    paths of length >= 2 attached to one cycle vertex, over every cycle
    length: the maximum family for delta <= floor((n+1)/2).  For delta = 2
    this is just the n-cycle."""
    _check_family("cycle_spider_family", GraphClassSpec(n, delta, "unicyclic"), False)
    legs_needed = delta - 2
    return _by_code(
        _grow(cycle_graph(girth), legs)
        for girth in range(3, n - 2 * legs_needed + 1)
        for legs in _leg_multisets(n - girth, legs_needed, 2)
    )


def extremal_family(spec: GraphClassSpec) -> list[Graph]:
    """The maximum-index graphs for ``spec``: the single large-degree graph
    or, below the branch boundary, the spider family."""
    n, delta = spec.n, spec.delta
    large = is_large_delta(spec.graph_class, n, delta)
    if spec.graph_class == "tree":
        return [tree_extremal(n, delta)] if large else spider_family(n, delta)
    return [unicyclic_extremal(n, delta)] if large else cycle_spider_family(n, delta)
