"""Closed-form maximum values of the sum-connectivity index.

The index is sum_k c_k/sqrt(k), c_k counting the edges whose end degrees
add up to k, so each maximum is written once, as the edge types (sum,
count) of the extremal graphs of :mod:`sumconn.construct` on either side of
``is_large_delta``.  ``_value`` packs them as a profile of
:mod:`sumconn.indices`, where equal sums (d + 2 = 4 at d = 2) add by
themselves, and values it, to the n of ``construct.RANGES``: bounds are
exact values.  The top-two unicyclic ranking is the paper's deduction: the
n-cycle is the only unicyclic graph with d = 2, and the maximum falls as d
grows, so the runner-up is the maximum at d = 3.  ``degree_order_failures``
checks that fall exactly, at every n the values reach.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .construct import RANGES, TOP_TWO, TOP_TWO_DEGREES, GraphClassSpec, is_large_delta
from .indices import _PACKED_BITS, profile_value
from .radicals import RadicalValue


def _tree_edge_types(n: int, delta: int) -> tuple[tuple[int, int], ...]:
    """Large delta: a center with 2*delta+1-n pendants and n-delta-1 paths
    of length two.  Small delta: delta paths of length >= 2 at a center."""
    if is_large_delta("tree", n, delta):
        return ((delta + 1, 2 * delta - n + 1), (delta + 2, n - delta - 1), (3, n - delta - 1))
    return ((4, n - 1 - 2 * delta), (3, delta), (delta + 2, delta))


def _cycle_spider_edge_types(n: int, x: float) -> tuple[tuple[float, float], ...]:
    """A cycle with x-2 paths of length >= 2 at one vertex: the small-delta
    unicyclic maximum, with x relaxed to a real for the profile."""
    return ((3, x - 2), (x + 2, x), (4, n - 2 * x + 2))


def _unicyclic_edge_types(n: int, delta: int) -> tuple[tuple[int, int], ...]:
    """Large delta: a triangle vertex with 2*delta-n-1 pendants and
    n-delta-1 paths of length two (two triangle edges add delta+2, one 4)."""
    if is_large_delta("unicyclic", n, delta):
        twos = n - delta - 1
        return ((3, twos), (delta + 2, twos + 2), (delta + 1, 2 * delta - n - 1), (4, 1))
    return _cycle_spider_edge_types(n, delta)


def _value(edge_types: tuple[tuple[int, int], ...]) -> RadicalValue:
    """Exact sum of count/sqrt(sum) over edge types: their profile's value."""
    return profile_value(sum(c << (_PACKED_BITS * s) for s, c in edge_types))


def tree_max_bound(n: int, delta: int) -> RadicalValue:
    """Maximum sum-connectivity index over trees with n vertices and
    maximum degree delta.  ``GraphClassSpec`` checks the range."""
    GraphClassSpec(n, delta, "tree")
    return _value(_tree_edge_types(n, delta))


def unicyclic_max_bound(n: int, delta: int) -> RadicalValue:
    """Maximum sum-connectivity index over unicyclic graphs with n vertices
    and maximum degree delta.  ``GraphClassSpec`` checks the range."""
    GraphClassSpec(n, delta, "unicyclic")
    return _value(_unicyclic_edge_types(n, delta))


def degree_order_failures(graph_class: str) -> list[tuple[int, int]]:
    """Each (n, delta) at which M(n, delta) > M(n, delta + 1) fails, for
    2 <= delta <= n - 2 at every n of the class's ``values`` range, M being
    its closed-form maximum and the comparison exact: empty when the
    maximum falls strictly as the maximum degree grows, as the top-two
    ranking deduces.

    The check tests order alone.  A wrong edge type that keeps the order,
    such as the large-degree unicyclic type (4, 1) written (5, 1), passes
    it: the exhaustive reports catch such a change, this check does not.
    """
    bound = tree_max_bound if graph_class == "tree" else unicyclic_max_bound
    failures = []
    for n in range(3, RANGES[graph_class].values + 1):
        values = [bound(n, delta) for delta in range(2, n)]
        failures += [(n, d) for d, (a, b) in enumerate(zip(values, values[1:]), 2) if not a > b]
    return failures


def unicyclic_bound_profile(n: int, x: float) -> float:
    """Small-degree unicyclic bound with the maximum degree relaxed to a
    real x >= 2: (x-2)/sqrt(3) + x/sqrt(x+2) + (n-2x+2)/2.

    Strictly decreasing in x, which is what makes the n-cycle (x = 2) the
    overall maximum and the degree-3 family the runner-up.
    """
    if x < 2:
        raise ValueError(f"profile is defined for x >= 2, got {x}")
    total = 0.0  # a left fold in term order; sum() compensates on Python 3.12+
    for s, c in _cycle_spider_edge_types(n, x):
        total += c / math.sqrt(s)
    return total


class TopTwoBound(NamedTuple):
    """Closed-form top-two values of unicyclic graphs by sum-connectivity."""

    n: int
    first_value: RadicalValue
    second_value: RadicalValue


def unicyclic_top_two(n: int) -> TopTwoBound:
    """The two largest sum-connectivity values among n-vertex unicyclic
    graphs: the maxima at the degrees ``TOP_TWO_DEGREES``, 2 and 3."""
    TOP_TWO.check_n(n, "values")
    return TopTwoBound(n, *(unicyclic_max_bound(n, d) for d in TOP_TWO_DEGREES))
