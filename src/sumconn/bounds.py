"""Closed-form maximum values of the sum-connectivity index.

Each bound has two branches over the maximum degree d, matching the two
extremal regimes in :mod:`sumconn.construct`.  Bounds are exact
``RadicalValue`` numbers so that "bound equals brute-force maximum" can be
asserted without tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .construct import GraphClassSpec, cycle_spider_family, is_large_delta, unicyclic_extremal
from .graphs import Graph, cycle_graph
from .radicals import RadicalValue


def _rsqrt(s: int) -> RadicalValue:
    return RadicalValue.reciprocal_sqrt(s)


def tree_max_bound(n: int, delta: int) -> RadicalValue:
    """Maximum sum-connectivity index over trees with n vertices and
    maximum degree delta.  ``GraphClassSpec`` checks the range."""
    GraphClassSpec(n, delta, "tree")
    if is_large_delta("tree", n, delta):
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


def unicyclic_max_bound(n: int, delta: int) -> RadicalValue:
    """Maximum sum-connectivity index over unicyclic graphs with n vertices
    and maximum degree delta.  ``GraphClassSpec`` checks the range."""
    GraphClassSpec(n, delta, "unicyclic")
    if is_large_delta("unicyclic", n, delta):
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


def unicyclic_bound_profile(n: int, x: float) -> float:
    """Small-degree unicyclic bound with the maximum degree relaxed to a
    real x >= 2: (x-2)/sqrt(3) + x/sqrt(x+2) + (n-2x+2)/2.

    Strictly decreasing in x, which is what makes the n-cycle (x = 2) the
    overall maximum and the degree-3 family the runner-up.
    """
    if x < 2:
        raise ValueError(f"profile is defined for x >= 2, got {x}")
    return (x - 2) / math.sqrt(3.0) + x / math.sqrt(x + 2.0) + (n - 2.0 * x + 2.0) / 2.0


@dataclass(frozen=True)
class TopTwoBound:
    """Closed-form top-two ranking of unicyclic graphs by sum-connectivity."""

    n: int
    first_value: RadicalValue
    first_graphs: tuple[Graph, ...]
    second_value: RadicalValue
    second_graphs: tuple[Graph, ...]


def unicyclic_top_two(n: int) -> TopTwoBound:
    """The two largest sum-connectivity values among n-vertex unicyclic
    graphs with their graphs: the n-cycle (value n/2), then the triangle
    with a pendant at n = 4 or the cycles with one path of length >= 2
    attached (value (n-4)/2 + 1/sqrt(3) + 3/sqrt(5)) for n >= 5."""
    if n < 4:
        raise ValueError(f"top-two ranking needs n >= 4, got {n}")
    first_value = RadicalValue.from_rational(Fraction(n, 2))
    if n == 4:
        second_value = RadicalValue.from_rational(1) + _rsqrt(5) * 2
        second_graphs: tuple[Graph, ...] = (unicyclic_extremal(4, 3),)
    else:
        second_value = (
            RadicalValue.from_rational(Fraction(n - 4, 2)) + _rsqrt(3) + _rsqrt(5) * 3
        )
        second_graphs = tuple(cycle_spider_family(n, 3))
    return TopTwoBound(
        n=n,
        first_value=first_value,
        first_graphs=(cycle_graph(n),),
        second_value=second_value,
        second_graphs=second_graphs,
    )
