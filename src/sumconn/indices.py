"""Sum-connectivity and product-connectivity (Randic) indices.

Both indices sum a reciprocal square root over the edges: of the endpoint
degree sum for the former, of the degree product for the latter.  Values
are exact ``RadicalValue`` numbers; call ``float()`` on them for a view.

A profile, the sorted radicands of a graph's edges, is valued once
(``_profile_value``).  A value is its own exact key: equal values have
equal integer fields (see ``radicals``), so values group in dicts and
sets as they are, and ``verify`` ranks profiles by them.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from functools import lru_cache

from .graphs import Graph
from .radicals import RadicalValue


class IndexKind(Enum):
    SUM = "sum"
    PRODUCT = "product"


class EdgelessGraphError(ValueError):
    """Connectivity indices are undefined on graphs without edges."""


def edge_contribution(d_u: int, d_v: int, kind: IndexKind) -> RadicalValue:
    """Exact contribution of one edge with endpoint degrees ``d_u``, ``d_v``."""
    if d_u < 1 or d_v < 1:
        raise ValueError("endpoint degrees must be at least 1")
    s = d_u + d_v if kind is IndexKind.SUM else d_u * d_v
    return RadicalValue.reciprocal_sqrt(s)


def connectivity_index(g: Graph, kind: IndexKind) -> RadicalValue:
    if g.m == 0:
        raise EdgelessGraphError("graph has no edges")
    deg = g.degrees()
    if kind is IndexKind.SUM:
        profile = sorted([deg[u] + deg[v] for u, v in g.edges])
    else:
        profile = sorted([deg[u] * deg[v] for u, v in g.edges])
    return _profile_value(tuple(profile))


@lru_cache(maxsize=1 << 14)
def _profile_value(profile: tuple[int, ...]) -> RadicalValue:
    """Exact ``sum 1/sqrt(s)`` over a sorted tuple of per-edge radicands.

    The value depends on the multiset alone, so graphs that share an
    edge-type profile share one (immutable) value, whichever index kind
    produced the radicands.
    """
    return RadicalValue.reciprocal_sqrt_sum(Counter(profile))


def sum_connectivity(g: Graph) -> RadicalValue:
    return connectivity_index(g, IndexKind.SUM)


def product_connectivity(g: Graph) -> RadicalValue:
    return connectivity_index(g, IndexKind.PRODUCT)
