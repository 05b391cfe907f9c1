"""Sum-connectivity and product-connectivity (Randic) indices.

Both indices sum a reciprocal square root over the edges: of the endpoint
degree sum for the former, of the degree product for the latter.  Values
are exact ``RadicalValue`` numbers; call ``float()`` on them for a view.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum

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
        counts = Counter([deg[u] + deg[v] for u, v in g.edges])
    else:
        counts = Counter([deg[u] * deg[v] for u, v in g.edges])
    return RadicalValue.reciprocal_sqrt_sum(counts)


def sum_connectivity(g: Graph) -> RadicalValue:
    return connectivity_index(g, IndexKind.SUM)


def product_connectivity(g: Graph) -> RadicalValue:
    return connectivity_index(g, IndexKind.PRODUCT)
