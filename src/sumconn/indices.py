"""Sum-connectivity and product-connectivity (Randic) indices.

Both indices sum a reciprocal square root over the edges: of the endpoint
degree sum for the former, of the degree product for the latter.  Values
are exact ``RadicalValue`` numbers; call ``float()`` on them for a view.

So an index is a function of the edge-type profile, the count c_s of the
edges with radicand s, written one way: the integer ``sum c_s << (8*s)``.
No count exceeds the edge count, and no profile has more than ``_CAPACITY``
= 255 edges (graphs have at most 120; ``construct.RANGES`` stops bounds
there), so none carries and profiles add as count vectors.  A value is its
own exact key: equal values have equal integer fields.
"""

from __future__ import annotations

import operator
from enum import Enum
from functools import lru_cache

from .graphs import MAX_VERTICES, Graph
from .radicals import RadicalValue

_PROFILE_BITS = 8
_CAPACITY = (1 << _PROFILE_BITS) - 1

# ``_UNIT[s]`` is the profile of one edge of radicand s, ``1 << (8*s)``, for
# every radicand a graph has: degrees are at most MAX_VERTICES - 1, so a
# product, the larger radicand, is at most its square.
_UNIT = [1 << (_PROFILE_BITS * s) for s in range((MAX_VERTICES - 1) ** 2 + 1)]


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


def profile_counts(profile: int) -> dict[int, int]:
    """``{s: c_s}``: the nonzero counts of a packed profile, byte s being c_s."""
    packed = profile.to_bytes((profile.bit_length() + 7) // 8, "little")
    return {s: c for s, c in enumerate(packed) if c}


def profile_value(profile: int) -> RadicalValue:
    """Exact ``sum c_s/sqrt(s)`` over the counts of a packed profile."""
    return RadicalValue.reciprocal_sqrt_sum(profile_counts(profile))


_memoized_value = lru_cache(maxsize=1 << 14)(profile_value)


def connectivity_index(g: Graph, kind: IndexKind) -> RadicalValue:
    if g.m == 0:
        raise EdgelessGraphError("graph has no edges")
    deg = g.degrees()
    radicand = operator.add if kind is IndexKind.SUM else operator.mul
    profile = sum([_UNIT[radicand(deg[u], deg[v])] for u, v in g.edges])
    return _memoized_value(profile)


def sum_connectivity(g: Graph) -> RadicalValue:
    return connectivity_index(g, IndexKind.SUM)


def product_connectivity(g: Graph) -> RadicalValue:
    return connectivity_index(g, IndexKind.PRODUCT)
