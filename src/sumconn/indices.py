"""Sum-connectivity and product-connectivity (Randic) indices.

Both indices sum a reciprocal square root over the edges: of the endpoint
degree sum for the former, of the degree product for the latter.  Values
are exact ``RadicalValue`` numbers; call ``float()`` on them for a view.
Each index has a kernel that adds the edges' unit profiles (below) over
``Graph.degrees``, edge by edge, and reads no ``IndexKind`` member.

So an index is a function of the edge-type profile, the count c_s of the
edges with radicand s, written one way: the integer ``sum c_s << (8*s)``,
8 being the count width ``radicals._PACKED_BITS``.  No count exceeds the
edge count, and no profile has more than ``_CAPACITY`` = 255 edges
(graphs have at most 120; ``construct.RANGES`` stops bounds there), so
none carries and profiles add as count vectors.  A profile is
the histogram ``radicals`` packs one byte per radicand, and
``profile_value`` values it lazily: the value compares by a float
enclosure of its counts and is made exact, with equal values having equal
integer fields, only when its fields are first read.  So a profile that
loses every comparison, as most do in a ranking pass or a maximum,
never pays for an exact form.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

from .graphs import MAX_VERTICES, Graph
from .radicals import _PACKED_BITS, RadicalValue, packed_counts

_CAPACITY = (1 << _PACKED_BITS) - 1

# ``_UNIT[s]`` is the profile of one edge of radicand s, ``1 << (8*s)``, for
# every radicand a graph has: degrees are at most MAX_VERTICES - 1, so a
# product, the larger radicand, is at most its square.
_UNIT = [1 << (_PACKED_BITS * s) for s in range((MAX_VERTICES - 1) ** 2 + 1)]


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
    return RadicalValue.reciprocal_sqrt_sum({s: 1})


# ``{s: c_s}``: the nonzero counts of a packed profile, byte s being c_s.
profile_counts = packed_counts


def profile_value(profile: int) -> RadicalValue:
    """Exact ``sum c_s/sqrt(s)`` over the counts of a packed profile, made
    exact when first read: it compares by a float enclosure of the counts
    and builds its exact fields only when a comparison or its text reads
    them (``RadicalValue.reciprocal_sqrt_packed``)."""
    return RadicalValue.reciprocal_sqrt_packed(profile)


_memoized_value = lru_cache(maxsize=1 << 14)(profile_value)


def connectivity_index(g: Graph, kind: IndexKind) -> RadicalValue:
    return sum_connectivity(g) if kind is IndexKind.SUM else product_connectivity(g)


def sum_connectivity(g: Graph) -> RadicalValue:
    if not g.edges:
        raise EdgelessGraphError("graph has no edges")
    deg = g.degrees()
    profile = 0
    for u, v in g.edges:
        profile += _UNIT[deg[u] + deg[v]]
    return _memoized_value(profile)


def product_connectivity(g: Graph) -> RadicalValue:
    if not g.edges:
        raise EdgelessGraphError("graph has no edges")
    deg = g.degrees()
    profile = 0
    for u, v in g.edges:
        profile += _UNIT[deg[u] * deg[v]]
    return _memoized_value(profile)
