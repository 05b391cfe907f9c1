"""Sum-connectivity and product-connectivity (Randic) indices.

Both indices sum a reciprocal square root over the edges: of the endpoint
degree sum for the former, of the degree product for the latter.  Values
are exact ``RadicalValue`` numbers; call ``float()`` on them for a view.

A profile, the sorted radicands of a graph's edges, is valued once
(``_profile_value``).  Ranking many profiles needs no value at all:
``_ValueKey`` stands in for a profile's value with integers and one
float.  Write each radicand as s = a*a*b with b squarefree; then
sum c_s/sqrt(s) = sum_b (sum_{s -> b} c_s/a_s) / sqrt(b), and the
1/sqrt(b) over distinct squarefree b are linearly independent over the
rationals, so two profiles have equal values exactly when these
coordinates agree.  Scaled by L, the lcm of every a the key's radicands
can have, the coordinates are the integers w_b = sum c_s*(L/a_s): equal
keys mean equal values, and conversely.  Keys are ordered through a
float enclosure of sum w_b/sqrt(b), the value times L, that carries the
error bound of ``radicals._enclosure`` (see ``_ValueKey.__init__``), so
``radicals._decide`` applies as it stands; an undecided comparison
values both profiles exactly.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from functools import lru_cache
from math import fsum, lcm, sqrt

from .graphs import MAX_VERTICES, Graph
from .radicals import RadicalValue, _decide, squarefree_decompose


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


# Largest radicand a value key takes: every end-degree sum of a graph on at
# most MAX_VERTICES vertices is below it.
_KEY_MAX_RADICAND = 2 * MAX_VERTICES


@lru_cache(maxsize=None)
def _key_weights() -> dict[int, tuple[int, int]]:
    """``s -> (b, L // a)`` for each radicand ``s = a*a*b`` (b squarefree)
    up to ``_KEY_MAX_RADICAND``, L the lcm of those a's.  Built on first
    use."""
    parts = {s: squarefree_decompose(s) for s in range(1, _KEY_MAX_RADICAND + 1)}
    scale = lcm(*(a for a, _ in parts.values()))
    return {s: (b, scale // a) for s, (a, b) in parts.items()}


class _ValueKey:
    """Exact integer stand-in for the value of a profile, the sorted
    radicands (each at most ``_KEY_MAX_RADICAND``) of ``_profile_value``.

    ``coords`` holds the pairs ``(b, w_b)`` of the module docstring,
    sorted by b; keys are equal, and hash alike, exactly when their
    profiles' values are equal.  ``<`` and ``>`` order keys as their
    values, deciding through ``radicals._decide`` on the enclosures kept
    in ``_sum`` and valuing both ``radicands`` through ``_profile_value``
    only when it is undecided.
    """

    __slots__ = ("coords", "radicands", "_sum")

    def __init__(self, radicands: tuple[int, ...]):
        """Key the profile ``radicands``.

        Enclosure.  Every term w_b/sqrt(b) is positive, so the enclosure
        ``(S, A)`` of ``radicals._enclosure`` has A = S, and ``_sum`` is
        S = fsum(f_b) for f_b = w_b / sqrt(b) in doubles.  Each w_b is at
        most L = 60 times the number of radicands, far below 2**53, so it
        converts exactly; sqrt(b) and the quotient are correctly
        rounded, so f_b = x_b*(1+d1)/(1+d2) with |d1|, |d2| <= u and x_b
        the exact w_b/sqrt(b), and |f_b - x_b| <= 2u(1+u)/(1-u)**2 * f_b
        <= 3.01u*f_b.  f_b lies in [2**-3, 2**53], so nothing is
        subnormal or overflows, and fsum, correctly rounded, gives
        |S - sum x_b| <= 3.01u*sum f_b + u*sum f_b <= 4.1u*S: the bound
        ``_decide`` assumes of each side.
        """
        weights = _key_weights()
        coords: dict[int, int] = {}
        for s in radicands:
            b, w = weights[s]
            coords[b] = coords.get(b, 0) + w
        self.coords = tuple(sorted(coords.items()))
        self.radicands = radicands
        self._sum = fsum([w / sqrt(b) for b, w in self.coords])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _ValueKey):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def _cmp(self, other: "_ValueKey") -> int:
        s, t = self._sum, other._sum
        return _decide(s, s, t, t) or (
            0
            if self.coords == other.coords
            else (_profile_value(self.radicands) - _profile_value(other.radicands)).sign()
        )

    def __lt__(self, other: "_ValueKey") -> bool:
        return self._cmp(other) < 0

    def __gt__(self, other: "_ValueKey") -> bool:
        return self._cmp(other) > 0


def sum_connectivity(g: Graph) -> RadicalValue:
    return connectivity_index(g, IndexKind.SUM)


def product_connectivity(g: Graph) -> RadicalValue:
    return connectivity_index(g, IndexKind.PRODUCT)
