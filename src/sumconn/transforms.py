"""Index-increasing graph rewrites used in the extremal arguments.

Both transforms take explicit witness vertices and refuse anything that
does not match their preconditions; searching for applicable sites is the
caller's job.  Vertex and edge counts are always preserved.  Each checks
its preconditions in this order and raises at the first that fails:

``merge_pendant_paths(g, u, p1, p2)``

1. ``u``, ``p1``, ``p2`` in range (``VertexRangeError``);
2. ``p1 != p2`` (``PathsNotDisjointError``);
3. ``g`` connected (``TransformError``);
4. ``deg(u) >= 3`` (``BaseTooSmallError``);
5. ``p1``, then ``p2``, has degree 1 (``NotPendantError``);
6. the path from ``p1``, then from ``p2``, attaches at ``u``
   (``WrongAttachmentError``).

Steps 1-6 imply that the two paths are disjoint and leave at least two
vertices, so neither is checked.  A walk from a pendant stops at the first
vertex of degree other than 2, so a path that stops at ``u``, of degree
>= 3, is its pendant's whole component among the vertices of degree <= 2.
Two paths that shared a vertex would be one component holding both
pendants, and the walk from ``p1`` would have stopped at ``p2``, not at
``u``.  And ``u`` has one neighbour on each path and degree >= 3, so it
keeps a neighbour off both: the remainder has two vertices.

``reattach_to_pendant(h, u, u2, u_prime)``

1. ``u``, ``u2``, ``u_prime`` in range (``VertexRangeError``);
2. ``h`` connected (``TransformError``);
3. ``deg(u) == 3`` (``DegreeConditionError``);
4. ``u2`` adjacent to ``u`` (``NotNeighborError``);
5. ``u_prime`` has degree 1 (``NotPendantError``);
6. its path attaches at ``u`` (``WrongAttachmentError``);
7. ``u2`` is not the path's vertex next to ``u`` (``NotNeighborError``);
8. ``u``'s other base neighbour ``u1`` or ``u2`` has degree at most 4
   (``DegreeConditionError``).
"""

from __future__ import annotations

from bisect import insort

from .graphs import Graph, VertexRangeError, is_connected


class TransformError(ValueError):
    """Base class for rewrite precondition violations."""


class NotPendantError(TransformError):
    pass


class WrongAttachmentError(TransformError):
    """A pendant path does not terminate at the named vertex."""


class PathsNotDisjointError(TransformError):
    pass


class BaseTooSmallError(TransformError):
    """The remainder of the graph is too small for the rewrite."""


class NotNeighborError(TransformError):
    pass


class DegreeConditionError(TransformError):
    pass


def _check_vertex(g: Graph, v: int) -> None:
    if not 0 <= v < g.n:
        raise VertexRangeError(f"vertex {v} out of range for n={g.n}")


def _pendant_path(adj: tuple[tuple[int, ...], ...], pendant: int) -> tuple[int, list[int]]:
    """Walk inward from a pendant vertex through degree-2 vertices.

    Returns (attachment vertex, path vertices ordered pendant-first).  The
    attachment is the first vertex of degree other than 2.
    """
    row = adj[pendant]
    if len(row) != 1:
        raise NotPendantError(f"vertex {pendant} has degree {len(row)}, expected 1")
    path = [pendant]
    prev, (cur,) = pendant, row
    row = adj[cur]
    while len(row) == 2:
        path.append(cur)
        a, b = row
        prev, cur = cur, b if a == prev else a
        row = adj[cur]
    return cur, path


def merge_pendant_paths(g: Graph, u: int, p1: int, p2: int) -> Graph:
    """Replace two pendant paths at ``u`` (ends ``p1``, ``p2``) by one
    pendant path of their combined length.

    Strictly increases the sum-connectivity index.  The rest of the graph
    must keep at least two vertices (``u`` included).
    """
    for v in (u, p1, p2):
        _check_vertex(g, v)
    if p1 == p2:
        raise PathsNotDisjointError("the two path ends coincide")
    if not is_connected(g):
        raise TransformError("graph must be connected")
    adj = g.adjacency
    # two attached paths plus at least one neighbor inside the remainder
    if len(adj[u]) < 3:
        raise BaseTooSmallError(
            f"vertex {u} has degree {len(adj[u])}; the remainder would not "
            "keep a second vertex"
        )
    attach1, path1 = _pendant_path(adj, p1)
    attach2, path2 = _pendant_path(adj, p2)
    if attach1 != u:
        raise WrongAttachmentError(f"path ending at {p1} attaches to {attach1}, not {u}")
    if attach2 != u:
        raise WrongAttachmentError(f"path ending at {p2} attaches to {attach2}, not {u}")
    removed = {*path1, *path2}
    edges = [e for e in g.edges if e[0] not in removed and e[1] not in removed]
    # path1 reversed runs u-outward and ends at p1; path2 as walked
    # continues from p1 out to its own attachment-side vertex.
    chain = [u, *reversed(path1), *path2]
    edges += [(a, b) if a < b else (b, a) for a, b in zip(chain, chain[1:])]
    edges.sort()
    # Trusted build: the chain's vertices are distinct (u has degree >= 3, so it
    # is on neither disjoint path) and each of its edges touches a removed vertex.
    return Graph(g.n, tuple(edges))


def reattach_to_pendant(h: Graph, u: int, u2: int, u_prime: int) -> Graph:
    """Slide one base edge of a degree-3 vertex to the tip of its pendant path.

    ``u`` must have degree 3: two base neighbors plus an attached pendant
    path whose far end is ``u_prime``.  The edge ``u u2`` is replaced by
    ``u_prime u2``; this strictly increases the sum-connectivity index
    provided the smaller base-neighbor degree is at most 4.
    """
    for v in (u, u2, u_prime):
        _check_vertex(h, v)
    if not is_connected(h):
        raise TransformError("graph must be connected")
    adj = h.adjacency
    row = adj[u]
    if len(row) != 3:
        raise DegreeConditionError(f"vertex {u} has degree {len(row)}, expected 3")
    if u2 not in row:
        raise NotNeighborError(f"{u2} is not a neighbor of {u}")
    attach, path = _pendant_path(adj, u_prime)
    if attach != u:
        raise WrongAttachmentError(f"pendant path from {u_prime} attaches to {attach}, not {u}")
    path_start = path[-1]
    if u2 == path_start:
        raise NotNeighborError(f"{u2} lies on the attached path, not in the base graph")
    u1 = sum(row) - u2 - path_start  # row holds u1, u2 and path_start, distinct
    d1, d2 = len(adj[u1]), len(adj[u2])
    if d1 > 4 and d2 > 4:
        raise DegreeConditionError(
            f"both base neighbors of {u} have degree > 4 ({d1} and {d2})"
        )
    edges = list(h.edges)
    edges.remove((u, u2) if u < u2 else (u2, u))
    insort(edges, (u_prime, u2) if u_prime < u2 else (u2, u_prime))
    # Trusted build: u2 is off the path (only path_start touches u), so it is
    # neither u_prime nor u_prime's one neighbour: no loop, no repeat.
    return Graph(h.n, tuple(edges))
