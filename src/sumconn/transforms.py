"""Index-increasing graph rewrites used in the extremal arguments.

Both transforms take explicit witness vertices and refuse anything that
does not match their preconditions; searching for applicable sites is the
caller's job.  Vertex and edge counts are always preserved.
"""

from __future__ import annotations

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


def _pendant_path(g: Graph, pendant: int) -> tuple[int, list[int]]:
    """Walk inward from a pendant vertex through degree-2 vertices.

    Returns (attachment vertex, path vertices ordered pendant-first).  The
    attachment is the first vertex of degree other than 2.
    """
    if g.degree(pendant) != 1:
        raise NotPendantError(f"vertex {pendant} has degree {g.degree(pendant)}, expected 1")
    path = [pendant]
    prev, cur = pendant, g.adjacency[pendant][0]
    while g.degree(cur) == 2:
        path.append(cur)
        nxt = next(w for w in g.adjacency[cur] if w != prev)
        prev, cur = cur, nxt
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
    # two attached paths plus at least one neighbor inside the remainder
    if g.degree(u) < 3:
        raise BaseTooSmallError(
            f"vertex {u} has degree {g.degree(u)}; the remainder would not "
            "keep a second vertex"
        )
    attach1, path1 = _pendant_path(g, p1)
    attach2, path2 = _pendant_path(g, p2)
    if attach1 != u:
        raise WrongAttachmentError(f"path ending at {p1} attaches to {attach1}, not {u}")
    if attach2 != u:
        raise WrongAttachmentError(f"path ending at {p2} attaches to {attach2}, not {u}")
    if set(path1) & set(path2):
        raise PathsNotDisjointError("pendant paths share vertices")
    if g.n - len(path1) - len(path2) < 2:
        raise BaseTooSmallError("remainder must keep at least two vertices")
    removed = set(path1) | set(path2)
    edges = [e for e in g.edges if e[0] not in removed and e[1] not in removed]
    # path1 reversed runs u-outward and ends at p1; path2 as walked
    # continues from p1 out to its own attachment-side vertex.
    chain = [u] + list(reversed(path1)) + path2
    edges.extend((min(a, b), max(a, b)) for a, b in zip(chain, chain[1:]))
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
    if h.degree(u) != 3:
        raise DegreeConditionError(f"vertex {u} has degree {h.degree(u)}, expected 3")
    if u2 not in h.adjacency[u]:
        raise NotNeighborError(f"{u2} is not a neighbor of {u}")
    if h.degree(u_prime) != 1:
        raise NotPendantError(f"vertex {u_prime} has degree {h.degree(u_prime)}, expected 1")
    attach, path = _pendant_path(h, u_prime)
    if attach != u:
        raise WrongAttachmentError(f"pendant path from {u_prime} attaches to {attach}, not {u}")
    path_start = path[-1]
    if u2 == path_start:
        raise NotNeighborError(f"{u2} lies on the attached path, not in the base graph")
    u1 = next(w for w in h.adjacency[u] if w not in (u2, path_start))
    if min(h.degree(u1), h.degree(u2)) > 4:
        raise DegreeConditionError(
            f"both base neighbors of {u} have degree > 4 "
            f"({h.degree(u1)} and {h.degree(u2)})"
        )
    edges = [e for e in h.edges if e != (min(u, u2), max(u, u2))]
    edges.append((min(u_prime, u2), max(u_prime, u2)))
    edges.sort()
    # Trusted build: u2 is off the path (only path_start touches u), so it is
    # neither u_prime nor u_prime's one neighbour: no loop, no repeat.
    return Graph(h.n, tuple(edges))
