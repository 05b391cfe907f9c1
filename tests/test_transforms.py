import random
import re
from fractions import Fraction
from itertools import product

import pytest

from sumconn.canon import canonical_code
from sumconn.construct import attach_path
from sumconn.enumeration import enumerate_trees, enumerate_unicyclic
from sumconn.graphs import (
    VertexRangeError,
    cycle_graph,
    graph_from_edges,
    is_connected,
    max_degree,
    path_graph,
    star_graph,
)
from sumconn.indices import sum_connectivity
from sumconn.radicals import RadicalValue
from sumconn.transforms import (
    BaseTooSmallError,
    DegreeConditionError,
    NotNeighborError,
    NotPendantError,
    PathsNotDisjointError,
    TransformError,
    WrongAttachmentError,
    merge_pendant_paths,
    reattach_to_pendant,
)


_value = RadicalValue.reciprocal_sqrt_sum


def test_merge_star_into_path():
    g = star_graph(4)
    assert sum_connectivity(g) == _value({1: Fraction(3, 2)})
    merged = merge_pendant_paths(g, 0, 2, 3)
    assert canonical_code(merged) == canonical_code(path_graph(4))
    assert sum_connectivity(merged) == _value({1: Fraction(1, 2), 3: 2})
    assert sum_connectivity(merged) > sum_connectivity(g)


def test_merge_two_pendants_on_triangle():
    g = attach_path(attach_path(cycle_graph(3), 0, 1), 0, 1)
    assert sum_connectivity(g) == _value({5: 2, 6: 2, 1: Fraction(1, 2)})
    assert float(sum_connectivity(g)) == pytest.approx(2.21092, abs=5e-6)
    merged = merge_pendant_paths(g, 0, 3, 4)
    assert canonical_code(merged) == canonical_code(attach_path(cycle_graph(3), 0, 2))
    assert sum_connectivity(merged) == _value({5: 3, 3: 1, 1: Fraction(1, 2)})
    assert float(sum_connectivity(merged)) == pytest.approx(2.41899, abs=5e-6)


def test_merge_unit_paths_drop_center_degree():
    # a = b = 1: the center loses one neighbor
    g = star_graph(5)
    merged = merge_pendant_paths(g, 0, 3, 4)
    assert merged.degree(0) == g.degree(0) - 1
    assert merged.n == g.n and merged.m == g.m


def test_merge_counts_and_degree_monotonicity():
    g = attach_path(attach_path(attach_path(cycle_graph(4), 1, 2), 1, 3), 2, 1)
    merged = merge_pendant_paths(g, 1, 5, 8)
    assert (merged.n, merged.m) == (g.n, g.m)
    assert max_degree(merged) <= max_degree(g)
    assert sum_connectivity(merged) > sum_connectivity(g)


def _refuses(rewrite, g, witnesses, error, message):
    """``rewrite(g, *witnesses)`` raises exactly ``error`` with exactly ``message``."""
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        rewrite(g, *witnesses)
    assert info.type is error


def test_merge_precondition_errors():
    # Every precondition a merge can fail, in the order it checks them.
    star = star_graph(4)  # center 0, pendants 1..3
    star_and_isolated = graph_from_edges(5, star.edges)  # vertex 4 isolated
    g = attach_path(star, 0, 2)  # and path 4-5 at the center
    two_hubs = graph_from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    for graph, witnesses, error, message in [
        (star, (4, 1, 2), VertexRangeError, "vertex 4 out of range for n=4"),
        (star, (0, 1, -1), VertexRangeError, "vertex -1 out of range for n=4"),
        (star, (0, 2, 2), PathsNotDisjointError, "the two path ends coincide"),
        (star_and_isolated, (0, 1, 2), TransformError, "graph must be connected"),
        (
            path_graph(3), (1, 0, 2), BaseTooSmallError,  # remainder would be one vertex
            "vertex 1 has degree 2; the remainder would not keep a second vertex",
        ),
        (g, (0, 4, 1), NotPendantError, "vertex 4 has degree 2, expected 1"),  # 4 is inside a path
        (g, (0, 1, 4), NotPendantError, "vertex 4 has degree 2, expected 1"),
        (two_hubs, (0, 4, 2), WrongAttachmentError, "path ending at 4 attaches to 1, not 0"),
        (two_hubs, (0, 2, 4), WrongAttachmentError, "path ending at 4 attaches to 1, not 0"),
        # Disjoint paths and a two-vertex remainder follow from these, and
        # are not checked (the module docstring of sumconn.transforms).
        # Two checks fail, the ends coincide and the graph is disconnected:
        # the first one checked is the one reported.
        (star_and_isolated, (0, 1, 1), PathsNotDisjointError, "the two path ends coincide"),
    ]:
        _refuses(merge_pendant_paths, graph, witnesses, error, message)


def test_merge_every_witness_triple_on_small_trees_and_unicyclic_graphs():
    # Every tree and unicyclic graph with 3 <= n <= 8 (smaller graphs have
    # no vertex of degree 3) and every (u, p1, p2) in range: the merges the
    # preconditions admit keep a valid, connected graph of the same order
    # and size, with a larger index, although the disjointness and the
    # remainder are not checked.
    accepted = 0
    for n in range(3, 9):
        for g in [*enumerate_trees(n), *enumerate_unicyclic(n)]:
            before = sum_connectivity(g)
            for u, p1, p2 in product(range(n), repeat=3):
                try:
                    merged = merge_pendant_paths(g, u, p1, p2)
                except TransformError:
                    continue
                accepted += 1
                assert merged == graph_from_edges(merged.n, merged.edges)
                assert (merged.n, merged.m) == (g.n, g.m) and is_connected(merged)
                assert sum_connectivity(merged) > before
    assert accepted == 772


def test_reattach_triangle_pendant_to_square():
    h = unicyclic = attach_path(cycle_graph(3), 0, 1)
    out = reattach_to_pendant(h, 0, 2, 3)
    assert canonical_code(out) == canonical_code(cycle_graph(4))
    assert sum_connectivity(out) == _value({1: 2})
    assert sum_connectivity(out) > sum_connectivity(h)


def test_reattach_square_pendant_to_pentagon():
    h = attach_path(cycle_graph(4), 0, 1)
    assert sum_connectivity(h) == _value({1: Fraction(3, 2), 5: 2})
    out = reattach_to_pendant(h, 0, 3, 4)
    assert canonical_code(out) == canonical_code(cycle_graph(5))
    assert sum_connectivity(out) == _value({1: Fraction(5, 2)})


def test_reattach_longer_path():
    h = attach_path(cycle_graph(5), 2, 3)
    out = reattach_to_pendant(h, 2, 3, 7)
    assert canonical_code(out) == canonical_code(cycle_graph(8))
    assert (out.n, out.m) == (h.n, h.m)


def test_reattach_degree_condition_refused():
    # both base neighbors of u have degree 5
    edges = [(0, 1), (0, 2), (1, 2)]
    edges += [(1, v) for v in range(3, 6)]
    edges += [(2, v) for v in range(6, 9)]
    base = graph_from_edges(9, edges)
    h = attach_path(base, 0, 1)
    assert h.degree(1) == h.degree(2) == 5
    _refuses(
        reattach_to_pendant, h, (0, 2, 9), DegreeConditionError,
        "both base neighbors of 0 have degree > 4 (5 and 5)",
    )


def test_reattach_precondition_errors():
    # Every precondition a reattachment can fail, in the order it checks them.
    h = attach_path(cycle_graph(3), 0, 1)  # pendant 3 at triangle vertex 0
    h_and_isolated = graph_from_edges(5, h.edges)  # vertex 4 isolated
    h2 = attach_path(attach_path(cycle_graph(4), 0, 2), 2, 1)  # path 4-5 at 0, pendant 6 at 2
    for graph, witnesses, error, message in [
        (h, (0, 2, 4), VertexRangeError, "vertex 4 out of range for n=4"),
        (h, (0, -1, 3), VertexRangeError, "vertex -1 out of range for n=4"),
        (h_and_isolated, (0, 2, 3), TransformError, "graph must be connected"),
        (h, (1, 2, 3), DegreeConditionError, "vertex 1 has degree 2, expected 3"),
        (h2, (0, 2, 5), NotNeighborError, "2 is not a neighbor of 0"),
        (h, (0, 1, 2), NotPendantError, "vertex 2 has degree 2, expected 1"),
        (h2, (0, 1, 6), WrongAttachmentError, "pendant path from 6 attaches to 2, not 0"),
        (h, (0, 3, 3), NotNeighborError, "3 lies on the attached path, not in the base graph"),
        # the last, the base neighbours' degrees: test_reattach_degree_condition_refused
        # Two checks fail, the graph is disconnected and vertex 1 has degree
        # 2: the first one checked is the one reported.
        (h_and_isolated, (1, 2, 3), TransformError, "graph must be connected"),
    ]:
        _refuses(reattach_to_pendant, graph, witnesses, error, message)


def test_randomized_strict_increase():
    rng = random.Random(7)
    for _ in range(150):
        base_n = rng.randint(2, 8)
        base = graph_from_edges(base_n, [(rng.randrange(v), v) for v in range(1, base_n)])
        u = rng.randrange(base_n)
        a = rng.randint(1, 3)
        b = rng.randint(1, 3)
        g = attach_path(attach_path(base, u, a), u, b)
        merged = merge_pendant_paths(g, u, base_n + a - 1, base_n + a + b - 1)
        assert sum_connectivity(merged) > sum_connectivity(g)
        assert (merged.n, merged.m) == (g.n, g.m)


def test_rewrites_build_normalized_graphs():
    # attach_path and both rewrites skip graph_from_edges validation; each
    # result must equal the graph it would have built from the same edges.
    rng = random.Random(2012)
    for _ in range(300):
        base_n = rng.randint(3, 8)
        edges = {(rng.randrange(v), v) for v in range(1, base_n)}
        edges |= {tuple(sorted(rng.sample(range(base_n), 2))) for _ in range(rng.randint(0, 2))}
        base = graph_from_edges(base_n, edges)
        u = rng.randrange(base_n)
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        g = attach_path(attach_path(base, u, a), u, b)
        merged = merge_pendant_paths(g, u, base_n + a - 1, base_n + a + b - 1)
        results = [g, merged]
        for v in range(base_n):
            if base.degree(v) == 2:
                h = attach_path(base, v, a)
                for u2 in base.adjacency[v]:
                    try:
                        results.append(reattach_to_pendant(h, v, u2, base_n + a - 1))
                    except DegreeConditionError:
                        pass
        for r in results:
            assert r == graph_from_edges(r.n, r.edges)
