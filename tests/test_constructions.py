import hashlib
import math
from fractions import Fraction

import pytest

from sumconn.canon import canonical_code
from sumconn.construct import (
    DeltaRangeError,
    GraphClassSpec,
    attach_path,
    attach_paths,
    cycle_spider_family,
    extremal_family,
    is_large_delta,
    spider_family,
    tree_extremal,
    unicyclic_extremal,
)
from sumconn.graph6 import emit_graph6
from sumconn.graphs import (
    SizeLimitError,
    VertexRangeError,
    cycle_graph,
    graph_from_edges,
    is_tree,
    is_unicyclic,
    max_degree,
    path_graph,
    star_graph,
)
from sumconn.indices import sum_connectivity
from sumconn.radicals import RadicalValue


def _iso(a, b) -> bool:
    return canonical_code(a) == canonical_code(b)


def test_attach_path():
    u43 = attach_path(cycle_graph(3), 0, 1)
    assert is_unicyclic(u43) and max_degree(u43) == 3
    assert _iso(u43, unicyclic_extremal(4, 3))
    assert _iso(attach_path(path_graph(2), 0, 2), path_graph(4))
    g = attach_path(cycle_graph(5), 0, 2)
    assert g.n == 7 and is_unicyclic(g) and max_degree(g) == 3
    # new vertices hang outward from the attachment point
    assert (0, 5) in g.edges and (5, 6) in g.edges
    with pytest.raises(VertexRangeError):
        attach_path(cycle_graph(3), 5, 1)
    with pytest.raises(ValueError):
        attach_path(cycle_graph(3), 0, 0)
    with pytest.raises(SizeLimitError):
        attach_path(cycle_graph(14), 0, 3)


def test_attach_paths_is_attach_path_once_per_length():
    # One build gives the graph of one attach_path call per length, in
    # order, labels included, and refuses what one of those calls would.
    for g in (path_graph(2), cycle_graph(5), star_graph(4)):
        for u in range(g.n):
            for lengths in [(), (1,), (2, 1), (1, 3, 2)]:
                expected = g
                for r in lengths:
                    expected = attach_path(expected, u, r)
                assert attach_paths(g, u, lengths) == expected
    with pytest.raises(VertexRangeError, match="^vertex 3 out of range for n=3$"):
        attach_paths(cycle_graph(3), 3, (1, 1))
    with pytest.raises(ValueError, match="^path length must be at least 1, got 0$"):
        attach_paths(cycle_graph(3), 0, (2, 0))
    with pytest.raises(SizeLimitError, match="^at most 16 vertices supported, got 17$"):
        attach_paths(cycle_graph(14), 0, (1, 2))


def test_tree_extremal():
    assert _iso(tree_extremal(4, 3), star_graph(4))
    assert _iso(tree_extremal(4, 2), path_graph(4))
    t74 = tree_extremal(7, 4)
    assert is_tree(t74) and max_degree(t74) == 4 and t74.degree(0) == 4
    assert sum_connectivity(t74) == RadicalValue.reciprocal_sqrt_sum({5: 2, 6: 2, 3: 2})
    for bad in ((7, 3), (7, 7), (6, 2)):
        with pytest.raises(DeltaRangeError):
            tree_extremal(*bad)


def test_unicyclic_extremal():
    u43 = unicyclic_extremal(4, 3)
    assert sum_connectivity(u43) == RadicalValue.reciprocal_sqrt_sum({1: 1, 5: 2})
    u54 = unicyclic_extremal(5, 4)
    assert u54.degree(0) == 4 and u54.m == 5  # triangle plus two pendants
    u75 = unicyclic_extremal(7, 5)
    assert is_unicyclic(u75) and max_degree(u75) == 5
    expected = RadicalValue.reciprocal_sqrt_sum({3: 1, 7: 3, 6: 2, 1: Fraction(1, 2)})
    assert sum_connectivity(u75) == expected
    for bad in ((7, 3), (7, 4), (4, 2)):
        with pytest.raises(DeltaRangeError):
            unicyclic_extremal(*bad)


def test_spider_family():
    fam = spider_family(7, 3)
    assert len(fam) == 1
    assert max_degree(fam[0]) == 3 and is_tree(fam[0])
    # any two legs make the path, so delta=2 lists one spider
    fam2 = spider_family(7, 2)
    assert len(fam2) == 1 and _iso(fam2[0], path_graph(7))
    fam93 = spider_family(9, 3)
    assert len(fam93) == 2
    values = {sum_connectivity(g) for g in fam93}
    assert len(values) == 1  # family-wide equality of the index
    codes = {canonical_code(g) for g in fam93}
    assert len(codes) == 2
    with pytest.raises(DeltaRangeError):
        spider_family(7, 4)


def test_cycle_spider_family():
    fam = cycle_spider_family(7, 3)
    assert len(fam) == 3
    assert all(is_unicyclic(g) and max_degree(g) == 3 for g in fam)
    assert len({sum_connectivity(g) for g in fam}) == 1
    assert len({canonical_code(g) for g in fam}) == 3
    # the three graphs use cycle lengths 3, 4, 5
    from sumconn.graphs import unique_cycle

    assert sorted(len(unique_cycle(g)) for g in fam) == [3, 4, 5]
    fam72 = cycle_spider_family(7, 2)
    assert len(fam72) == 1 and _iso(fam72[0], cycle_graph(7))
    assert len(cycle_spider_family(8, 3)) == 4
    with pytest.raises(DeltaRangeError):
        cycle_spider_family(7, 5)


def test_family_membership_postconditions():
    # No member is deduplicated, so this checks the argument that no two are
    # isomorphic: one vertex of degree >= 3 from which the parameters read back.
    for n in range(3, 17):
        for delta in range(2, n):
            for graph_class, in_class in (("tree", is_tree), ("unicyclic", is_unicyclic)):
                fam = extremal_family(GraphClassSpec(n, delta, graph_class))
                assert len({sum_connectivity(g) for g in fam}) == 1
                assert len({canonical_code(g) for g in fam}) == len(fam)
                for g in fam:
                    assert in_class(g) and max_degree(g) == delta and g.n == n
            if not is_large_delta("tree", n, 2):
                fam = spider_family(n, 2)
                assert len(fam) == 1 and _iso(fam[0], path_graph(n))


def _families_sha(order) -> str:
    """sha256 of every family with n <= 16: a line naming (class, n, delta),
    then its members' graph6 lines, ``order``-ed."""
    lines = []
    for graph_class in ("tree", "unicyclic"):
        for n in range(3, 17):
            for delta in range(2, n):
                fam = extremal_family(GraphClassSpec(n, delta, graph_class))
                lines += [f"{graph_class} {n} {delta}", *order([emit_graph6(g) for g in fam])]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_families_are_pinned_in_parameter_order():
    # The members, sorted, are those the families had when they were
    # deduplicated by canonical code and listed in code order.
    assert _families_sha(sorted) == "e26620e06812c9052d5056d66602ec1860d289da648b1a861c116cd13ed43590"
    # Listed by parameters: cycle length, then leg multisets ascending.
    assert _families_sha(list) == "be763b1926cf8726aee8d3ea3244148cc38ba277e091afb694febe27511cd0a7"


def test_graph_class_spec_validation():
    GraphClassSpec(n=7, delta=3, graph_class="tree")
    with pytest.raises(ValueError):
        GraphClassSpec(n=7, delta=3, graph_class="forest")
    with pytest.raises(DeltaRangeError):
        GraphClassSpec(n=7, delta=7, graph_class="tree")
    with pytest.raises(DeltaRangeError):
        GraphClassSpec(n=7, delta=1, graph_class="unicyclic")


def test_extremal_family_follows_the_branch_boundaries():
    # large delta from ceil(n/2) for trees and ceil((n+2)/2) for unicyclic graphs
    for n in range(3, 13):
        for delta in range(2, n):
            assert is_large_delta("tree", n, delta) == (delta >= math.ceil(n / 2))
            assert is_large_delta("unicyclic", n, delta) == (delta >= math.ceil((n + 2) / 2))
            tree_family = extremal_family(GraphClassSpec(n=n, delta=delta, graph_class="tree"))
            if delta >= math.ceil(n / 2):
                assert tree_family == [tree_extremal(n, delta)]
            else:
                assert tree_family == spider_family(n, delta)
            uni_family = extremal_family(GraphClassSpec(n=n, delta=delta, graph_class="unicyclic"))
            if delta >= math.ceil((n + 2) / 2):
                assert uni_family == [unicyclic_extremal(n, delta)]
            else:
                assert uni_family == cycle_spider_family(n, delta)
