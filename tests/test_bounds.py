from fractions import Fraction

import pytest

from sumconn import bounds
from sumconn.bounds import (
    _tree_edge_types,
    _unicyclic_edge_types,
    degree_order_failures,
    tree_max_bound,
    unicyclic_bound_profile,
    unicyclic_max_bound,
    unicyclic_top_two,
)
from sumconn.canon import canonical_code
from sumconn.construct import (
    DeltaRangeError,
    GraphClassSpec,
    cycle_spider_family,
    extremal_family,
    spider_family,
    tree_extremal,
    unicyclic_extremal,
)
from sumconn.graphs import SizeLimitError, cycle_graph, path_graph
from sumconn.indices import _PACKED_BITS, profile_value, sum_connectivity
from sumconn.radicals import RadicalValue

from oracles import (
    top_two_as_printed,
    tree_bound_as_printed,
    unicyclic_bound_as_printed,
    unicyclic_profile_as_printed,
)


def _rs(s):
    return RadicalValue.reciprocal_sqrt(s)


def test_tree_bound_path_case():
    for n in range(3, 17):
        assert tree_max_bound(n, 2) == Fraction(n - 3, 2) + _rs(3) * 2
        assert tree_max_bound(n, 2) == sum_connectivity(path_graph(n))


def test_tree_bound_spot_values():
    assert tree_max_bound(7, 4) == _rs(5) * 2 + _rs(6) * 2 + _rs(3) * 2
    assert float(tree_max_bound(7, 4)) == pytest.approx(2.86562, abs=5e-6)
    assert tree_max_bound(9, 3) == 1 + RadicalValue.sqrt(3) + _rs(5) * 3
    assert float(tree_max_bound(9, 3)) == pytest.approx(4.07369, abs=5e-6)


def test_tree_bound_matches_constructions_exactly():
    for n in range(4, 13):
        for delta in range((n + 1) // 2, n):
            assert tree_max_bound(n, delta) == sum_connectivity(tree_extremal(n, delta))
        for delta in range(2, (n - 1) // 2 + 1):
            for g in spider_family(n, delta):
                assert tree_max_bound(n, delta) == sum_connectivity(g)


def test_tree_bound_range_errors():
    for bad in ((7, 1), (7, 7), (2, 1)):
        with pytest.raises(DeltaRangeError):
            tree_max_bound(*bad)


def test_unicyclic_bound_cycle_case():
    for n in range(3, 17):
        assert unicyclic_max_bound(n, 2) == Fraction(n, 2)
        if n >= 3:
            assert unicyclic_max_bound(n, 2) == sum_connectivity(cycle_graph(n))


def test_unicyclic_bound_spot_values():
    assert unicyclic_max_bound(7, 5) == _rs(3) + _rs(7) * 3 + _rs(6) * 2 + Fraction(1, 2)
    assert float(unicyclic_max_bound(7, 5)) == pytest.approx(3.02774, abs=5e-6)
    assert unicyclic_max_bound(7, 3) == _rs(3) + _rs(5) * 3 + Fraction(3, 2)
    assert float(unicyclic_max_bound(7, 3)) == pytest.approx(3.41899, abs=5e-6)


def test_unicyclic_bound_matches_constructions_exactly():
    for n in range(4, 12):
        for delta in range((n + 3) // 2, n):
            assert unicyclic_max_bound(n, delta) == sum_connectivity(unicyclic_extremal(n, delta))
        for delta in range(2, (n + 1) // 2 + 1):
            for g in cycle_spider_family(n, delta):
                assert unicyclic_max_bound(n, delta) == sum_connectivity(g)


def test_branches_partition_the_delta_range():
    # every delta in 2..n-1 falls in one branch of each bound, and there the
    # branch's edge counts are nonnegative and add up to the edge count
    for n in range(4, 41):
        for delta in range(2, n):
            for graph_class, edge_types, m in (
                ("tree", _tree_edge_types, n - 1),
                ("unicyclic", _unicyclic_edge_types, n),
            ):
                counts = [c for _, c in edge_types(n, delta)]
                assert all(c >= 0 for c in counts), (graph_class, n, delta)
                assert sum(counts) == m


def test_extremal_graphs_have_exactly_the_bound_edge_types(monkeypatch):
    # Stronger than equal values: {4: 1} and {16: 2} are both worth 1/2.
    # Each bound's packed profile, as ``bounds`` values it, equals the
    # packed profile of every graph in its family.
    valued = []
    monkeypatch.setattr(bounds, "profile_value", lambda p: valued.append(p) or profile_value(p))
    for graph_class, bound in (("tree", tree_max_bound), ("unicyclic", unicyclic_max_bound)):
        for n in range(3, 17):
            for delta in range(2, n):
                bound(n, delta)
                expected = valued.pop()
                for g in extremal_family(GraphClassSpec(n, delta, graph_class)):
                    deg = g.degrees()
                    profile = sum(1 << (_PACKED_BITS * (deg[u] + deg[v])) for u, v in g.edges)
                    assert profile == expected, (graph_class, n, delta)


def test_bounds_equal_the_printed_closed_forms():
    for n in range(3, 41):
        for delta in range(2, n):
            assert tree_max_bound(n, delta).terms == tree_bound_as_printed(n, delta).terms
            assert unicyclic_max_bound(n, delta).terms == unicyclic_bound_as_printed(n, delta).terms
        for x in [k / 10 for k in range(20, 10 * n)]:
            assert unicyclic_bound_profile(n, x) == unicyclic_profile_as_printed(n, x)


def test_bounds_are_valued_up_to_the_profile_capacity():
    # A count must fit a profile's byte: at most 255 edges, all but two of
    # them at sum 4 in the tree bound at delta = 2 and all in the cycle.
    assert tree_max_bound(256, 2).terms == tree_bound_as_printed(256, 2).terms
    assert unicyclic_max_bound(255, 2).terms == unicyclic_bound_as_printed(255, 2).terms
    with pytest.raises(SizeLimitError):
        tree_max_bound(257, 2)
    with pytest.raises(SizeLimitError):
        unicyclic_max_bound(256, 2)


def test_top_two_equals_the_printed_closed_forms():
    for n in range(4, 41):
        first, second = top_two_as_printed(n)
        assert unicyclic_max_bound(n, 2).terms == first.terms
        assert unicyclic_max_bound(n, 3).terms == second.terms
    for n in range(4, 17):  # graphs stop at 16 vertices
        first_graphs, second_graphs = (
            extremal_family(GraphClassSpec(n, d, "unicyclic")) for d in (2, 3)
        )
        assert [g.edges for g in first_graphs] == [cycle_graph(n).edges]
        printed = [unicyclic_extremal(4, 3)] if n == 4 else cycle_spider_family(n, 3)
        assert [g.edges for g in second_graphs] == [g.edges for g in printed]


def test_top_two_values_reach_the_profile_capacity():
    # values only: no graph is built, so they reach unicyclic n = 255
    for n in range(4, 256):
        first, second = top_two_as_printed(n)
        t = unicyclic_top_two(n)
        assert (t.n, t.first_value.terms, t.second_value.terms) == (n, first.terms, second.terms)
    with pytest.raises(SizeLimitError, match="top-two.*256"):
        unicyclic_top_two(256)


def test_profile_matches_integer_bound():
    assert unicyclic_bound_profile(8, 2.0) == pytest.approx(4.0)
    for n in range(5, 14):
        for d in range(2, (n + 1) // 2 + 1):
            assert unicyclic_bound_profile(n, float(d)) == pytest.approx(
                float(unicyclic_max_bound(n, d)), abs=1e-12
            )


def test_profile_monotone_decreasing():
    assert unicyclic_bound_profile(10, 3.0) > unicyclic_bound_profile(10, 4.0)
    for n in (6, 10, 16):
        xs = [k / 10 for k in range(20, 10 * (n - 1) + 1)]
        values = [unicyclic_bound_profile(n, x) for x in xs]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_profile_domain_error():
    with pytest.raises(ValueError):
        unicyclic_bound_profile(8, 1.9)


def _second_graphs(n):
    return extremal_family(GraphClassSpec(n, 3, "unicyclic"))


def test_top_two_closed_form():
    t4 = unicyclic_top_two(4)
    assert t4.first_value == Fraction(2)
    assert t4.second_value == 1 + _rs(5) * 2
    assert len(_second_graphs(4)) == 1
    t5 = unicyclic_top_two(5)
    assert t5.second_value == Fraction(1, 2) + _rs(3) + _rs(5) * 3
    assert float(t5.second_value) == pytest.approx(2.41899, abs=5e-6)
    assert {canonical_code(g) for g in _second_graphs(5)} == {
        canonical_code(g) for g in cycle_spider_family(5, 3)
    }
    t7 = unicyclic_top_two(7)
    assert len(_second_graphs(7)) == 3
    assert float(t7.second_value) == pytest.approx(3.41899, abs=5e-6)
    with pytest.raises(ValueError):
        unicyclic_top_two(3)


def test_closed_form_maxima_fall_as_the_degree_grows():
    # M(n, delta) > M(n, delta + 1) exactly, at every n the values reach:
    # the order from which the top-two ranking is deduced.
    assert degree_order_failures("tree") == []
    assert degree_order_failures("unicyclic") == []
