import copy
import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumconn.graphs import (
    DuplicateEdgeError,
    Graph,
    SelfLoopError,
    SizeLimitError,
    NotUnicyclicError,
    VertexRangeError,
    cycle_graph,
    graph_from_edges,
    is_connected,
    is_tree,
    is_unicyclic,
    max_degree,
    path_graph,
    peel_leaves,
    star_graph,
    unique_cycle,
)
from sumconn.construct import attach_path, tree_extremal, unicyclic_extremal
from sumconn.enumeration import _record_max_degree, _record_tree, _unicyclic_records, enumerate_trees
from sumconn.enumeration import enumerate_unicyclic
from sumconn.verify import transform_monotonicity_suite

from oracles import _centers, _cycle_by_dfs, adjacency_from_edges


def test_graph_from_edges_basic():
    p3 = graph_from_edges(3, [(0, 1), (1, 2)])
    assert p3.edges == ((0, 1), (1, 2))
    assert p3.adjacency == ((1,), (0, 2), (1,))
    c3 = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert c3.m == 3
    assert c3.degrees() == (2, 2, 2)


def test_graph_from_edges_validation():
    with pytest.raises(DuplicateEdgeError):
        graph_from_edges(4, [(0, 1), (0, 1)])
    with pytest.raises(DuplicateEdgeError):
        graph_from_edges(4, [(0, 1), (1, 0)])
    with pytest.raises(SelfLoopError):
        graph_from_edges(4, [(2, 2)])
    with pytest.raises(VertexRangeError):
        graph_from_edges(3, [(0, 3)])
    with pytest.raises(SizeLimitError):
        graph_from_edges(17, [])


def test_tree_and_unicyclic_predicates():
    assert is_tree(path_graph(4))
    assert not is_tree(cycle_graph(4))
    assert not is_tree(graph_from_edges(4, [(0, 1), (2, 3)]))  # disconnected
    assert is_unicyclic(cycle_graph(5))
    assert not is_unicyclic(path_graph(5))
    assert is_unicyclic(unicyclic_extremal(4, 3))
    # disconnected with m == n is not unicyclic
    assert not is_unicyclic(graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))


def test_trees_and_unicyclic_mutually_exclusive():
    for g in (path_graph(5), cycle_graph(5), star_graph(6), unicyclic_extremal(6, 4)):
        assert is_tree(g) != is_unicyclic(g) or not is_connected(g)


def test_unique_cycle():
    assert unique_cycle(cycle_graph(4)) == (0, 1, 2, 3)
    assert set(unique_cycle(unicyclic_extremal(4, 3))) == {0, 1, 2}
    assert set(unique_cycle(unicyclic_extremal(7, 5))) == {0, 1, 2}
    with pytest.raises(NotUnicyclicError):
        unique_cycle(path_graph(4))


def _peel_oracle(g):
    # independent peeling: repeatedly drop degree-one vertices
    alive = set(range(g.n))
    changed = True
    while changed:
        changed = False
        for v in list(alive):
            if sum(1 for w in g.adjacency[v] if w in alive) == 1:
                alive.discard(v)
                changed = True
    return alive


def test_unique_cycle_against_peel_oracle():
    for g in (
        unicyclic_extremal(7, 5),
        unicyclic_extremal(9, 6),
        attach_path(cycle_graph(5), 0, 2),
        attach_path(attach_path(cycle_graph(4), 2, 3), 1, 1),
    ):
        assert set(unique_cycle(g)) == _peel_oracle(g)


def test_max_degree():
    for n in (3, 7, 12):
        assert max_degree(path_graph(n)) == 2
    assert max_degree(star_graph(8)) == 7
    assert max_degree(tree_extremal(7, 4)) == 4
    assert max_degree(graph_from_edges(1, [])) == 0


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_degree_sum_is_twice_edge_count(data):
    n = data.draw(st.integers(min_value=1, max_value=10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    g = graph_from_edges(n, edges)
    assert sum(g.degrees()) == 2 * g.m


def test_graph_is_value_like():
    a = graph_from_edges(3, [(1, 2), (0, 1)])
    b = graph_from_edges(3, [(0, 1), (1, 2)])
    assert a == b
    assert hash(a) == hash(b)
    assert {a, b} == {a}
    assert a != graph_from_edges(3, [(0, 1)]) and a != graph_from_edges(4, [(0, 1), (1, 2)])
    assert a != (3, a.edges)


def test_reading_the_adjacency_leaves_the_value_unchanged():
    a = graph_from_edges(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    b = graph_from_edges(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    before = (hash(a), repr(a))
    assert a.adjacency == ((1,), (0, 2, 3), (1,), (1, 4), (3,))
    assert a == b and b == a
    assert (hash(a), repr(a)) == before == (hash(b), repr(b))
    assert a.adjacency is a.adjacency  # filled once, then kept


def test_graph_attributes_cannot_be_set():
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    for name, value in (("n", 4), ("edges", ()), ("adjacency", ()), ("_adjacency", ()), ("label", 1)):
        with pytest.raises(AttributeError):
            setattr(g, name, value)
    for name in ("n", "edges", "_adjacency", "adjacency"):
        with pytest.raises(AttributeError):
            delattr(g, name)
    assert g == graph_from_edges(3, [(0, 1), (1, 2)])
    assert g.adjacency == ((1,), (0, 2), (1,))


def test_graphs_copy_and_pickle():
    g = graph_from_edges(4, [(0, 1), (1, 2), (1, 3)])
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin == g and hash(twin) == hash(g)
        assert twin.adjacency == g.adjacency


def _traced_first_read(g):
    """``g.adjacency`` and the trace events of the property's own frame."""
    events = []
    code = Graph.adjacency.fget.__code__

    def local(frame, event, arg):
        events.append(event)
        return local

    def calls(frame, event, arg):
        if frame.f_code is code:
            events.append(event)
            return local
        return None

    outer = sys.gettrace()
    sys.settrace(calls)
    try:
        rows = g.adjacency
    finally:
        sys.settrace(outer)
    return rows, events


def test_the_first_adjacency_read_raises_nothing():
    # The rows slot starts None: the first read tests it, where reading an
    # unset slot would raise and catch an AttributeError per graph.
    g = graph_from_edges(5, [(3, 4), (0, 1), (1, 2), (2, 0)])
    fresh = [
        Graph(1, ()),
        Graph(4, ((0, 1), (1, 2), (1, 3))),
        graph_from_edges(5, [(3, 4), (0, 1), (1, 2), (2, 0)]),
        _record_tree(bytes([0, 1, 0, 2, 2, 3]), 4),
        copy.copy(g),
        copy.deepcopy(g),
        pickle.loads(pickle.dumps(g)),
    ]
    for h in fresh:
        rows, events = _traced_first_read(h)
        assert events[0] == "call" and events[-1] == "return", events
        assert "exception" not in events, h
        assert rows == tuple(map(tuple, adjacency_from_edges(h.n, h.edges)))
        assert h.adjacency is rows


def _check_derived(g):
    assert g.adjacency == tuple(map(tuple, adjacency_from_edges(g.n, g.edges)))
    assert g.degrees() == tuple(map(len, g.adjacency))


def test_adjacency_and_degrees_match_the_eager_build(monkeypatch):
    for n in range(1, 11):
        for g in enumerate_trees(n):
            _check_derived(g)
    for n in range(3, 10):
        tops = map(_record_max_degree, _unicyclic_records(n))
        for top, g in zip(tops, enumerate_unicyclic(n)):
            assert max(g.degrees()) == top
            _check_derived(g)
    # Every graph the transform suite makes for one seed.
    made = []
    make = Graph.__init__
    monkeypatch.setattr(Graph, "__init__", lambda g, n, edges: made.append(g) or make(g, n, edges))
    assert transform_monotonicity_suite(40, seed=5).passed
    monkeypatch.undo()
    assert len(made) > 200
    for g in made:
        _check_derived(g)


def _both_labelings(g):
    """``g`` and its relabeling v -> n - 1 - v, so that the peel is not
    only seen on canonical labels."""
    flipped = graph_from_edges(g.n, [(g.n - 1 - u, g.n - 1 - v) for u, v in g.edges])
    return g, flipped


def test_peel_leaves_leaves_tree_centers_and_the_unicyclic_cycle():
    for n in range(1, 11):
        for tree in enumerate_trees(n):
            for g in _both_labelings(tree):
                assert peel_leaves(g) == _centers(g.adjacency)
    for n in range(3, 10):
        for unicyclic in enumerate_unicyclic(n):
            for g in _both_labelings(unicyclic):
                assert peel_leaves(g) == sorted(_cycle_by_dfs(g.adjacency))
