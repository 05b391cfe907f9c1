import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumconn.enumeration import enumerate_trees, enumerate_unicyclic
from sumconn.graph6 import Graph6Error, emit_graph6, parse_graph6, to_dot
from sumconn.graphs import SizeLimitError, cycle_graph, graph_from_edges, path_graph

from oracles import graph6_by_pair_probe


def test_hand_encoded_examples():
    # n=3 -> 'B'; P_3 upper-triangle bits 101000 -> 'g'; C_3 bits 111000 -> 'w'
    assert emit_graph6(path_graph(3)) == "Bg"
    assert emit_graph6(cycle_graph(3)) == "Bw"
    assert parse_graph6("Bg").edges == ((0, 1), (1, 2))
    assert parse_graph6("Bw").edges == ((0, 1), (0, 2), (1, 2))


def test_single_vertex_and_edgeless():
    assert emit_graph6(graph_from_edges(1, [])) == "@"
    assert parse_graph6("@").n == 1
    g = graph_from_edges(4, [])
    assert parse_graph6(emit_graph6(g)).edges == ()


def test_emit_matches_pair_probe_on_small_edgeless_and_complete_graphs():
    graphs = [graph_from_edges(2, [(0, 1)])]
    for n in range(1, 17):
        graphs.append(graph_from_edges(n, []))
        graphs.append(graph_from_edges(n, [(i, j) for j in range(n) for i in range(j)]))
    for g in graphs:
        assert emit_graph6(g) == graph6_by_pair_probe(g), g


def test_header_and_whitespace_accepted():
    assert parse_graph6(">>graph6<<Bw\n").edges == cycle_graph(3).edges


def test_malformed_inputs():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error):
        parse_graph6("B")  # missing data character
    with pytest.raises(Graph6Error):
        parse_graph6("Bgg")  # extra data character
    with pytest.raises(Graph6Error):
        parse_graph6("B\x1f")  # character below chr(63)
    with pytest.raises(Graph6Error):
        parse_graph6("Bi")  # nonzero padding bits for n=3
    with pytest.raises(SizeLimitError):
        parse_graph6(chr(63 + 30))  # 30 vertices


def test_parse_inverts_emit_and_refuses_each_padding_bit():
    # Every n the package reads: edgeless, complete and a path, each parsed
    # back to itself; then each padding bit of the last character set alone.
    for n in range(1, 17):
        complete = [(i, j) for j in range(n) for i in range(j)]
        for g in (graph_from_edges(n, []), graph_from_edges(n, complete), path_graph(n)):
            assert parse_graph6(emit_graph6(g)) == g
        text = emit_graph6(graph_from_edges(n, complete))
        for bit in range(-len(complete) % 6):
            padded = text[:-1] + chr(63 + (ord(text[-1]) - 63 | 1 << bit))
            with pytest.raises(Graph6Error, match="nonzero padding bits"):
                parse_graph6(padded)


def test_round_trip_on_enumerated_families():
    # Same strings as the pair-probing reference on trees n <= 12 and
    # unicyclic graphs n <= 11.
    for n in range(1, 13):
        for g in enumerate_trees(n):
            text = emit_graph6(g)
            assert text == graph6_by_pair_probe(g)
            assert parse_graph6(text).edges == g.edges
    for n in range(3, 13):
        for g in enumerate_unicyclic(n):
            text = emit_graph6(g)
            if n <= 11:
                assert text == graph6_by_pair_probe(g)
            assert parse_graph6(text).edges == g.edges


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_round_trip_on_random_graphs(data):
    n = data.draw(st.integers(min_value=1, max_value=16))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = graph_from_edges(n, edges)
    assert emit_graph6(g) == graph6_by_pair_probe(g)
    assert parse_graph6(emit_graph6(g)).edges == g.edges


def test_dot_export():
    dot = to_dot(path_graph(3))
    assert dot.startswith("graph G {")
    assert "0 -- 1;" in dot and "1 -- 2;" in dot
    assert dot.endswith("}\n")
