import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumconn.canon import (
    NotTreeOrUnicyclicError,
    _rooted_code,
    canonical_code,
    canonical_form,
    necklace_code,
    necklace_max,
)
from sumconn.enumeration import (
    _chord_necklaces,
    _free_trees,
    _level_sequence_tree,
    _rooted_letters,
    enumerate_trees,
    enumerate_unicyclic,
)
from sumconn.graphs import (
    MAX_VERTICES,
    Graph,
    NotConnectedError,
    cycle_graph,
    graph_from_edges,
    path_graph,
    star_graph,
)

from oracles import (
    chord_necklaces_unpruned,
    connected_graph_orbit_classes,
    level_sequence_code,
    necklace_code_by_parse,
    necklace_min_all_readings,
    paren_to_level_sequence,
    rooted_paren_codes,
)


def _permuted(g: Graph, perm) -> Graph:
    return graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def test_relabeling_gives_equal_codes():
    p3a = graph_from_edges(3, [(0, 1), (1, 2)])
    p3b = graph_from_edges(3, [(2, 0), (0, 1)])  # path 2-0-1
    assert canonical_code(p3a) == canonical_code(p3b)


def test_distinct_shapes_give_distinct_codes():
    assert canonical_code(star_graph(4)) != canonical_code(path_graph(4))


def test_triangle_with_pendant_position_irrelevant():
    at0 = graph_from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    at2 = graph_from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert canonical_code(at0) == canonical_code(at2)
    # derived check: some permutation maps one onto the other
    target = set(at2.edges)
    assert any(set(_permuted(at0, perm).edges) == target for perm in permutations(range(4)))


def test_rejects_disconnected():
    with pytest.raises(NotConnectedError):
        canonical_code(graph_from_edges(4, [(0, 1), (2, 3)]))


def test_canonical_form_is_isomorphic_and_stable():
    g = graph_from_edges(6, [(5, 0), (0, 3), (3, 1), (1, 4), (4, 2)])
    cf = canonical_form(g)
    assert canonical_code(cf) == canonical_code(g)
    assert canonical_form(cf) == cf


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_exhaustive_ground_truth_small(n):
    """All connected graphs up to n=6: trees and unicyclic graphs get codes
    equal iff they lie in the same permutation orbit, and every other
    connected graph is refused.

    Orbits come from brute-force permutation closure, covering the tree and
    unicyclic code paths.  Each distinct relabeling is coded once:
    permutations that give the same labeled graph repeat it.
    """
    codes = set()
    for edges in connected_graph_orbit_classes(n):
        g = graph_from_edges(n, list(edges))
        if g.m > n:
            with pytest.raises(NotTreeOrUnicyclicError, match=f"n={n} and m={g.m}"):
                canonical_code(g)
            continue
        rep_code = canonical_code(g)
        assert rep_code not in codes, "distinct orbits must get distinct codes"
        codes.add(rep_code)
        for h in {_permuted(g, perm) for perm in permutations(range(n))}:
            assert canonical_code(h) == rep_code


def test_level_sequence_codes_are_canonical_codes():
    # Every free tree the enumerator generates, unicentral and bicentral.
    assert level_sequence_code([0]) == canonical_code(graph_from_edges(1, []))
    for n in range(2, 17):
        for seq, *_ in _free_trees(n):
            assert level_sequence_code(seq) == canonical_code(_level_sequence_tree(seq))


@pytest.mark.parametrize("n", [7])
def test_exhaustive_permutation_invariance_supported_classes(n):
    """Every tree and unicyclic class at n=7 under all 5040 relabelings,
    each distinct relabeled graph coded once."""
    classes = list(enumerate_trees(n)) + list(enumerate_unicyclic(n))
    codes = [canonical_code(g) for g in classes]
    assert len(set(codes)) == len(codes)
    for g, code in zip(classes, codes):
        for h in {_permuted(g, perm) for perm in permutations(range(n))}:
            assert canonical_code(h) == code


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_random_tree_relabeling_invariance(data):
    n = data.draw(st.integers(min_value=2, max_value=12))
    parents = [data.draw(st.integers(min_value=0, max_value=v - 1)) for v in range(1, n)]
    g = graph_from_edges(n, [(p, v) for v, p in enumerate(parents, start=1)])
    perm = data.draw(st.permutations(range(n)))
    assert canonical_code(_permuted(g, perm)) == canonical_code(g)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_unicyclic_relabeling_invariance(data):
    n = data.draw(st.integers(min_value=3, max_value=12))
    parents = [data.draw(st.integers(min_value=0, max_value=v - 1)) for v in range(1, n)]
    edges = [(p, v) for v, p in enumerate(parents, start=1)]
    present = set(edges)
    non_edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in present and (min(u, v), max(u, v)) not in present
    ]
    chord = data.draw(st.sampled_from(non_edges))
    g = graph_from_edges(n, edges + [chord])
    perm = data.draw(st.permutations(range(n)))
    assert canonical_code(_permuted(g, perm)) == canonical_code(g)


def test_cycles_of_different_length_differ():
    codes = {canonical_code(cycle_graph(n)) for n in range(3, 10)}
    assert len(codes) == 7


def test_rooted_codes_are_the_letters_level_sequences():
    # Every rooted tree on up to 10 vertices, rooted at its vertex 0.
    trees = 0
    for s in range(1, 11):
        for *_, seq in _rooted_letters(s):
            assert _rooted_code(_level_sequence_tree(seq).adjacency, 0, ()) == seq
            trees += 1
    assert trees == 1_205


def test_paren_order_is_the_reverse_of_level_sequence_order():
    parens = [code for s in range(1, 8) for code in rooted_paren_codes(s)]
    seqs = [paren_to_level_sequence(code) for code in parens]
    assert set(seqs) == {letter[-1] for s in range(1, 8) for letter in _rooted_letters(s)}
    assert len(set(seqs)) == len(seqs) == 85
    for a, sa in zip(parens, seqs):
        for b, sb in zip(parens, seqs):
            assert (a < b) == (sa > sb)


def _sequences(codes) -> tuple[bytes, ...]:
    return tuple(map(paren_to_level_sequence, codes))


def _assert_necklace_max_is_the_least_paren_reading(codes):
    # The greatest reading of level sequences is the least of AHU strings.
    assert necklace_max(_sequences(codes)) == _sequences(necklace_min_all_readings(list(codes)))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        # few distinct codes, so the least one and whole runs repeat often
        st.sampled_from(["()", "(())", "(()())", "((()))"]),
        min_size=1,
        max_size=13,
    )
)
def test_necklace_min_matches_all_readings(codes):
    _assert_necklace_max_is_the_least_paren_reading(codes)


# Four rooted trees as AHU strings; the least is "((()))", as "(" sorts
# before ")", and its level sequence is the greatest.
_CODES = ["()", "(())", "(()())", "((()))"]


def test_necklace_min_with_one_least_code_at_each_position():
    rng = random.Random(13)
    least = min(_CODES)
    others = [c for c in _CODES if c != least]
    for k in range(3, 14):
        for i in range(k):
            for _ in range(20):
                codes = [rng.choice(others) for _ in range(k)]
                codes[i] = least
                _assert_necklace_max_is_the_least_paren_reading(codes)


def test_necklace_min_with_repeated_least_codes():
    for k in range(3, 8):
        for codes in product(_CODES[:3], repeat=k):
            if codes.count(min(codes)) > 1:
                _assert_necklace_max_is_the_least_paren_reading(codes)


def test_necklace_max_of_three_codes_over_every_triple():
    # Three codes take the sorted order, not a comparison of readings.
    for codes in product(_CODES, repeat=3):
        _assert_necklace_max_is_the_least_paren_reading(codes)


def test_necklace_codes_match_the_parse_on_every_listed_key():
    keys = 0
    for n in range(3, 12):
        for seq, *_ in _free_trees(n):
            tree = _level_sequence_tree(seq)
            parens = dict(chord_necklaces_unpruned(tree))
            for chord, key in _chord_necklaces(tree):
                assert necklace_code(n, key) == necklace_code_by_parse(n, parens[chord])
                keys += 1
    assert keys == 9_111


# Rooted trees on one to four vertices.
_ROOTED = _CODES + ["(()()())", "(()(()))", "((()()))", "(((())))"]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_necklace_codes_match_the_parse_on_random_necklaces(data):
    k = data.draw(st.integers(3, 13))
    spare = MAX_VERTICES - k  # vertices beyond the cycle's
    codes = []
    for _ in range(k):
        code = data.draw(st.sampled_from([c for c in _ROOTED if len(c) // 2 - 1 <= spare]))
        spare -= len(code) // 2 - 1
        codes.append(code)
    n = sum(len(c) // 2 for c in codes)
    assert necklace_code(n, _sequences(codes)) == necklace_code_by_parse(n, codes)
    least = necklace_min_all_readings(codes)
    assert necklace_code(n, necklace_max(_sequences(codes))) == necklace_code_by_parse(n, least)
