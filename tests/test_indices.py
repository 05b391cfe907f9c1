import importlib.util
import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumconn.bounds import tree_max_bound, unicyclic_max_bound
from sumconn.canon import canonical_code
from sumconn.construct import unicyclic_extremal
from sumconn.enumeration import enumerate_trees, tree_profiles, unicyclic_bracelets
from sumconn.graphs import cycle_graph, graph_from_edges, path_graph, star_graph
from sumconn.indices import (
    EdgelessGraphError,
    IndexKind,
    connectivity_index,
    edge_contribution,
    product_connectivity,
    profile_counts,
    profile_value,
    sum_connectivity,
)
from sumconn import indices, radicals, verify
from sumconn.radicals import RadicalValue, _decide, _exact_sign

from oracles import (
    fraction_terms,
    mp_terms,
    packed_counts_by_shift,
    reciprocal_sqrt_terms,
    terms_hash,
)

_value = RadicalValue.reciprocal_sqrt_sum


def test_edge_contribution():
    assert dict(edge_contribution(2, 2, IndexKind.SUM)) == {1: Fraction(1, 2)}
    assert dict(edge_contribution(1, 2, IndexKind.SUM)) == {3: Fraction(1, 3)}
    assert dict(edge_contribution(3, 2, IndexKind.PRODUCT)) == {6: Fraction(1, 6)}
    with pytest.raises(ValueError):
        edge_contribution(0, 2, IndexKind.SUM)


def test_sum_connectivity_spot_values():
    for n in range(3, 13):
        assert sum_connectivity(cycle_graph(n)) == _value({1: Fraction(n, 2)})
    u43 = unicyclic_extremal(4, 3)
    assert sum_connectivity(u43) == _value({1: 1, 5: 2})
    assert float(sum_connectivity(u43)) == pytest.approx(1.89443, abs=5e-6)
    p4 = sum_connectivity(path_graph(4))
    assert p4 == _value({1: Fraction(1, 2), 3: 2})
    assert float(p4) == pytest.approx(1.65470, abs=5e-6)


def test_product_connectivity_spot_values():
    for n in range(3, 13):
        assert product_connectivity(cycle_graph(n)) == _value({1: Fraction(n, 2)})
    for n in range(3, 13):
        # sqrt(n - 1), written (n - 1)/sqrt(n - 1)
        assert product_connectivity(star_graph(n)) == _value({n - 1: n - 1})
    assert product_connectivity(path_graph(4)) == _value({1: Fraction(1, 2), 2: 2})


def test_two_regular_indices_coincide():
    for n in range(3, 14):
        g = cycle_graph(n)
        value = _value({1: Fraction(n, 2)})
        assert sum_connectivity(g) == value == product_connectivity(g)


def test_edgeless_graph_rejected():
    with pytest.raises(EdgelessGraphError):
        sum_connectivity(graph_from_edges(1, []))
    with pytest.raises(EdgelessGraphError):
        product_connectivity(graph_from_edges(3, []))


def test_additivity_over_edges():
    for g in list(enumerate_trees(8)) + [cycle_graph(7), unicyclic_extremal(9, 6)]:
        deg = g.degrees()
        for kind in IndexKind:
            # The edges' terms added as Fractions, apart from the package.
            per_edge = fraction_terms(
                term for u, v in g.edges for term in edge_contribution(deg[u], deg[v], kind)
            )
            whole = sum_connectivity(g) if kind is IndexKind.SUM else product_connectivity(g)
            assert per_edge == dict(whole)


def test_float_matches_compensated_oracle():
    for g in enumerate_trees(9):
        deg = g.degrees()
        oracle = math.fsum(1.0 / math.sqrt(deg[u] + deg[v]) for u, v in g.edges)
        value = float(sum_connectivity(g))
        assert abs(value - oracle) <= 1e-12 * max(1.0, abs(oracle))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_isomorphic_graphs_have_identical_values(data):
    n = data.draw(st.integers(min_value=2, max_value=10))
    parents = [data.draw(st.integers(min_value=0, max_value=v - 1)) for v in range(1, n)]
    g = graph_from_edges(n, [(p, v) for v, p in enumerate(parents, start=1)])
    perm = data.draw(st.permutations(range(n)))
    h = graph_from_edges(n, [(perm[u], perm[v]) for u, v in g.edges])
    assert canonical_code(g) == canonical_code(h)
    assert sum_connectivity(g) == sum_connectivity(h)
    assert product_connectivity(g) == product_connectivity(h)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_index_kernel_matches_per_edge_normalizing_constructor(data):
    # Random connected graphs: a random tree plus random chords.  Degree
    # products such as 4, 8, 9 and 12 exercise the square-factor branch.
    n = data.draw(st.integers(min_value=2, max_value=11))
    parents = [data.draw(st.integers(min_value=0, max_value=v - 1)) for v in range(1, n)]
    edges = {(p, v) for v, p in enumerate(parents, start=1)}
    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    if non_edges:
        edges |= set(data.draw(st.lists(st.sampled_from(non_edges), max_size=2 * n)))
    g = graph_from_edges(n, sorted(edges))
    deg = g.degrees()
    for kind in IndexKind:
        radicands = [
            deg[u] + deg[v] if kind is IndexKind.SUM else deg[u] * deg[v] for u, v in g.edges
        ]
        reference = _value(Counter(radicands))
        value = connectivity_index(g, kind)
        assert (value._coords, value._den) == (reference._coords, reference._den)


def _check_packed_profiles(g):
    # The profile ``connectivity_index`` packs holds each radicand's edge
    # count, and its value is the Fraction-term sum over the edges.
    deg = g.degrees()
    for kind in IndexKind:
        radicands = [
            deg[u] + deg[v] if kind is IndexKind.SUM else deg[u] * deg[v] for u, v in g.edges
        ]
        packed = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(indices, "_memoized_value", lambda p: packed.append(p) or profile_value(p))
            value = connectivity_index(g, kind)
        assert profile_counts(packed.pop()) == Counter(radicands)
        assert dict(value) == reciprocal_sqrt_terms(radicands)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_packed_profiles_of_graphs_up_to_16_vertices(data):
    n = data.draw(st.integers(min_value=2, max_value=16))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    _check_packed_profiles(graph_from_edges(n, edges))


def test_packed_profiles_at_capacity_k16():
    # The most edges a graph can have, 120, all at one radicand: 30 for
    # the sum index and 225 for the product index.
    k16 = graph_from_edges(16, [(u, v) for u in range(16) for v in range(u + 1, 16)])
    _check_packed_profiles(k16)
    assert sum_connectivity(k16) == _value({30: 120})
    assert product_connectivity(k16) == _value({1: 8})


# Fragments of equal value whose radicands differ: 1/sqrt(2), 1/2,
# 1/sqrt(3) and 1/sqrt(5), each as k/sqrt(k*k*b).
_EQUAL_FRAGMENTS = (
    ({2: 1}, {8: 2}, {18: 3}, {32: 4}, {50: 5}),
    ({4: 1}, {16: 2}, {36: 3}),
    ({3: 1}, {12: 2}, {27: 3}, {48: 4}),
    ({5: 1}, {20: 2}, {45: 3}),
)


def _radicands(counts):
    return tuple(sorted(Counter(counts).elements()))


@st.composite
def _count_vector_pairs(draw):
    """Two profiles over radicands 2..58, every end-degree sum a graph on 30
    vertices can have: the same or independent base counts, each with the
    same multiples of equal-value fragments planted in a form drawn for
    each side."""
    counts = st.dictionaries(st.integers(2, 58), st.integers(0, 12), max_size=8)
    x = Counter(draw(counts))
    y = Counter(x) if draw(st.booleans()) else Counter(draw(counts))
    for fragments in _EQUAL_FRAGMENTS:
        k = draw(st.integers(0, 3))
        for side in (x, y):
            for s, c in draw(st.sampled_from(fragments)).items():
                side[s] += k * c
    return _radicands(x), _radicands(y)


def _assert_keys_agree(a, b):
    """Values built from integer coordinates, as ``verify`` values profiles,
    against the Fraction-term reference and mpmath at 60 digits."""
    va, vb = _value(Counter(a)), _value(Counter(b))
    ta, tb = reciprocal_sqrt_terms(a), reciprocal_sqrt_terms(b)
    assert (dict(va), hash(va)) == (ta, terms_hash(ta))
    assert (dict(vb), hash(vb)) == (tb, terms_hash(tb))
    assert (va == vb) == (ta == tb)
    with mpmath.workdps(60):
        gap = mp_terms(ta) - mp_terms(tb)
    if ta == tb:
        expected = 0
    else:
        assert abs(gap) > mpmath.mpf(10) ** -50  # 60 digits resolve it
        expected = 1 if gap > 0 else -1
    assert (va < vb, va > vb, va <= vb, va >= vb) == (
        expected < 0, expected > 0, expected <= 0, expected >= 0
    )


@settings(max_examples=300, deadline=None)
@given(_count_vector_pairs())
def test_value_keys_agree_with_exact_values(pair):
    _assert_keys_agree(*pair)


def test_value_keys_take_the_exact_path_on_near_ties(monkeypatch):
    # Profiles inside the capacity whose values are 4.0e-22 apart relative
    # to their size, found by an integer relation search (mpmath.pslq):
    # their enclosures round to the same double, so only the filter's
    # margin sends the comparison to the exact sign.
    ca, cb = {66: 53, 138: 65, 199: 39, 211: 96, 214: 54}, {33: 49, 41: 95, 73: 15}
    va, vb = profile_value(_packed(ca)), profile_value(_packed(cb))
    exact = []

    def counted(coords):
        exact.append(coords)
        return _exact_sign(coords)

    monkeypatch.setattr(radicals, "_exact_sign", counted)
    assert va._enc == vb._enc and _decide(va._enc, vb._enc) == 0
    assert va > vb and not float(va) > float(vb)
    assert len(exact) == 1
    _assert_keys_agree(_radicands(ca), _radicands(cb))
    # Values 1.7e-22 apart past the capacity (counts 377 and 282), built
    # from integer coordinates: no enclosure, so the exact sign decides.
    a = _radicands({5: 200, 19: 300, 22: 231, 26: 81})
    b = _radicands({3: 180, 30: 377, 31: 282})
    _assert_keys_agree(a, b)
    _assert_keys_agree(b, a)


# -- values made exact when read ----------------------------------------------

_U = 2.0**-53


def _exact(value: RadicalValue) -> bool:
    """Whether a value's terms are built, read past the ``_coords`` property."""
    return value._c is not None


def _packed(counts: dict[int, int]) -> int:
    return sum(k << (indices._PACKED_BITS * s) for s, k in counts.items())


# Distinct profiles with equal values: 2/sqrt(8) = 3/sqrt(18) = 1/sqrt(2),
# 2/sqrt(4) = 3/sqrt(9) = 1, 1/sqrt(3) = 2/sqrt(12), 2/sqrt(7) = 4/sqrt(28).
_EQUAL_PROFILES = [
    ({8: 2}, {18: 3}),
    ({2: 1}, {8: 2}),
    ({4: 2}, {9: 3}),
    ({1: 1}, {16: 4}),
    ({3: 1, 8: 2}, {12: 2, 2: 1}),
    ({5: 1, 7: 2}, {20: 2, 28: 4}),
    ({3: 3, 4: 5}, {12: 6, 16: 10}),
]


def _listed_profiles() -> list[int]:
    """Every distinct profile of the trees with n <= 12 and the unicyclic
    graphs with n <= 11, ascending."""
    profiles = {p for n in range(2, 13) for _, p, _ in tree_profiles(n)}
    profiles.update(p for n in range(3, 12) for _, p, _ in unicyclic_bracelets(n))
    return sorted(profiles)


def _capacity_profiles() -> list[int]:
    """Profiles at the edge of the enclosure's capacity: K16's sum and
    product profiles (120 edges at radicand 30, and at 225), a count of 255
    at radicand 2 and at 225, and the bound profiles at n = 256 for trees
    and n = 255 for unicyclic graphs, every delta."""
    profiles = [_packed(c) for c in ({30: 120}, {225: 120}, {2: 255}, {225: 255})]
    profiles += [tree_max_bound(256, d)._profile for d in range(2, 256)]
    profiles += [unicyclic_max_bound(255, d)._profile for d in range(2, 255)]
    return profiles


def test_profile_values_hold_their_enclosures_and_compare_as_exact_values():
    profiles = _listed_profiles() + _capacity_profiles()
    profiles += [_packed(c) for pair in _EQUAL_PROFILES for c in pair]
    lazy = [profile_value(p) for p in profiles]
    eager = [RadicalValue.reciprocal_sqrt_sum(profile_counts(p)) for p in profiles]
    assert not any(map(_exact, lazy))
    # The enclosure, read off the counts, holds the value within 3.01u*S,
    # the bound ``_decide`` assumes; the counts are read here apart.
    with mpmath.workdps(60):
        for p, value in zip(profiles, lazy):
            counts = packed_counts_by_shift(p)
            assert profile_counts(p) == counts
            x = mpmath.fsum(k / mpmath.sqrt(s) for s, k in counts.items())
            assert abs(mpmath.mpf(value._enc) - x) <= mpmath.mpf(3.01 * _U) * value._enc
    # ``<`` orders both lists alike, and neighbours in that order are equal,
    # and compare, alike lazy or eager, on either side.
    order = sorted(range(len(profiles)), key=eager.__getitem__)
    assert sorted(range(len(profiles)), key=lazy.__getitem__) == order
    for i, j in zip(order, order[1:]):
        for a, b in ((lazy[i], lazy[j]), (lazy[i], eager[j]), (eager[i], lazy[j])):
            assert (a == b) == (eager[i] == eager[j]) == (b == a)
            assert (a < b) == (eager[i] < eager[j]) and (b < a) == (eager[j] < eager[i])
    for a, b in _EQUAL_PROFILES:
        x, y = profile_value(_packed(a)), profile_value(_packed(b))
        assert x == y and not x < y and not y < x and x <= y and x >= y
    # Hashes and fields, built on first read, are the eager ones.
    for value, reference in zip(lazy, eager):
        assert hash(value) == hash(reference)
        assert (value._coords, value._den) == (reference._coords, reference._den)
        assert value == reference and str(value) == str(reference)


def test_profile_values_are_made_exact_only_when_read(monkeypatch, capsys):
    built = []
    sums = RadicalValue.reciprocal_sqrt_sum.__func__

    def counted_sums(cls, counts):
        built.append(counts)
        return sums(cls, counts)

    monkeypatch.setattr(RadicalValue, "reciprocal_sqrt_sum", classmethod(counted_sums))
    # The trees-n16 workload reads the exact fields of its maximum, the
    # path's value, and of no other value.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "trees_n16.py"
    spec = importlib.util.spec_from_file_location("trees_n16", path)
    workload = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workload)
    indices._memoized_value.cache_clear()
    assert workload.main() == 0
    assert json.loads(capsys.readouterr().out)["max"] == [[1, "13/2"], [3, "2/3"]]
    assert built == [{3: 2, 4: 13}]
    # A cold ranking pass builds none for a profile it rejects.
    made = []

    def kept_value(profile):
        made.append(profile_value(profile))
        return made[-1]

    rejected = []
    admit = verify._admit

    def counted_admit(lead, seen, profile):
        members = admit(lead, seen, profile)
        if members is None:
            rejected.append(made[-1])
        return members

    monkeypatch.setattr(verify, "profile_value", kept_value)
    monkeypatch.setattr(verify, "_admit", counted_admit)
    verify._ranking.cache_clear()
    verify._ranking("unicyclic", 11)
    verify._ranking.cache_clear()
    assert rejected and not any(map(_exact, rejected))
