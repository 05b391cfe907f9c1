import os
import random
import subprocess
import sys
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest

import sumconn
import sumconn.enumeration as enumeration
from sumconn.canon import _rooted_code, canonical_code, level_sequence_edges
from sumconn.cli import dispatch
from sumconn.enumeration import (
    _chord_necklaces,
    _level_sequence_tree,
    _tree_sides,
    bracelet_graph,
    enumerate_trees,
    enumerate_unicyclic,
    tree_profiles,
    unicyclic_bracelets,
)
from sumconn.graphs import (
    SizeLimitError,
    graph_from_edges,
    is_tree,
    is_unicyclic,
    max_degree,
    path_graph,
    star_graph,
    unique_cycle,
)
from sumconn.construct import unicyclic_extremal
from sumconn.indices import profile_counts, sum_connectivity

from oracles import (
    bracelet_compositions_by_scan,
    bracelets_by_product,
    chord_dedup_unicyclic,
    chord_necklaces_unpruned,
    connected_graph_orbit_classes,
    eager_level_sequence_trees,
    free_tree_counts,
    free_tree_level_sequences,
    labeled_tree_classes,
    labeled_unicyclic_class_count,
    level_sequence_code,
    level_profile,
    level_sequence_trees,
    paren_to_level_sequence,
    prufer_decode,
    rooted_tree_counts,
    unicyclic_counts,
)

# OEIS A000055 and A001429, n = 0..30, as published.
OEIS_A000055 = [
    1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320, 48629,
    123867, 317955, 823065, 2144505, 5623756, 14828074, 39299897, 104636890, 279793450,
    751065460, 2023443032, 5469566585, 14830871802,
]
OEIS_A001429 = [
    0, 0, 0, 1, 2, 5, 13, 33, 89, 240, 657, 1806, 5026, 13999, 39260, 110381, 311465,
    880840, 2497405, 7093751, 20187313, 57537552, 164235501, 469406091, 1343268050,
    3848223585, 11035981711, 31679671920, 91021354454, 261741776369, 753265624291,
]

# Class counts within the enumerators' limits, from the counting oracle.
FREE_TREE_COUNTS = {n: c for n, c in enumerate(free_tree_counts(16)) if n >= 1}
UNICYCLIC_COUNTS = {n: c for n, c in enumerate(unicyclic_counts(14)) if n >= 3}


def test_counting_oracle_matches_oeis():
    assert free_tree_counts(30) == OEIS_A000055
    assert unicyclic_counts(30) == OEIS_A001429


def test_free_tree_counts():
    for n, expected in FREE_TREE_COUNTS.items():
        assert len(enumerate_trees(n)) == expected


def test_trees_match_level_sequence_reference():
    # Same trees (edge for edge) in the same order, each built as
    # graph_from_edges would build it.
    for n in range(1, 17):
        trees = enumerate_trees(n)
        assert [g.edges for g in trees] == level_sequence_trees(n)
        assert all(g == graph_from_edges(g.n, g.edges) for g in trees)


def test_free_trees_match_the_list_reference():
    # The bytes generator against the list one it replaced, step for step,
    # and the records against the sort and edges of its sequences.  The
    # cut and equal-height flag, taken from the generator's own test and
    # measured again only where a step rewrote them, are each tree's.
    for n in range(1, 17):
        reference = list(map(bytes, free_tree_level_sequences(n)))
        steps = list(enumeration._free_trees(n))
        assert [seq for seq, *_ in steps] == reference
        for (before, *_), (seq, p, *_) in zip(steps, steps[1:]):
            assert 1 <= p < n and seq[:p] == before[:p]
        for seq, _, cut, bicentral in steps:
            second = seq.find(1, 2)
            assert cut == (n if second < 0 else second)
            assert bicentral == (max(seq[1:cut], default=0) > max(seq[cut:], default=0))
        assert list(enumeration._tree_records(n)) == [
            bytes(chain.from_iterable(level_sequence_edges(seq)))
            for seq in sorted(reference, key=level_sequence_code)
        ]


def test_stepped_profiles_match_the_whole_decode():
    # Parents and degrees stepped along the successor from its rewritten
    # position, against a decode of each level sequence whole.
    for n in range(1, 17):
        steps = list(enumeration._free_trees(n))
        profiles = list(enumeration._level_profiles(steps, n, 0))
        assert [seq for *_, seq in profiles] == [seq for seq, *_ in steps]
        assert [(p, top, root) for p, top, root, _ in profiles] == [
            level_profile(seq, 0) for seq, *_ in steps
        ]
    counts = rooted_tree_counts(14)
    for s in range(1, 15):
        letters = enumeration._rooted_letters(s)
        assert len(letters) == counts[s]
        for index, profile, top, root, seq in letters:
            assert (profile, top, root) == level_profile(seq, 2)


def test_bracelet_compositions_match_the_scan_reference():
    # Necklaces generated in order and tested for reflections, against every
    # composition tested whole: the same compositions in the same order,
    # each with the same symmetries, compared as the positions they read.
    for n in range(3, 17):
        fast = list(enumeration._bracelet_compositions(n))
        slow = list(bracelet_compositions_by_scan(n))
        assert [comp for comp, _ in fast] == [comp for comp, _ in slow]
        for (comp, symmetries), (_, reference) in zip(fast, slow):
            positions = tuple(range(len(comp)))
            assert [g(positions) for g in symmetries] == [g(positions) for g in reference]


def test_bracelets_match_the_product_reference():
    # Words built position by position, sums shared by prefix, against each
    # word taken whole from itertools.product and summed from scratch.
    for n in range(3, 15):
        assert list(enumeration._bracelets(n)) == list(bracelets_by_product(n))


def test_lazy_trees_match_the_eager_reference():
    for n in range(1, 13):
        assert list(enumerate_trees(n)) == eager_level_sequence_trees(n)


# Both listings share one record format, decoder and lazy sequence; each
# is checked at a size where it is quick: (listing, n, classes, classes of
# maximum degree 4).
_LISTINGS = {
    "tree": (enumerate_trees, 12, FREE_TREE_COUNTS[12], 220),
    "unicyclic": (enumerate_unicyclic, 10, UNICYCLIC_COUNTS[10], 295),
}


def _check_lazy_sequence(monkeypatch, graph_class):
    listing, n, count, _ = _LISTINGS[graph_class]
    enumeration._RECORDS[graph_class](n)  # generated, and chords keyed, before the watch
    built = []
    build = enumeration._record_tree
    monkeypatch.setattr(enumeration, "_record_tree", lambda rec, size: built.append(rec) or build(rec, size))
    graphs = listing(n)
    assert len(graphs) == count
    assert not built  # len builds no graph
    first = list(graphs)
    assert list(graphs) == first  # re-iterable, equal graphs each time
    assert len(built) == 2 * len(first)
    assert graphs[5:40:3] == first[5:40:3]
    assert graphs[::-1] == first[::-1]
    assert graphs[-1] == first[-1]
    assert list(listing(n, 4)[:7]) == [g for g in first if max_degree(g) == 4][:7]


def test_lazy_tree_sequence(monkeypatch):
    _check_lazy_sequence(monkeypatch, "tree")


def test_lazy_unicyclic_sequence(monkeypatch):
    _check_lazy_sequence(monkeypatch, "unicyclic")


def test_tree_degree_filters_partition_the_class():
    for n in range(1, 17):
        trees = list(enumerate_trees(n))
        degrees = list(map(max_degree, trees))
        parts = [list(enumerate_trees(n, d)) for d in range(min(1, n - 1), n)]
        assert sum(map(len, parts)) == len(trees)
        for d, part in zip(range(min(1, n - 1), n), parts):
            assert part == [g for g, top in zip(trees, degrees) if top == d]


def _check_unfiltered_listing_computes_no_degree(monkeypatch, graph_class):
    listing, n, count, _ = _LISTINGS[graph_class]

    def refuse(record):
        raise AssertionError(f"a {graph_class} degree was computed")

    enumeration._max_degrees.cache_clear()
    monkeypatch.setattr(enumeration, "_record_max_degree", refuse)
    graphs = listing(n)
    assert len(list(graphs)) == len(graphs) == count
    assert graphs[3:9] == list(graphs)[3:9]
    with pytest.raises(AssertionError, match="degree was computed"):
        listing(n, 4)


def test_an_unfiltered_tree_listing_computes_no_degree(monkeypatch):
    _check_unfiltered_listing_computes_no_degree(monkeypatch, "tree")


def test_an_unfiltered_unicyclic_listing_computes_no_degree(monkeypatch):
    _check_unfiltered_listing_computes_no_degree(monkeypatch, "unicyclic")


def _check_counts_compute_each_degree_once(monkeypatch, capsys, graph_class):
    _, n, count, at_four = _LISTINGS[graph_class]
    seen = []
    degree = enumeration._record_max_degree
    monkeypatch.setattr(
        enumeration, "_record_max_degree", lambda rec: seen.append(rec) or degree(rec)
    )
    enumeration._max_degrees.cache_clear()
    for argv in (["--count-only"], ["--count-only", "--delta", "4"], ["--delta", "4"]):
        assert dispatch(["enumerate", "--class", graph_class, "--n", str(n), *argv]) == 0
        assert sorted(seen) == sorted(enumeration._RECORDS[graph_class](n))
    out = capsys.readouterr().out
    assert f"total={count}" in out and f"delta=4 count={at_four}\ntotal={at_four}" in out


def test_tree_counts_compute_each_degree_once(monkeypatch, capsys):
    _check_counts_compute_each_degree_once(monkeypatch, capsys, "tree")


def test_unicyclic_counts_compute_each_degree_once(monkeypatch, capsys):
    _check_counts_compute_each_degree_once(monkeypatch, capsys, "unicyclic")


def test_unicyclic_counts():
    for n in range(3, 14):  # n = 14 runs in its own process, below
        assert len(enumerate_unicyclic(n)) == UNICYCLIC_COUNTS[n]


# A forked child's peak RSS starts from the RSS of the process it was forked
# from, so the command is started by a fresh interpreter, which prints the
# command's output and then its exit code and peak RSS in kilobytes.
_PEAK_RSS_RUNNER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE)
out = proc.stdout.read()
proc.stdout.close()
_, status, usage = os.wait4(proc.pid, 0)
sys.stdout.buffer.write(out)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _run_for_peak_rss(*argv: str) -> tuple[list[str], int]:
    """Output lines and peak RSS in kilobytes of a successful ``python argv``."""
    src = str(Path(sumconn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_RUNNER, sys.executable, *argv],
        env=env, stdout=subprocess.PIPE, check=True, text=True,
    ).stdout.splitlines()
    code, peak_kb = map(int, out[-1].split())
    assert code == 0
    return out[:-1], peak_kb


def test_unicyclic_count_at_the_limit_in_bounded_memory():
    out, peak_kb = _run_for_peak_rss(
        "-m", "sumconn.cli", "enumerate", "--class", "unicyclic", "--n", "14", "--count-only"
    )
    assert out[-1] == f"total={UNICYCLIC_COUNTS[14]}"
    assert peak_kb < 60 * 1024
    # the listing's per-degree counts are the bracelets' at its limit too
    tops = Counter(top for top, _, _ in unicyclic_bracelets(14))
    assert out[:-1] == [f"delta={d} count={tops[d]}" for d in sorted(tops)]


def test_top_two_at_the_listing_limit_in_bounded_memory():
    out, peak_kb = _run_for_peak_rss(
        "-m", "sumconn.cli", "verify", "--class", "toptwo", "--n", "14"
    )
    assert out[0] == f"top-two ranking over {UNICYCLIC_COUNTS[14]} unicyclic graphs on 14 vertices"
    assert out[-1] == "result: PASS"
    assert peak_kb < 40 * 1024


def test_top_two_at_the_verification_limit_in_bounded_memory():
    # 311,465 bracelets (OEIS A001429) keyed by value; only kept groups held
    out, peak_kb = _run_for_peak_rss(
        "-m", "sumconn.cli", "verify", "--class", "toptwo", "--n", "16"
    )
    assert out[0] == f"top-two ranking over {OEIS_A001429[16]} unicyclic graphs on 16 vertices"
    assert out[-1] == "result: PASS"
    assert peak_kb < 40 * 1024


def test_bracelet_counts_match_the_oracle_and_the_listing():
    for n in range(3, 15):
        tops = Counter(top for top, _, _ in unicyclic_bracelets(n))
        assert sum(tops.values()) == UNICYCLIC_COUNTS[n]
        if n < 14:  # n = 14's listing runs in its own process, above
            assert tops == {d: len(enumerate_unicyclic(n, (d, d))) for d in range(2, n)}


def test_bracelet_graphs_are_the_listed_classes():
    for n in range(3, 13):
        codes = [canonical_code(bracelet_graph(word)) for _, _, word in unicyclic_bracelets(n)]
        assert len(set(codes)) == len(codes)
        assert set(codes) == {canonical_code(g) for g in enumerate_unicyclic(n)}


def test_bracelet_profiles_are_read_without_a_graph():
    for n in range(3, 11):
        for top, profile, word in unicyclic_bracelets(n):
            g = bracelet_graph(word)
            assert g == graph_from_edges(g.n, g.edges) and is_unicyclic(g) and g.n == n
            deg = g.degrees()
            assert profile_counts(profile) == Counter(deg[u] + deg[v] for u, v in g.edges)
            assert top == max(deg)


def test_tree_profiles_are_read_without_a_graph():
    for n in range(1, 13):
        profiles = list(tree_profiles(n))
        assert len(profiles) == FREE_TREE_COUNTS[n]
        # the profiles come in generator order: each is matched to the
        # oracle's tree, whose edges it builds itself, by canonical code
        coded = {canonical_code(_level_sequence_tree(seq)): (top, p) for top, p, seq in profiles}
        oracle = {
            canonical_code(g): g for g in (graph_from_edges(n, e) for e in level_sequence_trees(n))
        }
        assert coded.keys() == oracle.keys() and len(coded) == len(profiles)
        for code, (top, profile) in coded.items():
            g = oracle[code]
            deg = g.degrees()
            assert profile_counts(profile) == Counter(deg[u] + deg[v] for u, v in g.edges)
            assert top == max(deg)


_VALUE_ALL_TREES = """
from sumconn.enumeration import enumerate_trees
from sumconn.indices import sum_connectivity
trees = enumerate_trees(16)
print(len(trees))
print(max(map(sum_connectivity, trees)))
"""


def test_trees_valued_at_the_limit_in_bounded_memory():
    out, peak_kb = _run_for_peak_rss("-c", _VALUE_ALL_TREES)
    assert out == [str(FREE_TREE_COUNTS[16]), str(sum_connectivity(path_graph(16)))]
    assert peak_kb < 40 * 1024


def test_tree_verification_at_the_limit_in_bounded_memory():
    # ranks every degree of the 19,320 trees, one profile per tree
    out, peak_kb = _run_for_peak_rss(
        "-m", "sumconn.cli", "verify", "--class", "tree", "--n", "16", "--delta", "8"
    )
    assert out[0] == "class: tree  n=16  delta=8  class size: 330"
    assert out[-1] == "result: PASS"
    assert peak_kb < 40 * 1024


def test_unicyclic_matches_chord_dedup_reference():
    # Same representatives (edge for edge) in the same order.
    for n in range(3, 13):
        unicyclic = enumerate_unicyclic(n)
        assert [g.edges for g in unicyclic] == chord_dedup_unicyclic(n)
        assert all(g == graph_from_edges(g.n, g.edges) for g in unicyclic)
    reference = chord_dedup_unicyclic(8)
    for delta in range(2, 8):
        expected = [e for e in reference if max_degree(graph_from_edges(8, e)) == delta]
        assert [g.edges for g in enumerate_unicyclic(8, delta)] == expected
    expected = [e for e in reference if 3 <= max_degree(graph_from_edges(8, e)) <= 5]
    assert [g.edges for g in enumerate_unicyclic(8, (3, 5))] == expected


def _relabeled(rng: random.Random, n: int, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return graph_from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def _random_unicyclic(rng: random.Random, n: int):
    tree = prufer_decode(tuple(rng.randrange(n) for _ in range(n - 2)), n)
    chord = rng.choice([(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree])
    return _relabeled(rng, n, tree + [chord])


def _necklace_key(g):
    """Key of ``g`` as the enumerator computes it: spanning tree plus chord.
    Read from the unpruned reference, which keys every chord."""
    cycle = unique_cycle(g)
    chord = (min(cycle[:2]), max(cycle[:2]))
    tree = graph_from_edges(g.n, [e for e in g.edges if e != chord])
    return dict(chord_necklaces_unpruned(tree))[chord]


def _first_chords(pairs):
    first = {}
    for chord, key in pairs:
        first.setdefault(key, chord)
    return first


def test_orbit_pruning_keeps_every_key_and_its_first_chord():
    # The reference keys in AHU strings; each converted key must be the
    # production key, so the order reversal is checked on every key.
    for n in range(1, 13):
        for tree in enumerate_trees(n):
            pruned = list(_chord_necklaces(tree))
            full = [
                (chord, tuple(map(paren_to_level_sequence, key)))
                for chord, key in chord_necklaces_unpruned(tree)
            ]
            assert set(pruned) <= set(full)
            assert [chord for chord, _ in pruned] == sorted(chord for chord, _ in pruned)
            assert _first_chords(pruned) == _first_chords(full)


def test_branch_codes_from_slices_are_the_rooted_codes():
    # Every directed edge (c, w) of every tree in WROM labeling up to
    # n = 12: c's side, read off the level sequence, is rooted_code's.
    edges = 0
    for n in range(1, 13):
        for seq, *_ in enumeration._free_trees(n):
            tree = _level_sequence_tree(seq)
            adj = tree.adjacency
            parent, end, around = _tree_sides(tree)
            assert parent == [-1] + [seq.rfind(seq[v] - 1, 0, v) for v in range(1, n)]
            assert end == [next((i for i in range(v + 1, n) if seq[i] <= seq[v]), n) for v in range(n)]
            for w, sides in enumerate(around):
                assert sorted(sides) == list(adj[w])
                codes = list(sides.values())
                assert codes == sorted(codes, reverse=True)
                for c, code in sides.items():
                    assert code == _rooted_code(adj, c, (w,))
                    edges += 1
    assert edges == sum(2 * (n - 1) * FREE_TREE_COUNTS[n] for n in range(1, 13))


def test_pruning_keys_no_more_chords_than_the_path_rule():
    # 49,985 chords are keyed at n = 13 when an end v is skipped only for
    # the branch codes along its path from u; equal branch codes give equal
    # readings, so skipping v for its reading keys no more.
    keyed = sum(
        1
        for seq, *_ in enumeration._free_trees(13)
        for _ in _chord_necklaces(_level_sequence_tree(seq))
    )
    assert keyed <= 49_985


def test_necklace_keys_agree_with_canonical_codes():
    rng = random.Random(20121)
    outcomes = {True: 0, False: 0}
    for _ in range(400):
        n = rng.randrange(4, 9)
        a = _random_unicyclic(rng, n)
        if rng.random() < 0.5:  # an isomorphic copy, usually cut at another cycle edge
            b = _relabeled(rng, n, a.edges)
        else:
            b = _random_unicyclic(rng, n)
        same = canonical_code(a) == canonical_code(b)
        assert (_necklace_key(a) == _necklace_key(b)) == same
        outcomes[same] += 1
    assert min(outcomes.values()) >= 100


def test_all_yields_are_valid_and_distinct():
    for n in range(2, 10):
        trees = enumerate_trees(n)
        codes = [canonical_code(g) for g in trees]
        assert len(set(codes)) == len(codes)
        assert codes == sorted(codes)  # deterministic canonical-code order
        assert all(is_tree(g) and g.n == n for g in trees)
    for n in range(3, 9):
        unis = enumerate_unicyclic(n)
        codes = [canonical_code(g) for g in unis]
        assert len(set(codes)) == len(codes)
        assert codes == sorted(codes)
        assert all(is_unicyclic(g) and g.n == n for g in unis)


def test_delta_filters():
    stars = enumerate_trees(5, 4)
    assert len(stars) == 1
    assert canonical_code(stars[0]) == canonical_code(star_graph(5))
    u43 = enumerate_unicyclic(4, 3)
    assert len(u43) == 1
    assert canonical_code(u43[0]) == canonical_code(unicyclic_extremal(4, 3))
    assert len(enumerate_unicyclic(4)) == 2  # C_4 and the triangle with a pendant
    ranged = enumerate_trees(8, (2, 3))
    assert all(2 <= max_degree(g) <= 3 for g in ranged)
    assert len(ranged) == len(enumerate_trees(8, 2)) + len(enumerate_trees(8, 3))


def test_delta_partition_sums_to_total():
    for n in range(3, 13):
        total = len(enumerate_trees(n))
        assert total == FREE_TREE_COUNTS[n]
        assert total == sum(len(enumerate_trees(n, d)) for d in range(1, n))
    for n in range(3, 10):
        total = len(enumerate_unicyclic(n))
        assert total == sum(len(enumerate_unicyclic(n, d)) for d in range(2, n))


def test_size_limits():
    with pytest.raises(SizeLimitError):
        enumerate_trees(17)
    with pytest.raises(SizeLimitError):
        enumerate_trees(0)
    with pytest.raises(SizeLimitError):
        tree_profiles(17)
    with pytest.raises(SizeLimitError):
        tree_profiles(0)
    with pytest.raises(SizeLimitError):
        enumerate_unicyclic(2)
    with pytest.raises(SizeLimitError):
        enumerate_unicyclic(15)
    with pytest.raises(SizeLimitError):
        unicyclic_bracelets(2)
    with pytest.raises(SizeLimitError):
        unicyclic_bracelets(17)


def test_tree_counts_against_labeled_oracle():
    for n in range(2, 8):
        assert len(enumerate_trees(n)) == len(labeled_tree_classes(n))


def test_unicyclic_counts_against_labeled_oracle():
    for n in range(3, 8):
        assert len(enumerate_unicyclic(n)) == labeled_unicyclic_class_count(n)


def test_unicyclic_counts_against_orbit_oracle():
    # fully independent: edge-subset enumeration plus permutation closure
    for n in range(3, 7):
        assert len(enumerate_unicyclic(n)) == len(
            connected_graph_orbit_classes(n, edge_count=n)
        )
