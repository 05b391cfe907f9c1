"""Acceptance suite: every headline claim, checked at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (run with ``pytest -s`` to see them
all).  Exact claims are compared as RadicalValue terms; the quoted float
values are frozen from the independent derivations in this repository's
tests and oracles.
"""

import hashlib
import json
import time
from fractions import Fraction

from sumconn.bounds import unicyclic_bound_profile
from sumconn.canon import canonical_code
from sumconn.cli import dispatch
from sumconn.construct import cycle_spider_family, tree_extremal, unicyclic_extremal
from sumconn.enumeration import enumerate_trees, enumerate_unicyclic
from sumconn.graph6 import emit_graph6, parse_graph6
from sumconn.graphs import cycle_graph, path_graph
from sumconn.indices import sum_connectivity
from sumconn.radicals import RadicalValue
from sumconn.verify import (
    chi_r_correlation,
    transform_monotonicity_suite,
    verify_top_two,
    verify_tree_max,
    verify_unicyclic_max,
)

from oracles import labeled_tree_classes, labeled_unicyclic_class_count


def _report(ok: bool, label: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def _rs(s: int) -> RadicalValue:
    return RadicalValue.reciprocal_sqrt(s)


def test_criterion_1_tree_maximum_sweep():
    start = time.perf_counter()
    failures = []
    for n in range(4, 13):
        for delta in range(2, n):
            report = verify_tree_max(n, delta)
            if not (report.value_match and report.set_match and report.bound_holds):
                failures.append((n, delta))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed <= 60.0
    _report(ok, f"criterion 1: tree maxima n=4..12, all deltas ({elapsed:.1f}s)")


def test_criterion_2_unicyclic_maximum_sweep():
    start = time.perf_counter()
    failures = []
    for n in range(4, 12):
        for delta in range(2, n):
            report = verify_unicyclic_max(n, delta)
            if not (report.value_match and report.set_match and report.bound_holds):
                failures.append((n, delta))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed <= 90.0
    _report(ok, f"criterion 2: unicyclic maxima n=4..11, all deltas ({elapsed:.1f}s)")


def test_criterion_3_top_two_ranking():
    ok = True
    for n in range(4, 12):
        report = verify_top_two(n)
        ok &= report.first_value == Fraction(n, 2)
        ok &= {canonical_code(g) for g in report.first} == {canonical_code(cycle_graph(n))}
        if n == 4:
            ok &= report.second_value == 1 + _rs(5) * 2
            ok &= {canonical_code(g) for g in report.second} == {
                canonical_code(unicyclic_extremal(4, 3))
            }
        else:
            ok &= report.second_value == Fraction(n - 4, 2) + _rs(3) + _rs(5) * 3
            ok &= {canonical_code(g) for g in report.second} == {
                canonical_code(g) for g in cycle_spider_family(n, 3)
            }
        if n == 7:
            ok &= len(report.second) == 3
    _report(ok, "criterion 3: top-two unicyclic ranking n=4..11")


def test_criterion_4_spot_values():
    ok = True
    u43 = sum_connectivity(unicyclic_extremal(4, 3))
    ok &= u43 == 1 + _rs(5) * 2
    ok &= abs(float(u43) - 1.8944271909999157) <= 1e-9
    for n in range(3, 17):
        ok &= sum_connectivity(cycle_graph(n)) == Fraction(n, 2)
        ok &= sum_connectivity(path_graph(n)) == Fraction(n - 3, 2) + _rs(3) * 2
    t74 = sum_connectivity(tree_extremal(7, 4))
    ok &= t74 == _rs(5) * 2 + _rs(6) * 2 + _rs(3) * 2
    ok &= abs(float(t74) - 2.8656243103068935) <= 1e-6
    _report(ok, "criterion 4: spot values for the named graphs")


def test_criterion_5_transform_monotonicity():
    start = time.perf_counter()
    report = transform_monotonicity_suite(1000, seed=0)
    elapsed = time.perf_counter() - start
    ok = (
        report.merge_trials == 1000
        and report.reattach_trials == 1000
        and not report.merge_violations
        and not report.reattach_violations
        and elapsed <= 10.0
    )
    _report(ok, f"criterion 5: 1000+1000 rewrite trials, zero violations ({elapsed:.1f}s)")


def test_criterion_6_enumeration_counts():
    tree_expected = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}
    unicyclic_expected = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89, 9: 240, 10: 657}
    ok = all(len(enumerate_trees(n)) == c for n, c in tree_expected.items())
    ok &= all(len(enumerate_unicyclic(n)) == c for n, c in unicyclic_expected.items())
    # independent labeled-enumeration oracle up to n = 8
    ok &= all(len(labeled_tree_classes(n)) == tree_expected[n] for n in range(2, 9))
    ok &= all(
        labeled_unicyclic_class_count(n) == unicyclic_expected[n] for n in range(3, 9)
    )
    _report(ok, "criterion 6: enumeration counts, labeled oracle agreement to n=8")


def test_criterion_7_profile_strictly_decreasing():
    ok = True
    for n in range(5, 17):
        xs = [k / 10 for k in range(20, 10 * (n - 1) + 1)]
        values = [unicyclic_bound_profile(n, x) for x in xs]
        ok &= all(a > b for a, b in zip(values, values[1:]))
    _report(ok, "criterion 7: relaxed bound strictly decreasing on x=2.0..n-1")


def test_criterion_8_index_correlation():
    value = chi_r_correlation(12, 4)
    ok = value > 0.9
    _report(ok, f"criterion 8: chi/R Pearson correlation {value:.5f} > 0.9 (n=12, maxdeg<=4)")


def test_criterion_9_round_trip_and_determinism(tmp_path):
    ok = True
    for n in range(1, 11):
        for g in enumerate_trees(n):
            ok &= parse_graph6(emit_graph6(g)).edges == g.edges
    for n in range(3, 11):
        for g in enumerate_unicyclic(n):
            ok &= parse_graph6(emit_graph6(g)).edges == g.edges
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    rc1 = dispatch(["verify", "--all", "--json", str(first)])
    rc2 = dispatch(["verify", "--all", "--json", str(second)])
    ok &= rc1 == 0 and rc2 == 0
    report = first.read_bytes()
    ok &= report == second.read_bytes()
    ok &= json.loads(report)["passed"] is True
    ok &= len(report) == 95515
    ok &= (
        hashlib.sha256(report).hexdigest()
        == "9ae815cee55bd7052e2babb4d8169ef28c0387206711c06a718b12ff6dbda416"
    )
    _report(ok, "criterion 9: graph6 round-trip n<=10, byte-identical, pinned verify --all")
