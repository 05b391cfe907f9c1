import hashlib
from collections import Counter
from fractions import Fraction
from random import Random

import mpmath
import pytest

from sumconn import bounds, canon, construct
from sumconn.bounds import unicyclic_top_two
from sumconn.canon import canonical_code, canonical_form
from sumconn.construct import cycle_spider_family, spider_family, tree_extremal
from sumconn.enumeration import enumerate_trees, enumerate_unicyclic
from sumconn.enumeration import tree_profiles, unicyclic_bracelets
from sumconn.graphs import SizeLimitError, cycle_graph, star_graph
from sumconn import verify
from sumconn.indices import profile_counts, profile_value, sum_connectivity
from sumconn.radicals import RadicalValue
from sumconn.verify import (
    FamilyTooSmallError,
    _merge_top_two,
    _ranking,
    chi_r_correlation,
    degree_two_attachment_count,
    transform_monotonicity_suite,
    verify_top_two,
    verify_tree_max,
    verify_unicyclic_max,
)

from oracles import leading_groups_by_value, mp_terms, reciprocal_sqrt_terms


_value = RadicalValue.reciprocal_sqrt_sum


def test_tree_verification_first_branch():
    report = verify_tree_max(7, 4)
    assert report.passed and report.value_match and report.set_match
    assert len(report.argmax) == 1
    assert canonical_code(report.argmax[0]) == canonical_code(tree_extremal(7, 4))


def test_tree_verification_second_branch():
    report = verify_tree_max(7, 3)
    assert report.passed
    assert len(report.argmax) == 1
    assert canonical_code(report.argmax[0]) == canonical_code(spider_family(7, 3)[0])


def test_tree_verification_star_case():
    for n in range(4, 10):
        report = verify_tree_max(n, n - 1)
        assert report.passed
        assert report.class_size == 1
        assert report.brute_max == _value({n: n - 1})
        assert canonical_code(report.argmax[0]) == canonical_code(star_graph(n))


def test_unicyclic_verification_spots():
    r43 = verify_unicyclic_max(4, 3)
    assert r43.passed and len(r43.argmax) == 1
    assert r43.brute_max == _value({1: 1, 5: 2})
    r73 = verify_unicyclic_max(7, 3)
    assert r73.passed and len(r73.argmax) == 3
    r72 = verify_unicyclic_max(7, 2)
    assert r72.passed and r72.class_size == 1
    assert r72.brute_max == _value({1: Fraction(7, 2)})
    assert canonical_code(r72.argmax[0]) == canonical_code(cycle_graph(7))


def test_bound_never_exceeded():
    for n in range(4, 9):
        for d in range(2, n):
            assert verify_tree_max(n, d).bound_holds
            assert verify_unicyclic_max(n, d).bound_holds


def test_attachment_count_profile():
    # trees: k = n - delta - 1 in the high-degree branch, k = delta otherwise
    for n in range(4, 13):
        for d in range(2, n):
            report = verify_tree_max(n, d)
            expected_k = n - d - 1 if d >= (n + 1) // 2 else d
            assert set(report.k_profile.values()) == {expected_k}
    # unicyclic: k = n - delta - 1 or delta - 2 (cycle neighbors not counted)
    for n in range(4, 12):
        for d in range(2, n):
            report = verify_unicyclic_max(n, d)
            expected_k = n - d - 1 if d >= (n + 3) // 2 else d - 2
            assert set(report.k_profile.values()) == {expected_k}


def test_verification_range_checks():
    # construct.RANGES and construct.TOP_TWO own every limit
    with pytest.raises(SizeLimitError):
        verify_tree_max(17, 4)
    with pytest.raises(SizeLimitError):
        verify_unicyclic_max(17, 4)
    with pytest.raises(SizeLimitError):
        verify_top_two(17)
    with pytest.raises(ValueError, match=r"top-two ranking graphs: n must lie in \[4, 16\], got 3"):
        verify_top_two(3)


def _codes(graphs):
    """Sorted canonical codes: the classes of ``graphs``, one per graph."""
    return sorted(map(canonical_code, graphs))


def test_verification_reaches_the_enumeration_limits(held_records):
    # one delta on each side of is_large_delta at the larger sizes
    for n, d in ((16, 5), (16, 9)):
        assert verify_tree_max(n, d).passed
    for n, d in ((13, 4), (13, 8)):
        report = verify_unicyclic_max(n, d)
        assert report.passed
        # the argmax group holds the listing's classes of that value
        members = enumerate_unicyclic(n, d)
        assert _codes(report.argmax) == _codes(
            g for g in members if sum_connectivity(g) == report.brute_max
        )
    top = verify_top_two(12)
    assert top.passed and top.first_value > top.second_value
    assert _codes(top.second) == _codes(
        g for g in enumerate_unicyclic(12) if sum_connectivity(g) == top.second_value
    )
    # verification reads bracelets alone, with no listing
    assert verify_unicyclic_max(15, 5).passed
    assert -1.0 <= chi_r_correlation(16, 4) <= 1.0


def test_degree_ranking_matches_the_listing(held_records):
    for graph_class, listing, ns in (
        ("tree", enumerate_trees, range(3, 13)),
        ("unicyclic", enumerate_unicyclic, range(3, 12)),
    ):
        for n in ns:
            ranking = _ranking(graph_class, n)
            assert sorted(ranking) == list(range(2, n))
            for d, (count, groups) in ranking.items():
                members = listing(n, (d, d))
                listed_count, listed = leading_groups_by_value(members, 2)
                assert count == listed_count == len(members)
                assert [(v, _codes(gs)) for v, gs in groups] == [
                    (v, _codes(gs)) for v, gs in listed
                ]


def test_merged_top_two_matches_the_listing():
    for n in range(4, 12):
        total, merged = _merge_top_two(_ranking("unicyclic", n).values())
        count, listed = leading_groups_by_value(enumerate_unicyclic(n), 2)
        assert total == count
        assert [(v, _codes(gs)) for v, gs in merged] == [(v, _codes(gs)) for v, gs in listed]


def test_merge_keeps_a_runner_up_that_leads_no_degree():
    one, two, three = _value({1: 1}), _value({2: 1}), _value({3: 1})  # decreasing
    ranking = [
        (2, [(one, ["a"]), (two, ["b"])]),
        (1, [(three, ["c"])]),
        (3, [(one, ["d"]), (three, ["e"])]),
    ]
    assert _merge_top_two(ranking) == (6, [(one, ["a", "d"]), (two, ["b"])])


def test_top_two_values_nothing_the_degree_checks_valued(monkeypatch):
    # One ranking pass per class and n serves every delta and top-two:
    # once it has run, a check values its closed forms and nothing else.
    n = 10
    _ranking.cache_clear()
    none = {"values": 0, "graphs": 0}
    calls = dict(none)

    def counted_values(profile):
        calls["values"] += 1
        return profile_value(profile)

    def counted_graphs(g):
        calls["graphs"] += 1
        return sum_connectivity(g)

    # ``indices.profile_value`` is where profiles are valued, as the
    # ranking pass and ``bounds`` each look it up.
    monkeypatch.setattr(verify, "profile_value", counted_values)
    monkeypatch.setattr(bounds, "profile_value", counted_values)
    monkeypatch.setattr(verify, "sum_connectivity", counted_graphs)
    assert verify_unicyclic_max(n, 4).passed
    assert calls["values"] > 0
    passes = _ranking.cache_info().misses
    calls.update(none)
    assert verify_top_two(n).passed
    assert calls == {"values": 2, "graphs": 0}  # the first and second closed forms
    assert verify_tree_max(n, 3).passed
    assert calls["values"] > 0 and _ranking.cache_info().misses == passes + 1
    calls.update(none)
    others = [d for d in range(2, n) if d != 3]
    assert all(verify_tree_max(n, d).passed for d in others)
    assert calls == {"values": len(others), "graphs": 0}
    assert _ranking.cache_info().misses == passes + 1


def _pairs(graph_class, n):
    """Each (degree, profile) pair of the n-vertex class, with its count."""
    classes = tree_profiles(n) if graph_class == "tree" else unicyclic_bracelets(n)
    return Counter((delta, profile) for delta, profile, _ in classes)


def test_value_keys_rank_enumerated_profiles_as_exact_values():
    # Every (degree, profile) pair of trees n <= 12 and bracelets n <= 11,
    # valued as the ranking values it, against the Fraction-term reference.
    references: dict[RadicalValue, dict] = {}
    for graph_class, n in [
        *(("tree", n) for n in range(3, 13)),
        *(("unicyclic", n) for n in range(3, 12)),
    ]:
        by_degree: dict[int, set[RadicalValue]] = {}
        for delta, profile in _pairs(graph_class, n):
            counts = profile_counts(profile)
            value = _value(counts)
            reference = reciprocal_sqrt_terms(Counter(counts).elements())
            assert dict(value) == reference
            assert references.setdefault(value, reference) == reference
            by_degree.setdefault(delta, set()).add(value)
        # each degree keeps the two largest exact values of its profiles
        for delta, values in by_degree.items():
            groups = _ranking(graph_class, n)[delta][1]
            assert [v for v, _ in groups] == sorted(values, reverse=True)[:2]
    # values are equal exactly when their references are, and ordered as
    # their references' values at 60 digits
    assert len({tuple(sorted(r.items())) for r in references.values()}) == len(references)
    with mpmath.workdps(60):
        exact = sorted(references, key=lambda v: mp_terms(references[v]))
    assert sorted(references) == exact


def test_ranking_values_each_degree_profile_pair_once(monkeypatch):
    # From a cold pass, each distinct (degree, profile) pair is valued
    # exactly once, and its value is its group's key: nothing is valued
    # again at the end of the pass.
    valued = []

    def counted_values(profile):
        valued.append(profile)
        return profile_value(profile)

    monkeypatch.setattr(verify, "profile_value", counted_values)
    for graph_class, ns in (("tree", range(4, 13)), ("unicyclic", range(4, 12))):
        for n in ns:
            _ranking.cache_clear()
            valued.clear()
            _ranking(graph_class, n)
            assert len(valued) == len(_pairs(graph_class, n))


def test_top_two_spots():
    r4 = verify_top_two(4)
    assert r4.passed
    assert r4.first_value == _value({1: 2}) and len(r4.first) == 1
    assert r4.second_value == _value({1: 1, 5: 2}) and len(r4.second) == 1

    r5 = verify_top_two(5)
    assert r5.passed
    assert r5.second_value == _value({1: Fraction(1, 2), 3: 1, 5: 3})

    r7 = verify_top_two(7)
    assert r7.passed and len(r7.second) == 3
    expected = {canonical_code(g) for g in cycle_spider_family(7, 3)}
    assert {canonical_code(g) for g in r7.second} == expected
    # strict gap between rank one and rank two
    assert r7.first_value > r7.second_value


def test_top_two_matches_closed_form():
    for n in range(4, 9):
        report = verify_top_two(n)
        bound = unicyclic_top_two(n)
        assert report.passed
        assert report.first_value == bound.first_value
        assert report.second_value == bound.second_value
        assert report.first_value > report.second_value


def test_argmax_cardinality_matches_branch():
    for n in range(4, 10):
        for d in range(2, n):
            r = verify_tree_max(n, d)
            if d >= (n + 1) // 2:
                assert len(r.argmax) == 1
            else:
                assert len(r.argmax) == len(spider_family(n, d))
            ru = verify_unicyclic_max(n, d)
            if d >= (n + 3) // 2:
                assert len(ru.argmax) == 1
            else:
                assert len(ru.argmax) == len(cycle_spider_family(n, d))


def test_monotonicity_suite():
    report = transform_monotonicity_suite(60, seed=3)
    assert report.passed
    assert not report.merge_violations and not report.reattach_violations
    assert report.warning is None


def test_every_report_is_immutable():
    reports = [
        verify_tree_max(5, 2),
        verify_top_two(4),
        transform_monotonicity_suite(3, seed=1),
        verify.run_sweeps([4], [4], [4]),
    ]
    for report in reports:
        for field in report._fields:
            with pytest.raises(AttributeError):
                setattr(report, field, getattr(report, field))
    assert reports[2].merge_violations == reports[2].reattach_violations == ()


def test_reports_hold_canonical_forms_each_made_once(monkeypatch):
    # From a cold ranking, each graph is canonicalized once, when its report
    # is built: bracelets are built canonical, and rendering codes nothing.
    _ranking.cache_clear()
    code = canon.canonical_code
    coded = []

    def counted(g):
        coded.append(g)  # held, so no two of them share an id
        return code(g)

    monkeypatch.setattr(canon, "canonical_code", counted)
    sweep = verify.run_sweeps(range(4, 9), range(4, 8), range(4, 8))
    assert coded and len({id(g) for g in coded}) == len(coded)
    assert all(g in _families(g.n) for g in coded if g.m == g.n)
    built = len(coded)
    sweep.to_json_dict()
    sweep.to_text()
    for r in sweep.tree_reports + sweep.unicyclic_reports + sweep.top_two_reports:
        r.to_json_dict()
        r.to_text()
    assert len(coded) == built
    monkeypatch.undo()
    held = [
        *(g for r in sweep.tree_reports + sweep.unicyclic_reports for g in r.argmax + r.expected),
        *(g for r in sweep.top_two_reports for g in r.first + r.second),
    ]
    assert held and all(canonical_form(g) == g for g in held)


def _families(n):
    """Every member of the unicyclic extremal families on n vertices."""
    return {
        g
        for d in range(2, n)
        for g in construct.extremal_family(construct.GraphClassSpec(n, d, "unicyclic"))
    }


def test_a_missing_family_member_fails_the_set_match(monkeypatch):
    # Argmax sets are compared with the whole family: one member fewer fails.
    def short(spec):
        family = construct.extremal_family(spec)
        return family[:-1] if spec.delta == dropped else family

    monkeypatch.setattr(verify, "extremal_family", short)
    # Canonical families are made once per spec: this test's own, from
    # ``short``, are kept out of the module's cache, and it keeps none.
    uncached = verify._canonical_family.__wrapped__
    monkeypatch.setattr(verify, "_canonical_family", uncached)
    dropped = 3
    report = verify_tree_max(9, 3)  # two spiders
    assert report.value_match and not report.set_match and not report.passed
    top = verify_top_two(7)  # three cycle spiders second
    assert top.first_set_match and not top.second_set_match and not top.passed
    dropped = 2
    top = verify_top_two(7)  # the 7-cycle first
    assert not top.first_set_match and top.second_set_match and not top.passed


def test_top_two_reads_the_families_its_degrees_verified(monkeypatch):
    # The degree-2 and degree-3 unicyclic families are built and
    # canonicalized once, for their own maximum, and top-two reuses them.
    built = []

    def counted(spec):
        built.append(spec)
        return construct.extremal_family(spec)

    monkeypatch.setattr(verify, "extremal_family", counted)
    assert verify_unicyclic_max(10, 2).passed and verify_unicyclic_max(10, 3).passed
    built.clear()
    assert verify_top_two(10).passed
    assert built == []


def test_monotonicity_suite_vacuous():
    report = transform_monotonicity_suite(0)
    assert report.passed
    assert report.warning is not None


def test_monotonicity_suite_rejects_negative():
    with pytest.raises(ValueError):
        transform_monotonicity_suite(-1)


@pytest.mark.parametrize("seed", [-1, -5])
def test_monotonicity_suite_rejects_a_negative_seed(seed):
    # random.Random(-s) is seeded exactly as Random(s): -5 would rerun seed 5.
    with pytest.raises(ValueError, match=f"seed must be nonnegative, got {seed}"):
        transform_monotonicity_suite(10, seed=seed)


@pytest.mark.parametrize("seed", range(4))
def test_uniform_below_draws_as_randrange_randint_and_choice(seed):
    # The suite's one draw primitive, run in lockstep against a twin
    # generator with coins in between: on a Python whose randrange, randint
    # or choice read the stream otherwise, this fails by name, before any
    # pinned digest does.
    rng, twin = Random(seed), Random(seed)
    below = verify._uniform_below(rng)
    for k in [*range(1, 131), 2**31 - 1, 2**31 + 1, 10**12]:
        assert below(k) == twin.randrange(k), k
        assert -3 + below(k) == twin.randint(-3, k - 4), k
        s = range(7, 7 + 3 * k, 3)
        assert s[below(len(s))] == twin.choice(s), k
        assert rng.random() == twin.random(), k


def _instance_digest(monkeypatch, seed: int, trials: int) -> str:
    """sha256 of every (graph, witnesses) the suite passes to either rewrite,
    in call order, over ``trials`` trials of each."""
    digest = hashlib.sha256()
    for name in ("merge_pendant_paths", "reattach_to_pendant"):
        def record(g, *witnesses, _name=name, _rewrite=getattr(verify, name)):
            digest.update(f"{_name} {g.n} {g.edges} {witnesses}\n".encode())
            return _rewrite(g, *witnesses)

        monkeypatch.setattr(verify, name, record)
    assert transform_monotonicity_suite(trials, seed).passed
    monkeypatch.undo()
    return digest.hexdigest()


# (seed, trials of each rewrite, sha256 of the instances); a row's test id
# is its seed and digest.
PINNED_INSTANCES = [
    (0, 1000, "2561b34ee58321452c44294ed27ccaf073627bf40fe0f3c362c035c0766d2b9c"),
    (1, 1000, "ae649f78e93db4228230e880a9093e69e3e5bdf4a44bf1733a0a5cb51b49d707"),
    # the instances the benchmark's transforms-seeded workload checks
    (1, 3000, "20fbe9ce4322e57aca5dd9880c2963ba84153435171f646359467f07bf320bef"),
]


@pytest.mark.parametrize(
    "seed, trials, expected",
    PINNED_INSTANCES,
    ids=[f"{seed}-{expected}" for seed, _, expected in PINNED_INSTANCES],
)
def test_monotonicity_suite_instances_are_pinned(monkeypatch, seed, trials, expected):
    # The sampler may change how it finds a chord or a candidate, not which
    # random numbers it draws or in what order: the instances stay these.
    assert _instance_digest(monkeypatch, seed, trials) == expected


def test_correlation():
    value = chi_r_correlation(5, 4)
    assert -1.0 <= value <= 1.0
    with pytest.raises(FamilyTooSmallError):
        chi_r_correlation(4, 4)  # only two trees on 4 vertices
    with pytest.raises(ValueError):
        chi_r_correlation(3, 2)


def test_degree_two_attachment_count_on_cycles():
    assert degree_two_attachment_count(cycle_graph(6)) == 0


def test_report_json_shape():
    data = verify_tree_max(6, 3).to_json_dict()
    assert data["kind"] == "extremal"
    assert data["class"] == "tree" and data["n"] == 6 and data["delta"] == 3
    assert set(data["match"]) == {"value", "set"}
    assert data["argmax"] == data["expected"]
    assert isinstance(data["formula"]["terms"], list)
    top = verify_top_two(5).to_json_dict()
    assert top["kind"] == "top_two" and top["passed"] is True
