"""Brute-force verification of the closed-form maxima and rankings.

Every claim is re-derived from scratch: the relevant family is enumerated
exhaustively, exact index values are compared, and the leading value
groups are matched against the characterized graphs by canonical code.
Comparisons are exact throughout; floats appear only in rendered reports.
Each report is an immutable NamedTuple with ``passed`` and its two
renderings, ``to_json_dict()`` and ``to_text()``, which ``sumconn verify``
writes as they are.

Both classes are ranked the same way: one cached pass per class and n
(``_ranking``), over ``tree_profiles`` or ``unicyclic_bracelets``, values
packed edge-type profiles, not graphs (``indices.profile_value``), groups
classes by value and keeps each maximum degree's two leading groups.  The
per-degree maxima read it, and top-two merges the unicyclic groups
(``_merge_top_two``).  No report depends on the order in which classes
arrive: graph6 strings and ``k_profile`` are serialized sorted, and
argmax sets are compared as sets of canonical codes.

Verification reaches n = 16 (``graphs.MAX_VERTICES``) for trees,
unicyclic graphs and top-two.  No range is written here: each is read from
``construct.RANGES`` or ``TOP_TWO``, through ``GraphClassSpec``, the profile
listings and ``extremal_family``.  ``run_sweeps`` defaults to the standard
sweep (trees n = 4..12, unicyclic graphs and top-two n = 4..11);
``run_sweeps(range(4, 17), range(4, 15), range(4, 15))`` is the extended
one, pinned in CI.
"""

from __future__ import annotations

from bisect import bisect
from collections.abc import Sequence
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .bounds import tree_max_bound, unicyclic_max_bound, unicyclic_top_two
from .canon import canonical_code, canonical_form
from .construct import RANGES, TOP_TWO, TOP_TWO_DEGREES, DeltaRangeError, GraphClassSpec
from .construct import attach_path, extremal_family
from .enumeration import _level_sequence_tree, bracelet_graph, enumerate_trees, tree_profiles
from .enumeration import unicyclic_bracelets
from .graph6 import emit_graph6
from .graphs import Graph, is_unicyclic, peel_leaves
from .indices import product_connectivity, profile_value, sum_connectivity
from .radicals import RadicalValue
from .transforms import merge_pendant_paths, reattach_to_pendant

if TYPE_CHECKING:
    from random import Random

# Largest graph the randomized rewrite suite builds.
REWRITE_MAX_VERTICES = 12


class FamilyTooSmallError(ValueError):
    """Raised when a statistic needs more graphs than the family holds."""


def degree_two_attachment_count(g: Graph) -> int:
    """Count of degree-2 neighbors of a maximum-degree vertex.

    For unicyclic graphs, neighbors along the cycle are excluded, so the
    count reflects attached paths only.  With several maximum-degree
    vertices the largest count is reported.
    """
    deg = g.degrees()
    top = max(deg)
    cycle = set(peel_leaves(g)) if is_unicyclic(g) else set()
    best = 0
    for v in range(g.n):
        if deg[v] != top:
            continue
        skip = cycle if v in cycle else set()
        k = sum(1 for w in g.adjacency[v] if deg[w] == 2 and w not in skip)
        best = max(best, k)
    return best


def _graph6_strings(graphs: Iterable[Graph]) -> list[str]:
    """graph6 of each graph's canonical form, in input order: the reports'
    rendering, which names isomorphism classes rather than labelings."""
    return [emit_graph6(canonical_form(g)) for g in graphs]


def _approx(value: RadicalValue) -> str:
    """A value in report text: exact, then its nearest float."""
    return f"{value} (~{float(value)!r})"


def _verdict(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


def _same_classes(a: Iterable[Graph], b: Iterable[Graph]) -> bool:
    """Whether ``a`` and ``b`` cover the same isomorphism classes."""
    return {canonical_code(g) for g in a} == {canonical_code(g) for g in b}


class ExtremalReport(NamedTuple):
    """Outcome of one family verification."""

    spec: GraphClassSpec
    class_size: int
    formula_value: RadicalValue
    brute_max: RadicalValue
    argmax: tuple[Graph, ...]
    expected: tuple[Graph, ...]
    value_match: bool
    set_match: bool
    bound_holds: bool
    k_profile: dict[str, int]

    @property
    def passed(self) -> bool:
        return self.value_match and self.set_match and self.bound_holds

    def to_json_dict(self) -> dict:
        return {
            "kind": "extremal",
            "class": self.spec.graph_class,
            "n": self.spec.n,
            "delta": self.spec.delta,
            "class_size": self.class_size,
            "formula": self.formula_value.to_json_dict(),
            "brute_max": self.brute_max.to_json_dict(),
            "argmax": sorted(_graph6_strings(self.argmax)),
            "expected": sorted(_graph6_strings(self.expected)),
            "match": {"value": self.value_match, "set": self.set_match},
            "bound_holds": self.bound_holds,
            "k_profile": dict(sorted(self.k_profile.items())),
            "passed": self.passed,
        }

    def to_text(self) -> str:
        spec = self.spec
        argmax, expected = (sorted(_graph6_strings(gs)) for gs in (self.argmax, self.expected))
        return "\n".join([
            f"class: {spec.graph_class}  n={spec.n}  delta={spec.delta}  "
            f"class size: {self.class_size}",
            f"  formula:   {_approx(self.formula_value)}",
            f"  brute max: {_approx(self.brute_max)}",
            f"  argmax ({len(argmax)}): {' '.join(argmax)}",
            f"  expected ({len(expected)}): {' '.join(expected)}",
            f"  match: value={self.value_match} set={self.set_match}",
            f"result: {_verdict(self.passed)}",
        ])


# Value groups each maximum degree keeps: two, for ``_merge_top_two``.
_KEPT_GROUPS = 2


@lru_cache(maxsize=None)
def _ranking(
    graph_class: str, n: int
) -> dict[int, tuple[int, list[tuple[RadicalValue, tuple[Graph, ...]]]]]:
    """For each maximum degree of the n-vertex trees or unicyclic graphs:
    its number of classes and its (at most) two largest exact index values,
    largest first, each with the graphs of the classes that attain it.

    One pass over ``tree_profiles(n)`` or ``unicyclic_bracelets(n)``, which
    read each class's maximum degree and edge-type profile with no graph,
    in generation order: a group's graphs come in that order, and every
    report reads them as a set.  The index depends on the profile alone,
    so each (degree, profile) pair is valued once, when its first class
    arrives, and classes are grouped by exact value; distinct profiles can
    share a value (2/sqrt(8) = 3/sqrt(18)) and so a group.  Each degree
    keeps only its two leading groups seen so far: a value below both
    kept ones cannot end among the two largest, and the least kept value
    only rises, so a value that is not kept when a class of it first
    arrives, or is later evicted, is never kept again, and a kept group
    holds every class of its value.  Only the classes of kept groups are
    held, and graphs are made only for the groups that lead at the end.
    """
    if graph_class == "tree":
        classes, build = tree_profiles(n), _level_sequence_tree
    else:
        classes, build = unicyclic_bracelets(n), bracelet_graph
    counts = dict.fromkeys(range(2, n), 0)
    # Per degree: its kept groups, largest value first, each as its value,
    # the profiles valued to it and its classes.
    leading: dict[int, list[tuple[RadicalValue, list[int], list]]] = {d: [] for d in counts}
    # Per degree: each profile seen, to its kept group's classes or None.
    slots: dict[int, dict[int, list | None]] = {d: {} for d in counts}
    for delta, profile, member in classes:
        counts[delta] += 1
        seen = slots[delta]
        members = seen.get(profile, seen)  # ``seen`` itself: a new profile
        if members is seen:
            members = seen[profile] = _admit(leading[delta], seen, profile)
        if members is not None:
            members.append(member)
    return {
        d: (counts[d], [(value, tuple(map(build, members))) for value, _, members in leading[d]])
        for d in counts
    }


def _admit(
    lead: list[tuple[RadicalValue, list[int], list]], seen: dict[int, list | None], profile: int
) -> list | None:
    """The class list of the group a degree's new ``profile`` joins, or
    None when its value is not kept; an evicted group's profiles get None
    in ``seen``.  ``lead`` stays sorted, largest value first."""
    value = profile_value(profile)
    i = len(lead)  # lead[i:] holds the kept values below ``value``
    while i and value > lead[i - 1][0]:
        i -= 1
    if i and value == lead[i - 1][0]:
        _, profiles, members = lead[i - 1]
        profiles.append(profile)
        return members
    if i == _KEPT_GROUPS:
        return None
    if len(lead) == _KEPT_GROUPS:
        for evicted in lead.pop()[1]:
            seen[evicted] = None
    group = (value, [profile], [])
    lead.insert(i, group)
    return group[2]


def _verify_max(graph_class: str, n: int, delta: int) -> ExtremalReport:
    spec = GraphClassSpec(n=n, delta=delta, graph_class=graph_class)
    expected = extremal_family(spec)  # first: it checks n against the graph limit
    formula = (tree_max_bound if graph_class == "tree" else unicyclic_max_bound)(n, delta)
    class_size, groups = _ranking(graph_class, n)[delta]
    brute, argmax = groups[0]
    return ExtremalReport(
        spec=spec,
        class_size=class_size,
        formula_value=formula,
        brute_max=brute,
        argmax=argmax,
        expected=tuple(expected),
        value_match=brute == formula,
        set_match=_same_classes(argmax, expected),
        bound_holds=brute <= formula,
        k_profile=dict(zip(_graph6_strings(argmax), map(degree_two_attachment_count, argmax))),
    )


def verify_tree_max(n: int, delta: int) -> ExtremalReport:
    """Check the tree maximum: take the exact argmax of degree ``delta``
    from ``_ranking("tree", n)``, one pass shared by every delta, and
    compare value and argmax set against the closed form and its extremal
    family."""
    return _verify_max("tree", n, delta)


def verify_unicyclic_max(n: int, delta: int) -> ExtremalReport:
    """Unicyclic counterpart of :func:`verify_tree_max`, whose ranking
    :func:`verify_top_two` shares."""
    return _verify_max("unicyclic", n, delta)


class TopTwoReport(NamedTuple):
    """Outcome of the exhaustive top-two ranking check."""

    n: int
    total: int
    first_value: RadicalValue
    first: tuple[Graph, ...]
    second_value: RadicalValue
    second: tuple[Graph, ...]
    first_value_match: bool
    first_set_match: bool
    second_value_match: bool
    second_set_match: bool

    @property
    def passed(self) -> bool:
        return (
            self.first_value_match
            and self.first_set_match
            and self.second_value_match
            and self.second_set_match
        )

    def to_json_dict(self) -> dict:
        return {
            "kind": "top_two",
            "n": self.n,
            "total": self.total,
            "first": {
                "value": self.first_value.to_json_dict(),
                "graphs": sorted(_graph6_strings(self.first)),
            },
            "second": {
                "value": self.second_value.to_json_dict(),
                "graphs": sorted(_graph6_strings(self.second)),
            },
            "match": {
                "first_value": self.first_value_match,
                "first_set": self.first_set_match,
                "second_value": self.second_value_match,
                "second_set": self.second_set_match,
            },
            "passed": self.passed,
        }

    def to_text(self) -> str:
        return "\n".join([
            f"top-two ranking over {self.total} unicyclic graphs on {self.n} vertices",
            f"  rank 1: {_approx(self.first_value)}, {len(self.first)} graph(s)",
            f"  rank 2: {_approx(self.second_value)}, {len(self.second)} graph(s)",
            f"result: {_verdict(self.passed)}",
        ])


def _merge_top_two(
    ranking: Iterable[tuple[int, list[tuple[RadicalValue, Sequence[Graph]]]]]
) -> tuple[int, list[tuple[RadicalValue, list[Graph]]]]:
    """The total class count and the two largest values over all degrees,
    each with all its graphs, from every degree's count and two leading
    groups (at least two values in all).

    The merge is exact.  Let v1 > v2 be the two largest values over all
    classes.  No value exceeds v1, so v1 leads every degree where it
    occurs; only v1 can exceed v2, so v2 is first or second at every degree
    where it occurs.  Each of them is therefore kept, with all its classes,
    at every degree that has it, and every kept value is some class's
    value, so the two largest kept values are v1 and v2.
    """
    total = 0
    merged: dict[RadicalValue, list[Graph]] = {}
    for count, groups in ranking:
        total += count
        for value, graphs in groups:
            merged.setdefault(value, []).extend(graphs)
    return total, [(value, merged[value]) for value in sorted(merged, reverse=True)[:2]]


def verify_top_two(n: int) -> TopTwoReport:
    """Rank every n-vertex unicyclic graph by exact index value and compare
    the two leading groups against the closed-form values and families."""
    TOP_TWO.check_n(n, "graphs")  # from n = 4, so two value groups exist
    expected = unicyclic_top_two(n)
    first_family, second_family = (
        extremal_family(GraphClassSpec(n, d, "unicyclic")) for d in TOP_TWO_DEGREES
    )
    total, [(first_value, first), (second_value, second)] = _merge_top_two(
        _ranking("unicyclic", n).values()
    )
    return TopTwoReport(
        n=n,
        total=total,
        first_value=first_value,
        first=tuple(first),
        second_value=second_value,
        second=tuple(second),
        first_value_match=first_value == expected.first_value,
        first_set_match=_same_classes(first, first_family),
        second_value_match=second_value == expected.second_value,
        second_set_match=_same_classes(second, second_family),
    )


# -- randomized transform checks ----------------------------------------------


class MonotonicityReport(NamedTuple):
    """Counterexample tally for the two index-increasing rewrites: the
    graph6 of each instance a rewrite did not increase."""

    merge_trials: int
    merge_violations: tuple[str, ...] = ()
    reattach_trials: int = 0
    reattach_violations: tuple[str, ...] = ()
    warning: str | None = None

    @property
    def passed(self) -> bool:
        return not self.merge_violations and not self.reattach_violations

    def to_json_dict(self) -> dict:
        return {
            "kind": "monotonicity",
            "merge": {"trials": self.merge_trials, "violations": self.merge_violations},
            "reattach": {
                "trials": self.reattach_trials,
                "violations": self.reattach_violations,
            },
            "warning": self.warning,
            "passed": self.passed,
        }

    def to_text(self) -> str:
        text = (
            f"transforms: merge {self.merge_trials} trials "
            f"({len(self.merge_violations)} violations), "
            f"reattach {self.reattach_trials} trials "
            f"({len(self.reattach_violations)} violations)"
        )
        return f"{text}\nwarning: {self.warning}" if self.warning else text


def _random_connected_base(rng: Random, n: int) -> Graph:
    """Random tree from a uniform parent array, plus, for n >= 3, a chord
    with probability 1/2: the i-th of the tree's (n - 1)(n - 2)/2 non-edges
    in lexicographic order, i drawn as ``rng.choice`` would draw it from
    their list, which is not built."""
    edges = sorted([(rng.randrange(v), v) for v in range(1, n)])
    # Trusted build: each pair's larger end is its own v, so no pair is out
    # of range, a loop or a repeat.
    tree = Graph(n, tuple(edges))
    if n >= 3 and rng.random() < 0.5:
        i = rng.randrange((n - 1) * (n - 2) // 2)
        adj = tree.adjacency
        for u in range(n):  # row u holds the non-edges (u, v), v > u
            row = adj[u]
            free = n - 1 - u - (len(row) - bisect(row, u))
            if i < free:
                break
            i -= free
        for v in range(u + 1, n):
            if v not in row:
                if not i:
                    break
                i -= 1
        edges.append((u, v))
        edges.sort()
        return Graph(n, tuple(edges))
    return tree


def transform_monotonicity_suite(trials: int, seed: int = 0) -> MonotonicityReport:
    """Generate random valid rewrite instances on at most
    ``REWRITE_MAX_VERTICES`` vertices and check that each rewrite strictly
    increases the exact sum-connectivity index.

    With ``trials = 0`` the report passes vacuously and carries a warning.
    A negative ``seed`` raises ValueError: ``random.Random(-s)`` draws
    exactly as ``Random(s)``, so it would rerun seed s.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    from random import Random  # here, its one use, so that importing sumconn does not load it

    if trials == 0:
        return MonotonicityReport(0, warning="no trials requested; vacuous pass")

    rng = Random(seed)
    merge_violations = []
    for _ in range(trials):
        base_n = rng.randint(2, REWRITE_MAX_VERTICES - 2)
        base = _random_connected_base(rng, base_n)
        u = rng.randrange(base_n)
        budget = REWRITE_MAX_VERTICES - base_n
        a = rng.randint(1, budget - 1)
        b = rng.randint(1, budget - a)
        g = attach_path(attach_path(base, u, a), u, b)
        p1 = base_n + a - 1
        p2 = base_n + a + b - 1
        merged = merge_pendant_paths(g, u, p1, p2)
        if not sum_connectivity(merged) > sum_connectivity(g):
            merge_violations.append(emit_graph6(g))

    reattach_violations = []
    for _ in range(trials):
        h = None
        for _attempt in range(200):
            base_n = rng.randint(3, REWRITE_MAX_VERTICES - 1)
            base = _random_connected_base(rng, base_n)
            adj = base.adjacency
            deg = [len(row) for row in adj]
            candidates = [
                v for v, row in enumerate(adj) if len(row) == 2 and min(deg[row[0]], deg[row[1]]) <= 4
            ]
            if not candidates:
                continue
            u = rng.choice(candidates)
            a = rng.randint(1, REWRITE_MAX_VERTICES - base_n)
            h = attach_path(base, u, a)
            u_prime = base_n + a - 1
            u2 = rng.choice(adj[u])  # rows are sorted
            break
        if h is None:
            raise RuntimeError("failed to sample a rewrite instance")
        rewired = reattach_to_pendant(h, u, u2, u_prime)
        if not sum_connectivity(rewired) > sum_connectivity(h):
            reattach_violations.append(emit_graph6(h))

    return MonotonicityReport(trials, tuple(merge_violations), trials, tuple(reattach_violations))


# -- correlation --------------------------------------------------------------


def chi_r_correlation(n: int, max_delta: int | None = None) -> float:
    """Pearson correlation of the two indices over enumerated trees on n
    vertices with maximum degree at most ``max_delta``."""
    least = RANGES["tree"].least_delta
    if max_delta is not None and max_delta < least:
        raise DeltaRangeError(f"tree max_delta must be at least {least}, got {max_delta}")
    delta_filter = None if max_delta is None else (0, max_delta)
    members = enumerate_trees(n, delta_filter)
    if len(members) < 3:
        raise FamilyTooSmallError(
            f"need at least 3 graphs, family has {len(members)}"
        )
    chis, rs = [], []
    for g in members:  # one pass: each tree is built when it is read
        chis.append(float(sum_connectivity(g)))
        rs.append(float(product_connectivity(g)))
    from statistics import correlation  # here, its one use, as ``random`` above

    return correlation(chis, rs)


# -- sweeps --------------------------------------------------------------------


class SweepResult(NamedTuple):
    """Reports for a full run over verification ranges."""

    tree_reports: list[ExtremalReport]
    unicyclic_reports: list[ExtremalReport]
    top_two_reports: list[TopTwoReport]

    @property
    def passed(self) -> bool:
        return all(
            r.passed
            for r in (*self.tree_reports, *self.unicyclic_reports, *self.top_two_reports)
        )

    def to_json_dict(self) -> dict:
        return {
            "kind": "sweep",
            "tree": [r.to_json_dict() for r in self.tree_reports],
            "unicyclic": [r.to_json_dict() for r in self.unicyclic_reports],
            "top_two": [r.to_json_dict() for r in self.top_two_reports],
            "passed": self.passed,
        }

    def to_text(self) -> str:
        """One line per report, then the overall verdict."""
        lines = [
            f"{r.spec.graph_class} n={r.spec.n} delta={r.spec.delta}: size={r.class_size} "
            f"value_match={r.value_match} set_match={r.set_match} argmax={len(r.argmax)}"
            for r in self.tree_reports + self.unicyclic_reports
        ]
        lines += [f"top-two n={r.n}: passed={r.passed}" for r in self.top_two_reports]
        lines.append(f"overall: {_verdict(self.passed)}")
        return "\n".join(lines)


def run_sweeps(
    tree_ns: Iterable[int] = range(4, 13),
    unicyclic_ns: Iterable[int] = range(4, 12),
    top_two_ns: Iterable[int] = range(4, 12),
) -> SweepResult:
    """Run every verification in the standard ranges, reports in task order."""
    return SweepResult(
        tree_reports=[verify_tree_max(n, d) for n in tree_ns for d in range(2, n)],
        unicyclic_reports=[verify_unicyclic_max(n, d) for n in unicyclic_ns for d in range(2, n)],
        top_two_reports=[verify_top_two(n) for n in top_two_ns],
    )
