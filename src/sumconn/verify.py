"""Brute-force verification of the closed-form maxima and rankings.

Every claim is re-derived from scratch: the relevant family is enumerated
exhaustively, exact index values are compared, and the leading value
groups are matched against the characterized graphs by canonical form.
Comparisons are exact throughout; floats appear only in rendered reports.
Each report is an immutable NamedTuple with ``passed`` and its two
renderings, ``to_json_dict()`` and ``to_text()``, which ``sumconn verify``
writes as they are.

Both classes are ranked the same way: one cached pass per class and n
(``_ranking``), over ``tree_profiles`` or ``unicyclic_bracelets``, values
packed edge-type profiles, not graphs (``indices.profile_value``), groups
classes by value and keeps each maximum degree's two leading groups.  The
per-degree maxima read it, and top-two merges the unicyclic groups
(``_merge_top_two``).  A report holds canonical forms and their graph6
strings, made once when it is built, the graph6 in one
``emit_graph6_records`` pass, so rendering canonicalizes and encodes
nothing.  No report depends on the order in which classes arrive: graph6
strings and ``k_profile`` are serialized sorted, and argmax sets are
compared as sets of canonical forms.

Verification reaches n = 16 (``graphs.MAX_VERTICES``) for trees,
unicyclic graphs and top-two.  No range is written here: each is read from
``construct.RANGES`` or ``TOP_TWO``, through ``GraphClassSpec``, the profile
listings and ``extremal_family``.  ``run_sweeps`` defaults to the standard
sweep (trees n = 4..12, unicyclic graphs and top-two n = 4..11);
``run_sweeps(range(4, 17), range(4, 17), range(4, 17))`` is the extended
one, every n each class accepts, pinned in CI.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import lru_cache
from itertools import chain
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .bounds import tree_max_bound, unicyclic_max_bound, unicyclic_top_two
from .canon import canonical_form
from .construct import RANGES, TOP_TWO, TOP_TWO_DEGREES, DeltaRangeError, GraphClassSpec
from .construct import attach_path, attach_paths, extremal_family
from .enumeration import bracelet_graph, enumerate_trees, free_tree_graph, tree_profiles
from .enumeration import unicyclic_bracelets
from .graph6 import emit_graph6, emit_graph6_records
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
    adj = g.adjacency
    deg = g.degrees()
    top = max(deg)
    cycle = set(peel_leaves(g)) if is_unicyclic(g) else set()
    best = 0
    for v in range(g.n):
        if deg[v] != top:
            continue
        skip = cycle if v in cycle else set()
        k = sum(1 for w in adj[v] if deg[w] == 2 and w not in skip)
        best = max(best, k)
    return best


def _graph6_lines(
    n: int, first: Sequence[Graph], second: Sequence[Graph]
) -> tuple[list[str], list[str]]:
    """The graph6 strings of two groups of canonical forms, which name
    classes, not labelings, each in its order: one ``emit_graph6_records``
    pass over every graph's edges, as a report's graphs are all on n
    vertices and of one edge count."""
    lines = emit_graph6_records([bytes(chain.from_iterable(g.edges)) for g in (*first, *second)], n)
    return lines[: len(first)], lines[len(first) :]


def _approx(value: RadicalValue) -> str:
    """A value in report text: exact, then its nearest float."""
    return f"{value} (~{float(value)!r})"


def _verdict(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


class ExtremalReport(NamedTuple):
    """Outcome of one family verification; ``k_profile``'s keys are the
    argmax graph6, and ``expected_graph6`` holds the family's, sorted."""

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
    expected_graph6: tuple[str, ...]

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
            "argmax": sorted(self.k_profile),
            "expected": list(self.expected_graph6),
            "match": {"value": self.value_match, "set": self.set_match},
            "bound_holds": self.bound_holds,
            "k_profile": dict(sorted(self.k_profile.items())),
            "passed": self.passed,
        }

    def to_text(self) -> str:
        spec = self.spec
        argmax, expected = sorted(self.k_profile), self.expected_graph6
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
    largest first, each with the canonical forms of the classes that
    attain it.

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
    held, and graphs are made only for the groups that lead at the end,
    as canonical forms read off what the listing yields, with no
    ``canonical_code``: ``free_tree_graph`` builds one from a tree's WROM
    level sequence, re-rooted only at the central edge of a bicentral
    tree, and ``bracelet_graph`` one from a unicyclic word.
    """
    if graph_class == "tree":
        classes, build = tree_profiles(n), free_tree_graph
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


@lru_cache(maxsize=None)
def _canonical_family(spec: GraphClassSpec) -> tuple[Graph, ...]:
    """Canonical forms of ``spec``'s extremal family, made once per spec:
    the unicyclic families of degrees 2 and 3 are read by their own
    maximum and by top-two alike."""
    return tuple(map(canonical_form, extremal_family(spec)))


def _verify_max(graph_class: str, n: int, delta: int) -> ExtremalReport:
    spec = GraphClassSpec(n=n, delta=delta, graph_class=graph_class)
    # First: extremal_family checks n against the graph limit.
    expected = _canonical_family(spec)
    formula = (tree_max_bound if graph_class == "tree" else unicyclic_max_bound)(n, delta)
    class_size, groups = _ranking(graph_class, n)[delta]
    brute, argmax = groups[0]
    argmax_lines, expected_lines = _graph6_lines(n, argmax, expected)
    return ExtremalReport(
        spec=spec,
        class_size=class_size,
        formula_value=formula,
        brute_max=brute,
        argmax=argmax,
        expected=expected,
        value_match=brute == formula,
        set_match=set(argmax) == set(expected),
        bound_holds=brute <= formula,
        k_profile=dict(zip(argmax_lines, map(degree_two_attachment_count, argmax))),
        expected_graph6=tuple(sorted(expected_lines)),
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
    """Outcome of the exhaustive top-two ranking check; ``first_graph6``
    and ``second_graph6`` hold the two groups' graph6, sorted."""

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
    first_graph6: tuple[str, ...]
    second_graph6: tuple[str, ...]

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
                "graphs": list(self.first_graph6),
            },
            "second": {
                "value": self.second_value.to_json_dict(),
                "graphs": list(self.second_graph6),
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
        set(_canonical_family(GraphClassSpec(n, d, "unicyclic"))) for d in TOP_TWO_DEGREES
    )
    total, [(first_value, first), (second_value, second)] = _merge_top_two(
        _ranking("unicyclic", n).values()
    )
    first_lines, second_lines = _graph6_lines(n, first, second)
    return TopTwoReport(
        n=n,
        total=total,
        first_value=first_value,
        first=tuple(first),
        second_value=second_value,
        second=tuple(second),
        first_value_match=first_value == expected.first_value,
        first_set_match=set(first) == first_family,
        second_value_match=second_value == expected.second_value,
        second_set_match=set(second) == second_family,
        first_graph6=tuple(sorted(first_lines)),
        second_graph6=tuple(sorted(second_lines)),
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


def _uniform_below(rng: Random) -> Callable[[int], int]:
    """``below``, where ``below(k)`` draws uniformly from ``range(k)``,
    k >= 1, off ``rng``'s one Mersenne Twister stream: w = k.bit_length(),
    then w-bit words from ``rng.getrandbits`` until one is below k.

    This is ``Random._randbelow_with_getrandbits``, which CPython 3.10 to
    3.13 use for ``randrange(k)``, for ``randint(a, b)`` as
    ``a + _randbelow(b - a + 1)`` and for ``choice(s)`` as
    ``s[_randbelow(len(s))]``.  So ``below`` reads the stream word for word
    as those calls do, less their argument handling, and ``rng.random()``
    reads the same stream in between: a seed draws the same instances as
    through those calls, on each of those versions.  A lockstep test
    against a twin ``Random`` checks this on every Python the tests run
    on.  ``below(0)`` never returns (no 0-bit word is below 0); no caller
    passes it."""
    bits = rng.getrandbits

    def below(k: int) -> int:
        w = k.bit_length()
        r = bits(w)
        while r >= k:
            r = bits(w)
        return r

    return below


def _random_connected_base(rng: Random, below: Callable[[int], int], n: int) -> Graph:
    """Random tree from a uniform parent array, plus, for n >= 3, a chord
    with probability 1/2 (``rng.random() < 0.5``): the i-th of the tree's
    (n - 1)(n - 2)/2 non-edges in lexicographic order, i = ``below`` of
    their count, as ``rng.choice`` would draw it from their list, which is
    not built.  Every integer comes from ``below`` (``_uniform_below``).
    The tree's edges are the pairs (parent of v, v), parent < v, so row
    u's larger neighbours are the vertices whose parent is u: the row's
    non-edge count and each of its pairs are read off the parent array,
    and no adjacency is built."""
    parents = [below(v) for v in range(1, n)]  # v's parent is parents[v - 1]
    edges = sorted(zip(parents, range(1, n)))
    if n >= 3 and rng.random() < 0.5:
        i = below((n - 1) * (n - 2) // 2)
        for u in range(n):  # row u holds the non-edges (u, v), v > u
            free = n - 1 - u - parents.count(u)
            if i < free:
                break
            i -= free
        for v in range(u + 1, n):
            if parents[v - 1] != u:
                if not i:
                    break
                i -= 1
        edges.append((u, v))
        edges.sort()
    # Trusted build: each tree pair's larger end is its own v, so no pair is
    # out of range, a loop or a repeat; the chord is a non-edge (u, v), u < v.
    return Graph(n, tuple(edges))


def transform_monotonicity_suite(trials: int, seed: int = 0) -> MonotonicityReport:
    """Generate random valid rewrite instances on at most
    ``REWRITE_MAX_VERTICES`` vertices and check that each rewrite strictly
    increases the exact sum-connectivity index.

    Every integer, in the suite and in ``_random_connected_base``, is drawn
    by one ``_uniform_below`` over ``Random(seed)``, and each chord coin is
    ``random() < 0.5`` on the same generator.  A draw written below as
    ``a + below(b - a + 1)`` is ``randint(a, b)``, and ``s[below(len(s))]``
    is ``choice(s)``, word for word on CPython 3.10 to 3.13, so a seed
    gives the same instances on each of them.

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
    below = _uniform_below(rng)
    merge_violations = []
    for _ in range(trials):
        base_n = 2 + below(REWRITE_MAX_VERTICES - 3)  # randint(2, REWRITE_MAX_VERTICES - 2)
        base = _random_connected_base(rng, below, base_n)
        u = below(base_n)
        budget = REWRITE_MAX_VERTICES - base_n
        a = 1 + below(budget - 1)  # randint(1, budget - 1)
        b = 1 + below(budget - a)  # randint(1, budget - a)
        g = attach_paths(base, u, (a, b))
        p1 = base_n + a - 1
        p2 = base_n + a + b - 1
        merged = merge_pendant_paths(g, u, p1, p2)
        if not sum_connectivity(merged) > sum_connectivity(g):
            merge_violations.append(emit_graph6(g))

    reattach_violations = []
    for _ in range(trials):
        h = None
        for _attempt in range(200):
            base_n = 3 + below(REWRITE_MAX_VERTICES - 3)  # randint(3, REWRITE_MAX_VERTICES - 1)
            base = _random_connected_base(rng, below, base_n)
            adj = base.adjacency
            deg = [len(row) for row in adj]
            candidates = [
                v for v, row in enumerate(adj) if len(row) == 2 and min(deg[row[0]], deg[row[1]]) <= 4
            ]
            if not candidates:
                continue
            u = candidates[below(len(candidates))]
            a = 1 + below(REWRITE_MAX_VERTICES - base_n)  # randint(1, REWRITE_MAX_VERTICES - base_n)
            h = attach_path(base, u, a)
            u_prime = base_n + a - 1
            row = adj[u]  # sorted
            u2 = row[below(len(row))]
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
    return _correlation(n, max_delta)[0]


def _correlation(n: int, max_delta: int | None) -> tuple[float, int]:
    """``chi_r_correlation``'s value and the number of trees it is taken
    over, from one listing."""
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

    return correlation(chis, rs), len(members)


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
