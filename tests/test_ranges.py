"""Every range edge, through the library and through ``cli.dispatch``.

Each row is one request just inside or just outside a limit of
``construct.RANGES`` or ``construct.TOP_TWO``: the library call, the same
request on the command line (or None where the CLI has none), and, for a
refused request, the exception and the words its message names: the class
or command, the requested n or delta, and the allowed range.
"""

import pytest

from sumconn import construct
from sumconn.bounds import tree_max_bound, unicyclic_max_bound, unicyclic_top_two
from sumconn.cli import dispatch
from sumconn.construct import DeltaRangeError, GraphClassSpec, extremal_family
from sumconn.enumeration import enumerate_trees, enumerate_unicyclic, unicyclic_bracelets
from sumconn.graphs import SizeLimitError
from sumconn.verify import (
    FamilyTooSmallError,
    chi_r_correlation,
    verify_top_two,
    verify_tree_max,
    verify_unicyclic_max,
)


def _bound(graph_class, n):
    return ["bound", "--class", graph_class, "--n", str(n), "--delta", "2"]


def _construct(graph_class, n):
    return ["construct", "--class", graph_class, "--n", str(n), "--delta", "9"]


def _enumerate(graph_class, n, *delta):
    return ["enumerate", "--class", graph_class, "--n", str(n), *delta, "--count-only"]


ACCEPTED = [
    ("tree bound n=256", lambda: tree_max_bound(256, 2), _bound("tree", 256)),
    ("unicyclic bound n=255", lambda: unicyclic_max_bound(255, 2), _bound("unicyclic", 255)),
    ("top-two values n=255", lambda: unicyclic_top_two(255), None),
    ("construct n=16", lambda: extremal_family(GraphClassSpec(16, 9, "unicyclic")),
     _construct("unicyclic", 16)),
    ("verify top-two n=4", lambda: verify_top_two(4), ["verify", "--class", "toptwo", "--n", "4"]),
    ("tree listing n=1", lambda: enumerate_trees(1), _enumerate("tree", 1)),
    ("tree listing n=16", lambda: enumerate_trees(16), _enumerate("tree", 16, "--delta", "15")),
    ("unicyclic listing n=3", lambda: enumerate_unicyclic(3), _enumerate("unicyclic", 3)),
    ("tree least delta", lambda: enumerate_trees(6, 1), _enumerate("tree", 6, "--delta", "1")),
    ("unicyclic least delta", lambda: enumerate_unicyclic(6, 2),
     _enumerate("unicyclic", 6, "--delta", "2")),
]

REFUSED = [
    ("tree bound n=257", lambda: tree_max_bound(257, 2), _bound("tree", 257),
     SizeLimitError, ("tree", "got 257", "[3, 256]")),
    ("unicyclic bound n=256", lambda: unicyclic_max_bound(256, 2), _bound("unicyclic", 256),
     SizeLimitError, ("unicyclic", "got 256", "[3, 255]")),
    # families start at n = 3, whatever the degree
    ("tree bound n=2", lambda: tree_max_bound(2, 1),
     ["bound", "--class", "tree", "--n", "2", "--delta", "1"],
     DeltaRangeError, ("tree", "n must be at least 3", "got 2")),
    ("tree bound n=1", lambda: tree_max_bound(1, 1),
     ["bound", "--class", "tree", "--n", "1", "--delta", "1"],
     DeltaRangeError, ("tree", "n must be at least 3", "got 1")),
    ("unicyclic bound n=2", lambda: unicyclic_max_bound(2, 2), _bound("unicyclic", 2),
     DeltaRangeError, ("unicyclic", "n must be at least 3", "got 2")),
    ("construct tree n=2", lambda: extremal_family(GraphClassSpec(2, 1, "tree")),
     ["construct", "--class", "tree", "--n", "2", "--delta", "1"],
     DeltaRangeError, ("tree", "n must be at least 3", "got 2")),
    ("verify tree n=2", lambda: verify_tree_max(2, 1),
     ["verify", "--class", "tree", "--n", "2", "--delta", "1"],
     DeltaRangeError, ("tree", "n must be at least 3", "got 2")),
    ("verify unicyclic n=2", lambda: verify_unicyclic_max(2, 2),
     ["verify", "--class", "unicyclic", "--n", "2", "--delta", "2"],
     DeltaRangeError, ("unicyclic", "n must be at least 3", "got 2")),
    ("tree bound delta=1", lambda: tree_max_bound(7, 1),
     ["bound", "--class", "tree", "--n", "7", "--delta", "1"],
     DeltaRangeError, ("tree", "delta", "got 1", "[2, 6]")),
    ("top-two values n=256", lambda: unicyclic_top_two(256), None,
     SizeLimitError, ("top-two", "got 256", "[4, 255]")),
    ("construct tree n=17", lambda: extremal_family(GraphClassSpec(17, 9, "tree")),
     _construct("tree", 17), SizeLimitError, ("tree", "got 17", "[3, 16]")),
    ("verify tree n=17", lambda: verify_tree_max(17, 9),
     ["verify", "--class", "tree", "--n", "17", "--delta", "9"],
     SizeLimitError, ("tree", "got 17", "[3, 16]")),
    ("construct unicyclic n=17", lambda: extremal_family(GraphClassSpec(17, 9, "unicyclic")),
     _construct("unicyclic", 17), SizeLimitError, ("unicyclic", "got 17", "[3, 16]")),
    ("verify top-two n=17", lambda: verify_top_two(17), ["verify", "--class", "toptwo", "--n", "17"],
     SizeLimitError, ("top-two", "got 17", "[4, 16]")),
    ("verify top-two n=300", lambda: verify_top_two(300),
     ["verify", "--class", "toptwo", "--n", "300"], SizeLimitError, ("top-two", "got 300", "[4, 16]")),
    ("tree listing n=0", lambda: enumerate_trees(0), _enumerate("tree", 0),
     SizeLimitError, ("tree", "got 0", "[1, 16]")),
    ("tree listing n=17", lambda: enumerate_trees(17), _enumerate("tree", 17),
     SizeLimitError, ("tree", "got 17", "[1, 16]")),
    ("unicyclic listing n=2", lambda: enumerate_unicyclic(2), _enumerate("unicyclic", 2),
     SizeLimitError, ("unicyclic", "got 2", "[3, 16]")),
    ("unicyclic listing n=17", lambda: enumerate_unicyclic(17), _enumerate("unicyclic", 17),
     SizeLimitError, ("unicyclic", "got 17", "[3, 16]")),
    ("bracelets n=17", lambda: unicyclic_bracelets(17),
     ["verify", "--class", "unicyclic", "--n", "17", "--delta", "2"],
     SizeLimitError, ("unicyclic", "got 17", "[3, 16]")),
    ("tree delta=0", lambda: enumerate_trees(6, 0), _enumerate("tree", 6, "--delta", "0"),
     DeltaRangeError, ("tree", "delta", "got 0", "[1, 5]")),
    ("unicyclic delta=1", lambda: enumerate_unicyclic(6, 1), _enumerate("unicyclic", 6, "--delta", "1"),
     DeltaRangeError, ("unicyclic", "delta", "got 1", "[2, 5]")),
    ("correlate max-delta=0", lambda: chi_r_correlation(6, 0),
     ["correlate", "--n", "6", "--max-delta", "0"], DeltaRangeError, ("tree", "delta", "got 0")),
    ("correlate max-delta=-3", lambda: chi_r_correlation(6, -3),
     ["correlate", "--n", "6", "--max-delta", "-3"], DeltaRangeError, ("tree", "delta", "got -3")),
    # in range, but no tree on 6 vertices has maximum degree 1
    ("correlate max-delta=1", lambda: chi_r_correlation(6, 1),
     ["correlate", "--n", "6", "--max-delta", "1"],
     FamilyTooSmallError, ("need at least 3 graphs, family has 0",)),
]


def _run(capsys, argv):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("call, argv", [row[1:] for row in ACCEPTED], ids=[r[0] for r in ACCEPTED])
def test_requests_at_the_range_edges_are_served(capsys, call, argv):
    call()
    if argv is not None:
        code, out, _ = _run(capsys, argv)
        assert code == 0 and out


@pytest.mark.parametrize(
    "call, argv, error, words", [row[1:] for row in REFUSED], ids=[r[0] for r in REFUSED]
)
def test_requests_past_the_range_edges_are_refused(monkeypatch, capsys, call, argv, error, words):
    # Refused before any graph is built.
    def no_graph(*args):
        raise AssertionError("a graph was built for a refused request")

    for name in ("graph_from_edges", "cycle_graph", "Graph"):
        monkeypatch.setattr(construct, name, no_graph)
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    for word in words:
        assert word in str(raised.value)
    if argv is not None:
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: {raised.value}\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "--all", "--n", "4"], "--n"),
        (["verify", "--all", "--delta", "3"], "--delta"),
        (["verify", "--class", "toptwo", "--n", "4", "--delta", "3"], "--delta"),
        (["verify", "--class", "transforms", "--n", "4"], "--n"),
        (["verify", "--class", "transforms", "--delta", "3"], "--delta"),
    ],
)
def test_verify_refuses_a_flag_it_does_not_read(capsys, argv, flag):
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: verify") and err.rstrip().endswith(f"takes no {flag}")
