import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import sumconn
from sumconn.cli import _listing_json, dispatch
from sumconn.graph6 import parse_graph6
from sumconn.graphs import is_tree, max_degree


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_human(capsys):
    code, out, _ = run(capsys, "compute", "--g6", "Bw", "--index", "sum")
    assert code == 0
    assert "3/2" in out
    assert "1.5" in out


def test_compute_json(capsys):
    code, out, _ = run(capsys, "compute", "--g6", "Bw", "--index", "product", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["index"] == "product"
    assert data["value"]["terms"] == [[1, "3/2"]]
    assert data["value"]["float"] == 1.5


def test_compute_requires_graph(capsys):
    code, _, err = run(capsys, "compute", "--index", "sum")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("command", ["compute", "export"])
@pytest.mark.parametrize("graph", [(), ("--g6", "Bw", "--edges", "/nonexistent")])
def test_a_graph_comes_from_exactly_one_of_g6_and_edges(capsys, command, graph):
    # Neither flag or both: a usage error naming the two, nothing ignored.
    code, out, err = run(capsys, command, *graph)
    assert code == 2 and out == ""
    assert "--g6" in err and "--edges" in err


def test_an_empty_g6_string_is_a_graph6_error(capsys):
    code, out, err = run(capsys, "compute", "--g6", "")
    assert code == 2 and out == ""
    assert err == "error: empty graph6 string\n"


@pytest.mark.parametrize(
    "argv", [("construct", "--class", "tree", "--n", "6", "--delta", "3"), ("export", "--g6", "Bw")]
)
def test_dot_and_json_exclude_each_other(capsys, argv):
    code, out, err = run(capsys, *argv, "--dot", "--json")
    assert code == 2 and out == ""
    assert "argument --json: not allowed with argument --dot" in err


def test_bound_output(capsys):
    code, out, _ = run(capsys, "bound", "--class", "tree", "--n", "7", "--delta", "4")
    assert code == 0
    assert "sqrt(5)" in out and "sqrt(6)" in out and "sqrt(3)" in out
    assert "2.8656" in out


def test_construct_and_parse_back(capsys):
    code, out, _ = run(capsys, "construct", "--class", "tree", "--n", "9", "--delta", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2  # two spiders on nine vertices with three legs
    for line in lines:
        g = parse_graph6(line)
        assert is_tree(g) and max_degree(g) == 3


def test_construct_dot(capsys):
    code, out, _ = run(capsys, "construct", "--class", "unicyclic", "--n", "4", "--delta", "3", "--dot")
    assert code == 0
    assert out.startswith("graph")
    assert "--" in out


def test_enumerate_lines_and_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--class", "tree", "--n", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    assert all(parse_graph6(line).n == 7 for line in lines)

    code, out, _ = run(capsys, "enumerate", "--class", "unicyclic", "--n", "7", "--count-only")
    assert code == 0
    assert "total=33" in out
    assert "delta=3 count=16" in out


@pytest.mark.parametrize(
    "graph_class, n, delta",
    [
        ("unicyclic", 6, 9),
        ("unicyclic", 6, 1),
        ("unicyclic", 6, 6),
        ("tree", 6, -3),
        ("tree", 6, 0),
        ("tree", 6, 6),
        ("tree", 1, 1),
    ],
)
def test_enumerate_rejects_a_degree_the_class_cannot_have(capsys, graph_class, n, delta):
    for extra in ([], ["--count-only"], ["--json"]):
        code, out, err = run(
            capsys, "enumerate", "--class", graph_class, "--n", str(n), "--delta", str(delta), *extra
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "delta" in err


def test_enumerate_accepts_the_ends_of_the_degree_range(capsys):
    for graph_class, n, delta, total in [
        ("unicyclic", 6, 2, 1),
        ("unicyclic", 6, 5, 1),
        ("tree", 6, 1, 0),
        ("tree", 6, 5, 1),
        ("tree", 1, 0, 1),
    ]:
        code, out, _ = run(
            capsys, "enumerate", "--class", graph_class, "--n", str(n), "--delta", str(delta),
            "--count-only",
        )
        assert code == 0
        assert out.splitlines()[-1] == f"total={total}"


@pytest.mark.parametrize(
    "argv",
    [
        ["--class", "tree", "--n", "1"],
        ["--class", "tree", "--n", "2"],
        ["--class", "tree", "--n", "9"],
        ["--class", "tree", "--n", "9", "--delta", "3"],
        ["--class", "tree", "--n", "6", "--delta", "1"],  # no tree: "graphs": []
        ["--class", "unicyclic", "--n", "3"],
        ["--class", "unicyclic", "--n", "8"],
        ["--class", "unicyclic", "--n", "8", "--delta", "2"],
    ],
)
def test_enumerate_json_lists_the_text_lines(capsys, tmp_path, argv):
    code, text, _ = run(capsys, "enumerate", *argv)
    assert code == 0
    code, out, _ = run(capsys, "enumerate", *argv, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["graphs"] == text.splitlines()
    # The rendering every other JSON output gets, to stdout or to a file.
    assert out == json.dumps(data, indent=2, sort_keys=True) + "\n"
    target = tmp_path / "listing.json"
    assert run(capsys, "enumerate", *argv, "--json", str(target))[0] == 0
    assert target.read_text(encoding="utf-8") == out


def test_listing_json_escapes_and_renders_an_empty_list():
    payload = {"kind": "enumerate", "class": "tree", "n": 4}
    for chunks in ([["A\\", "B"], [], ["C"]], [], [[]]):
        graphs = [line for chunk in chunks for line in chunk]
        expected = json.dumps({**payload, "graphs": graphs}, indent=2, sort_keys=True) + "\n"
        assert "".join(_listing_json(payload, chunks)) == expected


def test_enumerate_unicyclic_13_output_is_pinned(capsys):
    # The digest of the 13,999 graph6 lines (OEIS A001429) the output had
    # before emission was bit-packed and written in one call.
    code, out, _ = run(capsys, "enumerate", "--class", "unicyclic", "--n", "13")
    assert code == 0
    assert out.count("\n") == 13999
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "99958ecb8c0cb66e7425231ff96935b25044bc4fd31b24ac4808ab26d87db235"
    )


def test_verify_single_passes(capsys):
    code, out, _ = run(capsys, "verify", "--class", "unicyclic", "--n", "7", "--delta", "3")
    assert code == 0
    assert "result: PASS" in out and "argmax (3)" in out
    code, out, _ = run(capsys, "verify", "--class", "unicyclic", "--n", "7", "--delta", "3", "--json")
    data = json.loads(out)
    assert data["passed"] is True
    assert len(data["argmax"]) == 3


def test_verify_reaches_the_tree_enumeration_limit(capsys):
    code, out, _ = run(capsys, "verify", "--class", "tree", "--n", "13", "--delta", "4")
    assert code == 0
    assert "result: PASS" in out
    code, _, err = run(capsys, "verify", "--class", "tree", "--n", "17", "--delta", "4")
    assert code == 2
    assert "error:" in err


def test_verify_toptwo(capsys):
    code, out, _ = run(capsys, "verify", "--class", "toptwo", "--n", "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["first"]["value"]["float"] == 2.5


def test_verify_transforms(capsys):
    code, out, _ = run(capsys, "verify", "--class", "transforms", "--trials", "10", "--seed", "1")
    assert code == 0
    assert "10 trials" in out and "0 violations" in out


def test_verify_json_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--class", "tree", "--n", "6", "--delta", "3", "--json", str(target))
    assert code == 0
    data = json.loads(target.read_text())
    assert data["passed"] is True


def test_verify_needs_arguments(capsys):
    code, _, err = run(capsys, "verify", "--class", "toptwo")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--all", "--class", "transforms", "--trials", "2"], "verify --all takes no --class"),
        (["--all", "--class", "toptwo"], "verify --all takes no --class"),
        (["--all", "--class", "tree"], "verify --all takes no --class"),
        (["--all", "--trials", "2"], "verify --all takes no --trials"),
        (["--all", "--seed", "1"], "verify --all takes no --seed"),
        (["--class", "toptwo", "--n", "5", "--trials", "2"], "verify --class toptwo takes no --trials"),
        (["--class", "toptwo", "--n", "5", "--seed", "1"], "verify --class toptwo takes no --seed"),
        (["--class", "unicyclic", "--n", "5", "--delta", "2", "--trials", "2"],
         "verify --class unicyclic takes no --trials"),
        (["--n", "5", "--delta", "2", "--seed", "0"], "verify --class tree takes no --seed"),
    ],
)
def test_verify_refuses_a_flag_it_would_ignore(capsys, argv, message):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_transforms_refuses_a_negative_seed(capsys):
    code, out, err = run(capsys, "verify", "--class", "transforms", "--trials", "2", "--seed", "-5")
    assert (code, out, err) == (2, "", "error: seed must be nonnegative, got -5\n")


def test_verify_transforms_defaults(capsys):
    _, given, _ = run(capsys, "verify", "--class", "transforms", "--trials", "5", "--seed", "0", "--json")
    _, default_seed, _ = run(capsys, "verify", "--class", "transforms", "--trials", "5", "--json")
    assert given == default_seed
    assert json.loads(given)["merge"]["trials"] == 5


# sha256 of each verify kind's output, as text and as --json.
VERIFY_OUTPUTS = [
    (["--all"], "1252a07764dc1820930aae9852f0d42b32404e3eeaa34a99f2e93e25e7c95e36"),
    (["--all", "--json"], "9ae815cee55bd7052e2babb4d8169ef28c0387206711c06a718b12ff6dbda416"),
    (["--class", "tree", "--n", "9", "--delta", "3"],
     "cfc6b9f2bce6dcdff6cfb7cb00bcf7759a83a3c00108a3aed70cef92825bfc2f"),
    (["--class", "tree", "--n", "9", "--delta", "3", "--json"],
     "0273474a13786f9f45ee9826093a5d4461ae16387e8dd6ee1506c461a149fe23"),
    (["--class", "unicyclic", "--n", "7", "--delta", "3"],
     "3badcec7920f983758a54fc498a1416d94ffd9a7dfa2cb8d4c20d8fb61c956a9"),
    (["--class", "unicyclic", "--n", "7", "--delta", "3", "--json"],
     "c740ed136c912f55011a3f484aa1093f77ed6e716d66e320729eb150ef1de875"),
    (["--class", "toptwo", "--n", "8"],
     "b428dd0d5c5000dd1ef26cfee348064640e83c6bf683938a8a0dac1e6d96456c"),
    (["--class", "toptwo", "--n", "8", "--json"],
     "0f35c41c1ba05e1f65138ad97b8cb7aea8e85e7ab854f0d2177d4d86700ddee7"),
    (["--class", "transforms", "--trials", "50", "--seed", "2"],
     "627bdb0e20e757c824678c3db2045646795f2a0b0b7eddd35188c42561a0dc32"),
    (["--class", "transforms", "--trials", "50", "--seed", "2", "--json"],
     "718e52156caf0909cf74d2573ee05342a40942991d837c4049f4d0bfd4007e5f"),
    (["--class", "transforms", "--trials", "0"],
     "d06411c3e3aab33ca768ed19694c98bb75cdafd0d1d9389197058146a302dd36"),
    (["--class", "transforms", "--trials", "0", "--json"],
     "43d79200be30f5a39d7b48ecec6d693cc5b8b97ae5a6ad0877f230ea4bc59f68"),
]


@pytest.mark.parametrize("argv, digest", VERIFY_OUTPUTS, ids=[" ".join(a) for a, _ in VERIFY_OUTPUTS])
def test_verify_output_is_pinned(capsys, argv, digest):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "verify", "--class", "toptwo", "--n", "6", "--json")
    _, second, _ = run(capsys, "verify", "--class", "toptwo", "--n", "6", "--json")
    assert first == second
    _, first, _ = run(capsys, "enumerate", "--class", "unicyclic", "--n", "6")
    _, second, _ = run(capsys, "enumerate", "--class", "unicyclic", "--n", "6")
    assert first == second


def test_correlate(capsys):
    code, out, _ = run(capsys, "correlate", "--n", "8", "--max-delta", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert -1.0 <= data["pearson"] <= 1.0
    assert data["graphs"] > 3


def test_export_edges_file(tmp_path, capsys):
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n1 2\n2 0\n")
    code, out, _ = run(capsys, "export", "--edges", str(path))
    assert code == 0
    assert out.strip() == "Bw"
    code, out, _ = run(capsys, "export", "--edges", str(path), "--dot")
    assert code == 0
    assert "0 -- 1;" in out


@pytest.mark.parametrize("bad", ["0 1 2", "0 x"])
def test_edges_file_with_a_bad_line(tmp_path, capsys, bad):
    # Three fields or a field that is no integer: exit 2, naming the file
    # and the line.
    path = tmp_path / "edges.txt"
    path.write_text(f"# a triangle\n0 1\n\n{bad}\n2 0\n")
    code, out, err = run(capsys, "export", "--edges", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {path}, line 4: expected two integer labels 'u v', got {bad!r}\n"


@pytest.mark.parametrize(
    "content, message",
    [
        (b"0 1\n\xff\n", "'utf-8' codec can't decode byte 0xff in position 4: invalid start byte"),
        (b"0 1\n0 0\n", "self-loop at vertex 0"),
        (b"0 1\n1 0\n", "duplicate edge (0, 1)"),
        (b"0 1\n0 20\n", "at most 16 vertices supported, got 21"),
    ],
)
def test_edges_file_errors_name_the_file(tmp_path, capsys, content, message):
    path = tmp_path / "edges.txt"
    path.write_bytes(content)
    code, out, err = run(capsys, "compute", "--edges", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {path}: {message}\n"


def test_export_canonical_normalizes(capsys):
    # two labelings of the same 5-vertex path canonicalize to identical graph6
    _, out1, _ = run(capsys, "export", "--g6", "DhC", "--canonical")
    code, out2, _ = run(capsys, "export", "--g6", "DUO", "--canonical")
    assert code == 0
    assert out1 == out2


@pytest.mark.parametrize("g6, n, m", [("C~", 4, 6), ("O" + "~" * 20, 16, 120)])
def test_export_canonical_refuses_graphs_with_more_edges_than_vertices(capsys, g6, n, m):
    # Canonical forms exist for trees and unicyclic graphs only; plain
    # export still takes the graph.
    code, out, err = run(capsys, "export", "--g6", g6, "--canonical")
    assert code == 2 and out == ""
    assert err == (
        "error: canonical codes are defined for trees and unicyclic graphs only,"
        f" got a connected graph with n={n} and m={m}\n"
    )
    code, out, _ = run(capsys, "export", "--g6", g6)
    assert code == 0
    assert out == g6 + "\n"


def test_usage_errors(capsys):
    assert dispatch(["nonsense"]) == 2
    capsys.readouterr()
    assert dispatch(["bound", "--class", "tree", "--n", "7"]) == 2
    capsys.readouterr()
    code, _, err = run(capsys, "compute", "--g6", "not a graph6 string!", "--index", "sum")
    assert code == 2
    assert "error" in err


def test_bad_bound_arguments(capsys):
    code, _, err = run(capsys, "bound", "--class", "tree", "--n", "7", "--delta", "9")
    assert code == 2
    assert "delta" in err


def test_verify_mismatch_exit_code(monkeypatch, capsys):
    # force the closed form away from the brute maximum
    import sumconn.verify as verify_mod
    from sumconn.radicals import RadicalValue

    monkeypatch.setattr(
        verify_mod, "tree_max_bound", lambda n, d: RadicalValue.reciprocal_sqrt_sum({1: 999})
    )
    code, out, _ = run(capsys, "verify", "--class", "tree", "--n", "5", "--delta", "2", "--json")
    assert code == 1
    assert json.loads(out)["passed"] is False


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_a_closed_stdout_ends_the_script_as_it_ends_a_filter():
    # The reader is gone before the first write: the script is ended by
    # SIGPIPE, with nothing on stderr, not exit 2, the usage error code.
    src = str(Path(sumconn.__file__).resolve().parents[1])
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sumconn.cli", "bound", "--class", "tree", "--n", "16", "--delta", "4"],
            stdout=write, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
        )
    finally:
        os.close(write)
    assert proc.stderr == b""
    assert proc.returncode == -signal.SIGPIPE


LAYERS = ("canon", "construct", "enumeration", "graph6", "graphs", "indices", "radicals",
          "transforms", "bounds", "verify")


def test_cli_imports_every_layer_and_no_dataclasses():
    # A fresh interpreter, so that nothing this process imported counts:
    # the modules that importing the CLI adds to those it starts with.
    src = str(Path(sumconn.__file__).resolve().parents[1])
    code = (
        "import sys; before = set(sys.modules); import sumconn.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    added = set(subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src),
    ).stdout.split())
    assert not added & {"dataclasses", "inspect", "statistics"}
    assert {f"sumconn.{layer}" for layer in LAYERS} <= added
