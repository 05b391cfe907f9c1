"""Command-line interface.

Subcommands: compute, construct, bound, enumerate, verify, correlate,
export.  Human-readable tables go to stdout; ``--json`` switches to a
stable JSON rendering (``--json -`` or bare ``--json`` for stdout, or a
file path).  Exit codes: 0 success, 1 verification mismatch, 2 usage or
input error.  Identical invocations produce identical bytes.
Ranges come from ``construct.RANGES``: ``bound`` to n = 256 (trees) and
255 (unicyclic), the rest to 16.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Sequence

from .bounds import tree_max_bound, unicyclic_max_bound
from .canon import canonical_form
from .construct import GraphClassSpec, extremal_family
from .enumeration import _degree_counts, enumerate_trees, enumerate_unicyclic
from .graph6 import emit_graph6, parse_graph6, to_dot
from .graphs import Graph, GraphError, graph_from_edges, max_degree
from .indices import IndexKind, connectivity_index
from .radicals import RadicalValue
from .verify import (
    _correlation,
    run_sweeps,
    transform_monotonicity_suite,
    verify_top_two,
    verify_tree_max,
    verify_unicyclic_max,
)

USAGE_ERROR = 2
MISMATCH = 1
TRIALS = 1000  # the transform suite's trials when --trials is not given


def _read_edge_file(path: str) -> Graph:
    """Edge-list file: one ``u v`` pair per line; n is the largest label + 1."""
    pairs: list[tuple[int, int]] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for number, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    u, v = map(int, line.split())
                except ValueError:
                    raise GraphError(
                        f"{path}, line {number}: expected two integer labels 'u v', got {line!r}"
                    ) from None
                pairs.append((u, v))
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path}: {exc}") from None
    if not pairs:
        raise GraphError(f"no edges found in {path}")
    n = max(max(u, v) for u, v in pairs) + 1
    try:
        return graph_from_edges(n, pairs)
    except GraphError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _input_graph(args: argparse.Namespace) -> Graph:
    if args.g6 is not None:
        return parse_graph6(args.g6)
    return _read_edge_file(args.edges)


def _write(target: str, pieces: Iterable[str]) -> None:
    """Write ``pieces`` in turn to stdout (``-``) or the file ``target``."""
    if target == "-":
        sys.stdout.writelines(pieces)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


def _render_json(payload: dict) -> str:
    # No cycle check: every payload is a fresh tree of dicts and lists.
    return json.dumps(payload, indent=2, sort_keys=True, check_circular=False) + "\n"


def _emit_json(payload: dict, target: str) -> None:
    _write(target, [_render_json(payload)])


def _listing_json(payload: dict, chunks: Iterable[list[str]]) -> Iterator[str]:
    """``_render_json`` of ``payload`` with ``"graphs"``, the strings of
    ``chunks``, one piece per chunk: the list is rendered with one
    placeholder item, and each chunk's strings, JSON-escaped and joined as
    the rendering joins items, stand in its place."""
    head, tail = _render_json({**payload, "graphs": ["\0"]}).split(json.dumps("\0"))
    between = "," + head[head.rindex("\n") :]
    pieces = (between.join(map(encode_basestring_ascii, chunk)) for chunk in chunks if chunk)
    first = next(pieces, None)
    if first is None:  # rendered as []
        yield head.rstrip() + tail.lstrip()
        return
    yield head + first
    for piece in pieces:
        yield between + piece
    yield tail


def _print_value(label: str, value: RadicalValue) -> None:
    print(f"{label}:")
    print(f"  exact: {value}")
    print(f"  terms: {json.dumps(value.to_json_dict()['terms'])}")
    print(f"  float: {float(value)!r}")


# -- subcommands ----------------------------------------------------------------


def _cmd_compute(args: argparse.Namespace) -> int:
    g = _input_graph(args)
    kind = IndexKind(args.index)
    value = connectivity_index(g, kind)
    if args.json:
        _emit_json(
            {
                "kind": "compute",
                "index": kind.value,
                "n": g.n,
                "m": g.m,
                "value": value.to_json_dict(),
            },
            args.json,
        )
    else:
        print(f"graph: n={g.n} m={g.m} maxdeg={max_degree(g)}")
        _print_value(f"{kind.value}-connectivity", value)
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    spec = GraphClassSpec(n=args.n, delta=args.delta, graph_class=args.graph_class)
    graphs = extremal_family(spec)
    if args.json:
        _emit_json(
            {
                "kind": "construct",
                "class": args.graph_class,
                "n": args.n,
                "delta": args.delta,
                "graphs": [emit_graph6(g) for g in graphs],
            },
            args.json,
        )
    elif args.dot:
        for i, g in enumerate(graphs):
            sys.stdout.write(to_dot(g, name=f"extremal_{i}"))
    else:
        for g in graphs:
            print(emit_graph6(g))
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    fn = tree_max_bound if args.graph_class == "tree" else unicyclic_max_bound
    value = fn(args.n, args.delta)
    if args.json:
        _emit_json(
            {
                "kind": "bound",
                "class": args.graph_class,
                "n": args.n,
                "delta": args.delta,
                "value": value.to_json_dict(),
            },
            args.json,
        )
    else:
        _print_value(f"max {args.graph_class} bound (n={args.n}, delta={args.delta})", value)
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.count_only:
        # Counted from the records' degrees: no listing or graph is built.
        counts = _degree_counts(args.graph_class, args.n, args.delta)
        total = sum(counts.values())
        if args.json:
            _emit_json(
                {
                    "kind": "enumerate",
                    "class": args.graph_class,
                    "n": args.n,
                    "counts": {str(d): c for d, c in counts.items()},
                    "total": total,
                },
                args.json,
            )
        else:
            for d, c in counts.items():
                print(f"delta={d} count={c}")
            print(f"total={total}")
        return 0
    enumerate_fn = enumerate_trees if args.graph_class == "tree" else enumerate_unicyclic
    graphs = enumerate_fn(args.n, args.delta)
    if args.json:
        # Written a chunk at a time from the records: no graph is built.
        payload = {"kind": "enumerate", "class": args.graph_class, "n": args.n}
        _write(args.json, _listing_json(payload, graphs.graph6_chunks()))
    else:
        _write("-", ("\n".join(lines) + "\n" for lines in graphs.graph6_chunks()))
    return 0


# Each verify kind: the flags it needs, the flags it also takes, and its run.
# A run looks its function up in this module when it is called, so a wrapper
# bound over that name (as perfbench/tracer.py binds one) is the one called.
_VERIFY_KINDS = {
    "tree": (("n", "delta"), (), lambda args: verify_tree_max(args.n, args.delta)),
    "unicyclic": (("n", "delta"), (), lambda args: verify_unicyclic_max(args.n, args.delta)),
    "toptwo": (("n",), (), lambda args: verify_top_two(args.n)),
    "transforms": ((), ("trials", "seed"), lambda args: transform_monotonicity_suite(
        TRIALS if args.trials is None else args.trials, seed=args.seed or 0)),
    "all": ((), (), lambda args: run_sweeps()),
}


def _cmd_verify(args: argparse.Namespace) -> int:
    kind = "all" if args.all else args.graph_class or "tree"
    needs, takes, run = _VERIFY_KINDS[kind]
    given = {"class": args.graph_class if args.all else None, "n": args.n, "delta": args.delta,
             "trials": args.trials, "seed": args.seed}
    for flag, value in given.items():
        if flag not in takes and (value is None) == (flag in needs):
            request = "--all" if args.all else f"--class {kind}"
            raise ValueError(f"verify {request} {'needs' if flag in needs else 'takes no'} --{flag}")
    report = run(args)
    if args.json:
        _emit_json(report.to_json_dict(), args.json)
    else:
        print(report.to_text())
    return 0 if report.passed else MISMATCH


def _cmd_correlate(args: argparse.Namespace) -> int:
    r, count = _correlation(args.n, args.max_delta)
    if args.json:
        _emit_json(
            {
                "kind": "correlate",
                "n": args.n,
                "max_delta": args.max_delta,
                "graphs": count,
                "pearson": r,
            },
            args.json,
        )
    else:
        print(f"trees n={args.n} maxdeg<={args.max_delta or args.n - 1}: {count} graphs")
        print(f"pearson(sum, product) = {r!r}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    g = _input_graph(args)
    if args.canonical:
        g = canonical_form(g)
    if args.json:
        _emit_json(
            {
                "kind": "export",
                "n": g.n,
                "m": g.m,
                "graph6": emit_graph6(g),
                "edges": [list(e) for e in g.edges],
            },
            args.json,
        )
    elif args.dot:
        sys.stdout.write(to_dot(g))
    else:
        print(emit_graph6(g))
    return 0


# -- parser ----------------------------------------------------------------------


def _add_json_flag(p) -> None:
    p.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="emit JSON to PATH (or stdout when no path is given)",
    )


def _add_graph_input(p: argparse.ArgumentParser) -> None:
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--g6", help="graph6 string")
    given.add_argument("--edges", help="edge-list file, one 'u v' pair per line")


def _add_dot_or_json(p: argparse.ArgumentParser) -> None:
    output = p.add_mutually_exclusive_group()
    output.add_argument("--dot", action="store_true", help="emit DOT instead of graph6")
    _add_json_flag(output)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumconn",
        description="Sum/product-connectivity indices, extremal families, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="index of a single graph")
    _add_graph_input(p)
    p.add_argument("--index", choices=["sum", "product"], default="sum")
    _add_json_flag(p)
    p.set_defaults(fn=_cmd_compute)

    p = sub.add_parser("construct", help="emit the extremal family for (class, n, delta)")
    p.add_argument("--class", dest="graph_class", choices=["tree", "unicyclic"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    _add_dot_or_json(p)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("bound", help="closed-form maximum value")
    p.add_argument("--class", dest="graph_class", choices=["tree", "unicyclic"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    _add_json_flag(p)
    p.set_defaults(fn=_cmd_bound)

    p = sub.add_parser("enumerate", help="isomorph-free family listing")
    p.add_argument("--class", dest="graph_class", choices=["tree", "unicyclic"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--count-only", action="store_true")
    _add_json_flag(p)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("verify", help="brute-force verification")
    p.add_argument(
        "--class",
        dest="graph_class",
        choices=[kind for kind in _VERIFY_KINDS if kind != "all"],
        help="the class to verify (default tree)",
    )
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--all", action="store_true", help="run the full standard sweep")
    p.add_argument("--trials", type=int, help=f"transform suite trials (default {TRIALS})")
    p.add_argument("--seed", type=int, help="transform suite seed, nonnegative (default 0)")
    _add_json_flag(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("correlate", help="Pearson correlation of the two indices over trees")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-delta", type=int, default=None)
    _add_json_flag(p)
    p.set_defaults(fn=_cmd_correlate)

    p = sub.add_parser("export", help="convert a graph between formats")
    _add_graph_input(p)
    p.add_argument(
        "--canonical",
        action="store_true",
        help="canonically relabel first (trees and unicyclic graphs only)",
    )
    _add_dot_or_json(p)
    p.set_defaults(fn=_cmd_export)

    return parser


def dispatch(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    if hasattr(signal, "SIGPIPE"):
        # Python ignores SIGPIPE, so a write to a closed stdout would raise
        # and exit 2, as a usage error; end as other filters do instead.
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
