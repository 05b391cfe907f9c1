"""Outside-in tracing of one workload process, and the per-layer metrics.

The tracer never edits the program.  It replaces each layer's public
functions at every name a ``sumconn`` module bound them to (for example
``sumconn.enumeration.canonical_code`` and ``sumconn.verify.sum_connectivity``)
and a few methods on their classes (``RadicalValue.__add__``,
``RadicalValue.sign``), runs the workload, and puts every original back.

Each wrapped call records one span: name, start, end and the id of the span
it was called from.  Spans live in a flat ``array`` while the workload runs
and are written out raw at the end; :func:`layer_metrics` turns them into
counts and self times (a span's duration minus its direct children's) in
the benchmark process, so that analysis is not charged to the traced run.

Run as a program it traces one workload and writes ``spans.bin``,
``trace.json`` and ``speed.py``'s probe samples ``speed.bin`` into OUT_DIR::

    PYTHONPATH=src python3 perfbench/tracer.py OUT_DIR cli verify --all --json r.json
    PYTHONPATH=src python3 perfbench/tracer.py OUT_DIR trees-n16
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

# (span name, defining module, function).  A span name's part before ":"
# is its layer.  Every binding of the function in any loaded ``sumconn``
# module is wrapped, so calls through the defining module's own globals
# are traced too.
FUNCTIONS = [
    ("canon:canonical_code", "sumconn.canon", "canonical_code"),
    ("graphs.build:graph_from_edges", "sumconn.graphs", "graph_from_edges"),
    ("indices:sum_connectivity", "sumconn.indices", "sum_connectivity"),
    ("indices:product_connectivity", "sumconn.indices", "product_connectivity"),
    ("enumeration.trees:enumerate_trees", "sumconn.enumeration", "enumerate_trees"),
    ("enumeration.unicyclic:enumerate_unicyclic", "sumconn.enumeration", "enumerate_unicyclic"),
    ("graph6.emit:emit_graph6", "sumconn.graph6", "emit_graph6"),
    ("verify:run_sweeps", "sumconn.verify", "run_sweeps"),
    ("verify.task:verify_tree_max", "sumconn.verify", "verify_tree_max"),
    ("verify.task:verify_unicyclic_max", "sumconn.verify", "verify_unicyclic_max"),
    ("verify.task:verify_top_two", "sumconn.verify", "verify_top_two"),
    ("verify.task:transform_monotonicity_suite", "sumconn.verify", "transform_monotonicity_suite"),
    ("bounds:tree_max_bound", "sumconn.bounds", "tree_max_bound"),
    ("bounds:unicyclic_max_bound", "sumconn.bounds", "unicyclic_max_bound"),
    ("bounds:unicyclic_top_two", "sumconn.bounds", "unicyclic_top_two"),
    ("construct:tree_extremal", "sumconn.construct", "tree_extremal"),
    ("construct:unicyclic_extremal", "sumconn.construct", "unicyclic_extremal"),
    ("construct:spider_family", "sumconn.construct", "spider_family"),
    ("construct:cycle_spider_family", "sumconn.construct", "cycle_spider_family"),
    ("construct:attach_path", "sumconn.construct", "attach_path"),
    ("transforms:merge_pendant_paths", "sumconn.transforms", "merge_pendant_paths"),
    ("transforms:reattach_to_pendant", "sumconn.transforms", "reattach_to_pendant"),
    ("verify.serialize:_emit_json", "sumconn.cli", "_emit_json"),
]

# (span name, module, class, attribute): methods wrapped on the class.
METHODS = [
    ("radicals.arith:__add__", "sumconn.radicals", "RadicalValue", "__add__"),
    ("radicals.arith:__radd__", "sumconn.radicals", "RadicalValue", "__radd__"),
    ("radicals.arith:__mul__", "sumconn.radicals", "RadicalValue", "__mul__"),
    ("radicals.arith:__rmul__", "sumconn.radicals", "RadicalValue", "__rmul__"),
    ("radicals.arith:reciprocal_sqrt", "sumconn.radicals", "RadicalValue", "reciprocal_sqrt"),
    ("radicals.sign:sign", "sumconn.radicals", "RadicalValue", "sign"),
    ("verify.serialize:SweepResult", "sumconn.verify", "SweepResult", "to_json_dict"),
    ("verify.serialize:ExtremalReport", "sumconn.verify", "ExtremalReport", "to_json_dict"),
    ("verify.serialize:TopTwoReport", "sumconn.verify", "TopTwoReport", "to_json_dict"),
    ("verify.serialize:MonotonicityReport", "sumconn.verify", "MonotonicityReport", "to_json_dict"),
]

ROOT = "root:workload"

# The per-layer metrics, in the order BENCHMARK.json lists them.
LAYER_METRICS = [
    ("radicals.arith_calls", "count"),
    ("radicals.arith_s", "s"),
    ("radicals.sign_calls", "count"),
    ("radicals.sign_mixed", "count"),
    ("radicals.sign_s", "s"),
    ("indices.calls", "count"),
    ("indices.self_s", "s"),
    ("canon.calls", "count"),
    ("canon.misses", "count"),
    ("canon.hit_ratio", "ratio"),
    ("canon.self_s", "s"),
    ("canon.cache_entries", "count"),
    ("graphs.build_calls", "count"),
    ("graphs.build_s", "s"),
    ("enumeration.trees_s", "s"),
    ("enumeration.unicyclic_s", "s"),
    ("enumeration.classes", "count"),
    ("enumeration.candidates_per_class", "ratio"),
    ("graph6.emit_calls", "count"),
    ("graph6.emit_s", "s"),
    ("verify.serialize_s", "s"),
    ("verify.tasks", "count"),
    ("verify.self_s", "s"),
    ("bounds.self_s", "s"),
    ("construct.self_s", "s"),
    ("transforms.calls", "count"),
    ("transforms.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


class Tracer:
    """Span recorder plus the wrappers that feed it.

    ``spans`` holds four int64 per span: name id, start ns, end ns, parent
    span id (-1 for none).  ``install`` wraps the targets; ``restore`` puts
    back exactly what it replaced.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = array("q")
        self.stack = [-1]
        self.counters: dict[str, int] = {"radicals.sign_mixed": 0}
        self.missing: list[str] = []
        self.classes: set[tuple[str, int, tuple]] = set()
        self._replaced: list[tuple[object, str, object]] = []
        self._canon = None
        self._canon_before = None

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` wrapped to record one span named ``name`` per call."""
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args)
            sid = len(spans) >> 2
            spans.extend((nid, clock(), 0, stack[-1]))
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[4 * sid + 2] = clock()
            if after is not None:
                after(result)
            return result

        return traced

    def span(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside one span (used for the root span)."""
        return self.wrap(name, fn)(*args)

    # -- hooks ---------------------------------------------------------------

    def _classify_sign(self, value) -> None:
        signs = {q > 0 for _, q in value}
        if len(signs) == 2:
            self.counters["radicals.sign_mixed"] += 1

    def _record_classes(self, kind: str):
        def after(graphs) -> None:
            for g in graphs:
                self.classes.add((kind, g.n, g.edges))

        return after

    # -- install / restore -----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._replaced.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = [m for k, m in sorted(sys.modules.items()) if k == "sumconn" or k.startswith("sumconn.")]
        for name, modname, attr in FUNCTIONS:
            original = getattr(sys.modules.get(modname), attr, None)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            after = None
            if name.startswith("enumeration."):
                after = self._record_classes(name.split(":")[0])
            wrapper = self.wrap(name, original, after=after)
            if attr == "canonical_code" and hasattr(original, "cache_info"):
                self._canon, self._canon_before = original, original.cache_info()
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        wrappers: dict[int, object] = {}  # aliases such as __radd__ = __add__ share one
        for name, modname, clsname, attr in METHODS:
            cls = getattr(sys.modules.get(modname), clsname, None)
            raw = None if cls is None else cls.__dict__.get(attr)
            if raw is None:
                self.missing.append(f"{modname}.{clsname}.{attr}")
                continue
            if id(raw) not in wrappers:
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                before = self._classify_sign if name == "radicals.sign:sign" else None
                wrapped = self.wrap(name, fn, before=before)
                wrappers[id(raw)] = classmethod(wrapped) if isinstance(raw, classmethod) else wrapped
            self._set(cls, attr, wrappers[id(raw)])

    def restore(self) -> None:
        while self._replaced:
            owner, attr, original = self._replaced.pop()
            setattr(owner, attr, original)
        if self._canon is not None:
            after = self._canon.cache_info()
            self.counters["canon.hits"] = after.hits - self._canon_before.hits
            self.counters["canon.misses"] = after.misses - self._canon_before.misses
            self.counters["canon.cache_entries"] = after.currsize
        self.counters["enumeration.classes"] = len(self.classes)

    def dump(self, out_dir: Path) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "spans.bin", "wb") as fh:
            self.spans.tofile(fh)
        meta = {"names": self.names, "counters": self.counters, "missing": self.missing}
        (out_dir / "trace.json").write_text(json.dumps(meta), encoding="utf-8")


def load(out_dir: Path) -> tuple[list[str], array, dict[str, int], list[str]]:
    meta = json.loads((out_dir / "trace.json").read_text(encoding="utf-8"))
    spans = array("q")
    spans.frombytes((out_dir / "spans.bin").read_bytes())
    return meta["names"], spans, meta["counters"], meta["missing"]


def self_times(spans: array) -> tuple[list[int], list[int]]:
    """Per-span duration and self time in ns (duration minus direct children)."""
    count = len(spans) // 4
    dur = [spans[4 * i + 2] - spans[4 * i + 1] for i in range(count)]
    own = list(dur)
    for i in range(count):
        parent = spans[4 * i + 3]
        if parent >= 0:
            own[parent] -= dur[i]
    return dur, own


def layer_metrics(names: list[str], spans: array, counters: dict[str, int]) -> dict[str, float]:
    """Counts and times per layer from raw spans and the tracer's counters."""
    layer_of = [n.split(":")[0] for n in names]
    count = len(spans) // 4
    dur, own = self_times(spans)
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    outer_ns: dict[str, int] = {}  # inclusive time of spans not nested in their own layer
    enum_builds = 0
    for i in range(count):
        layer = layer_of[spans[4 * i]]
        calls[layer] = calls.get(layer, 0) + 1
        self_ns[layer] = self_ns.get(layer, 0) + own[i]
        parent = spans[4 * i + 3]
        nested = False
        in_enum = False
        while parent >= 0:
            up = layer_of[spans[4 * parent]]
            nested = nested or up == layer
            in_enum = in_enum or up.startswith("enumeration.")
            parent = spans[4 * parent + 3]
        if not nested:
            outer_ns[layer] = outer_ns.get(layer, 0) + dur[i]
        if layer == "graphs.build" and in_enum:
            enum_builds += 1

    def c(layer: str) -> int:
        return calls.get(layer, 0)

    def s(table: dict[str, int], *layers: str) -> float:
        return sum(table.get(layer, 0) for layer in layers) / 1e9

    canon_calls = c("canon")
    hits = counters.get("canon.hits", 0)
    misses = counters.get("canon.misses", canon_calls)
    classes = counters.get("enumeration.classes", 0)
    return {
        "radicals.arith_calls": c("radicals.arith"),
        "radicals.arith_s": s(self_ns, "radicals.arith"),
        "radicals.sign_calls": c("radicals.sign"),
        "radicals.sign_mixed": counters.get("radicals.sign_mixed", 0),
        "radicals.sign_s": s(self_ns, "radicals.sign"),
        "indices.calls": c("indices"),
        "indices.self_s": s(self_ns, "indices"),
        "canon.calls": canon_calls,
        "canon.misses": misses,
        "canon.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "canon.self_s": s(self_ns, "canon"),
        "canon.cache_entries": counters.get("canon.cache_entries", 0),
        "graphs.build_calls": c("graphs.build"),
        "graphs.build_s": s(self_ns, "graphs.build"),
        "enumeration.trees_s": s(outer_ns, "enumeration.trees"),
        "enumeration.unicyclic_s": s(outer_ns, "enumeration.unicyclic"),
        "enumeration.classes": classes,
        "enumeration.candidates_per_class": enum_builds / classes if classes else 0.0,
        "graph6.emit_calls": c("graph6.emit"),
        "graph6.emit_s": s(self_ns, "graph6.emit"),
        "verify.serialize_s": s(outer_ns, "verify.serialize"),
        "verify.tasks": c("verify.task"),
        "verify.self_s": s(self_ns, "verify", "verify.task"),
        "bounds.self_s": s(self_ns, "bounds"),
        "construct.self_s": s(self_ns, "construct"),
        "transforms.calls": c("transforms"),
        "transforms.self_s": s(self_ns, "transforms"),
    }


def main(argv: list[str]) -> int:
    import speed

    probes = speed.Probes()
    probes.install()
    out_dir, mode, rest = Path(argv[0]), argv[1], argv[2:]
    target = speed.entry(mode, rest)  # imports every layer module first
    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.span(ROOT, target)
    finally:
        tracer.restore()
        probes.save(out_dir / "speed.bin")
        sys.stdout.flush()
    tracer.dump(out_dir)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
