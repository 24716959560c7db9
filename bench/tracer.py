"""In-memory span tracer for the z2quiver layers, installed from outside the library.

`Tracer.install()` wraps every public module-level function of the five
modules (combinat, quiver, freeprod, localquiver, cli) plus a few methods
that do a layer's work, and rebinds each wrapper in every z2quiver module
namespace that imported the original, so calls between modules nest.  A
generator function is wrapped per resume: each `next()` is one span, which
keeps the consumer's work out of the producer's self time.

A span is (name, start_ns, end_ns, parent, op, error), stored flat in one
`array('q')` and written to disk only at the end.  Self time is a span's
duration minus the time its direct children cover; calls are
single-threaded, so children never overlap.

Work counters are computed from the arguments and results the wrappers see,
never read from the library's internals; `COUNTER_NOTES` says how.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from collections import Counter

LAYERS = ("combinat", "quiver", "freeprod", "localquiver", "cli")
FIELDS = 6  # name, start, end, parent, op, error

# Methods that do a layer's work but are not module-level functions.
METHODS = {
    "freeprod": {"CharacterMultiset": ("canonical",)},
    "quiver": {"Quiver": ("to_json_obj",)},
}

# Constant-time validation helpers stay unwrapped: a span costs about a
# microsecond, several times their own cost, and their time is the caller's.
HELPERS = ("combinat.check_ground", "combinat.check_subset", "combinat.full_mask", "combinat.min_element")

# Quiver-layer entry points whose first argument is a Quiver.
QUIVER_ARG = ("euler_form", "support", "is_strongly_connected", "is_simple_dimvector", "is_smooth_setting")

COUNTER_NOTES = {
    "freeprod.components_scanned": "computed: (m+1)**n per orbit_representatives(n, m) call",
    "freeprod.orbits_emitted": "computed: len() of each orbit_representatives result",
    "freeprod.treelike_subsets_scanned": "computed: 2**(2**n) - 1 nonempty vertex subsets per treelike_census(n) call",
    "freeprod.treelike_found": "computed: sum of the instance counts each treelike_census returns",
    "freeprod.canon_units": "computed: sum of multiplicities of each CharacterMultiset passed to canonical()",
    "freeprod.one_quiver_bytes": "computed: 8 * 4**n for each distinct n passed to build_one_quiver (its int64 matrix)",
    "quiver.matrix_cells": "computed: v**2 of the Quiver argument, summed over calls entering the quiver layer",
    "combinat.set_partitions_yielded": "counted: items yielded by the wrapped enumerate_set_partitions",
    "localquiver.class_scanned": "counted: set partitions yielded inside a degenerates_class call",
    "localquiver.class_shape_hits": "counted: those whose block sizes equal the shape of that call's t",
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = array("q")
        self.stack: list[int] = []
        self.op = 0  # id of the operation being traced; 0 is warm-up
        self.counters: Counter = Counter()  # work inside measured operations (op >= 1)
        self.setup_counters: Counter = Counter()  # work during warm-up (op 0)
        self._quiver_ns: set[int] = set()
        self._bindings: list[tuple[object, str, object, object]] = []  # (namespace, attribute, original, wrapper)
        self._shape: tuple[int, ...] | None = None

    # -- recording ---------------------------------------------------------

    def _enter(self, name_id: int) -> int:
        idx = len(self.spans) // FIELDS
        parent = self.stack[-1] if self.stack else -1
        self.spans.extend((name_id, time.perf_counter_ns(), 0, parent, self.op, 0))
        self.stack.append(idx)
        return idx

    def _exit(self, idx: int, error: bool = False) -> None:
        base = idx * FIELDS
        self.spans[base + 2] = time.perf_counter_ns()
        if error:
            self.spans[base + 5] = 1
        self.stack.pop()

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        before, after, per_item = _hooks(self, name)
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._enter(name_id)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._exit(idx)
                        return
                    except BaseException:
                        tracer._exit(idx, error=True)
                        raise
                    tracer._exit(idx)
                    if per_item:
                        per_item(item)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before:
                before(args, kwargs)
            idx = tracer._enter(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(idx, error=True)
                raise
            tracer._exit(idx)
            if after:
                after(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every layer in every z2quiver namespace;
        from here until `uninstall()`, every call into a layer is a span."""
        if not self._bindings:
            self._bind()
        for ns, key, _, wrapper in self._bindings:
            setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        """Put every original back, so untraced code runs without wrappers."""
        for ns, key, original, _ in self._bindings:
            setattr(ns, key, original)

    def _bind(self) -> None:
        import z2quiver
        from z2quiver import cli, combinat, freeprod, localquiver, quiver

        modules = {"combinat": combinat, "quiver": quiver, "freeprod": freeprod,
                   "localquiver": localquiver, "cli": cli}
        namespaces = [z2quiver, *modules.values()]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                # plain functions and lru_cache wrappers defined in this module; no classes
                if (attr.startswith("_") or name in HELPERS or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrapper = self._wrap(name, obj)
                for ns in namespaces:
                    self._bindings.extend((ns, key, obj, wrapper) for key, val in vars(ns).items() if val is obj)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    original = vars(cls)[meth]
                    self._bindings.append((cls, meth, original, self._wrap(f"{layer}.{cls_name}.{meth}", original)))

    # -- derivation --------------------------------------------------------

    def summarize(self) -> dict:
        """Per-name aggregates over the spans of measured operations (op >= 1)."""
        spans = self.spans
        count = len(spans) // FIELDS
        child_ns = [0] * count
        for i in range(count):
            parent = spans[i * FIELDS + 3]
            if parent >= 0:
                child_ns[parent] += spans[i * FIELDS + 2] - spans[i * FIELDS + 1]
        per_name: dict[str, list[int]] = {}
        for i in range(count):
            b = i * FIELDS
            if spans[b + 4] < 1:
                continue
            dur = spans[b + 2] - spans[b + 1]
            agg = per_name.setdefault(self.names[spans[b]], [0, 0, 0, 0])
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - child_ns[i]
            agg[3] += spans[b + 5]
        return {
            "spans": count,
            "per_name": {k: {"calls": v[0], "total_ns": v[1], "self_ns": v[2], "errors": v[3]}
                         for k, v in sorted(per_name.items())},
            "counters": dict(self.counters),
            "setup_counters": dict(self.setup_counters),
        }

    def reset(self) -> None:
        """Drop recorded spans and measured-operation counters; keep set-up counters."""
        self.spans = array("q")
        self.stack.clear()
        self.counters.clear()

    def write(self, path: str) -> None:
        """Spans as raw int64 rows (name id, start_ns, end_ns, parent, op, error)
        in `path`, and the name table as JSON in `path + '.names.json'`."""
        with open(path, "wb") as fh:
            self.spans.tofile(fh)
        with open(path + ".names.json", "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op", "error"],
                       "names": self.names}, fh)


def _hooks(tracer: Tracer, name: str):
    """(before(args, kwargs), after(args, kwargs, result), per_item(item)) for one wrapped name."""
    def c_add(key, value):
        (tracer.counters if tracer.op >= 1 else tracer.setup_counters)[key] += value

    def arg(args, kwargs, pos, key):
        return args[pos] if len(args) > pos else kwargs[key]

    if name == "freeprod.orbit_representatives":
        def after(args, kwargs, result):
            n, m = arg(args, kwargs, 0, "n"), arg(args, kwargs, 1, "m")
            c_add("freeprod.components_scanned", (m + 1) ** n)
            c_add("freeprod.orbits_emitted", len(result))
        return None, after, None
    if name == "freeprod.treelike_census":
        def after(args, kwargs, result):
            c_add("freeprod.treelike_subsets_scanned", 2 ** (2 ** arg(args, kwargs, 0, "n")) - 1)
            c_add("freeprod.treelike_found", sum(result.values()))
        return None, after, None
    if name == "freeprod.CharacterMultiset.canonical":
        def before(args, kwargs):
            c_add("freeprod.canon_units", sum(mult for _, mult in args[0].counts))
        return before, None, None
    if name == "freeprod.build_one_quiver":
        def before(args, kwargs):
            n = arg(args, kwargs, 0, "n")
            if n not in tracer._quiver_ns:
                tracer._quiver_ns.add(n)
                c_add("freeprod.one_quiver_bytes", 8 * 4 ** n)
        return before, None, None
    if name.startswith("quiver.") and name.split(".", 1)[1] in QUIVER_ARG:
        def before(args, kwargs):
            # count each quiver-layer entry once, not again for nested quiver calls
            if tracer.stack and tracer.names[tracer.spans[tracer.stack[-1] * FIELDS]].startswith("quiver."):
                return
            c_add("quiver.matrix_cells", arg(args, kwargs, 0, "q").arrows.shape[0] ** 2)
        return before, None, None
    if name == "localquiver.degenerates_class":
        def before(args, kwargs):
            # (stack depth of this call's span, the block sizes its scan looks for)
            tracer._shape = (len(tracer.stack), tuple(sorted(arg(args, kwargs, 1, "t").sizes, reverse=True)))
        return before, None, None
    if name == "combinat.enumerate_set_partitions":
        def per_item(item):
            c_add("combinat.set_partitions_yielded", 1)
            if tracer._shape is None:
                return
            depth, shape = tracer._shape
            if (len(tracer.stack) > depth and tracer.names[tracer.spans[tracer.stack[depth] * FIELDS]]
                    == "localquiver.degenerates_class"):
                c_add("localquiver.class_scanned", 1)
                if item.sizes == shape:
                    c_add("localquiver.class_shape_hits", 1)
        return None, None, per_item
    return None, None, None


# Per-layer metrics: name -> (unit, better).  Every workload reports all of
# them; a layer the workload leaves idle reads 0.
PER_LAYER = {
    **{f"{layer}.{what}": (unit, "lower") for layer in LAYERS
       for what, unit in (("self_s", "s"), ("calls", "count"), ("errors", "count"))},
    "cli.format_matrix_s": ("s", "lower"),
    "cli.out_bytes": ("B", "lower"),
    "cli.out_mb_per_s": ("MB/s", "higher"),
    "freeprod.components_scanned": ("count", "lower"),
    "freeprod.orbit_yield": ("ratio", "higher"),
    "combinat.canonicalize_calls": ("count", "lower"),
    "freeprod.treelike_subsets_scanned": ("count", "lower"),
    "freeprod.treelike_yield": ("ratio", "higher"),
    "freeprod.canon_self_s": ("s", "lower"),
    "freeprod.canon_units": ("count", "lower"),
    "freeprod.oracle_self_s": ("s", "lower"),
    "quiver.simple_test_calls": ("count", "lower"),
    "quiver.simple_test_mean_us": ("us", "lower"),
    "quiver.matrix_cells": ("count", "lower"),
    "freeprod.one_quiver_bytes": ("B", "lower"),
    "localquiver.degenerates_class_mean_ms": ("ms", "lower"),
    "combinat.set_partitions_yielded": ("count", "lower"),
    "localquiver.class_shape_hit_ratio": ("ratio", "higher"),
    "localquiver.elementary_moves_self_s": ("s", "lower"),
    "trace_overhead": ("ratio", "lower"),
}


def merge(summaries: list[dict]) -> dict:
    """Sum several summaries (one per census command process)."""
    out: dict = {"spans": 0, "per_name": {}, "counters": Counter(), "setup_counters": Counter()}
    for s in summaries:
        out["spans"] += s["spans"]
        for name, agg in s["per_name"].items():
            tot = out["per_name"].setdefault(name, dict.fromkeys(agg, 0))
            for k, v in agg.items():
                tot[k] += v
        out["counters"].update(s["counters"])
        out["setup_counters"].update(s["setup_counters"])
    return out


def layer_metrics(summary: dict, out_bytes: int, trace_overhead: float) -> dict[str, float]:
    """The PER_LAYER values of one traced pass, from its summary."""
    per_name, counters = summary["per_name"], summary["counters"]

    def get(name: str, field: str) -> int:
        return per_name.get(name, {}).get(field, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    vals: dict[str, float] = {}
    for layer in LAYERS:
        names = [k for k in per_name if k.startswith(layer + ".")]
        vals[f"{layer}.self_s"] = sum(per_name[k]["self_ns"] for k in names) / 1e9
        vals[f"{layer}.calls"] = sum(per_name[k]["calls"] for k in names)
        vals[f"{layer}.errors"] = sum(per_name[k]["errors"] for k in names)
    vals["cli.format_matrix_s"] = get("cli.format_matrix", "total_ns") / 1e9
    vals["cli.out_bytes"] = out_bytes
    vals["cli.out_mb_per_s"] = ratio(out_bytes / 1e6, vals["cli.self_s"])
    vals["freeprod.components_scanned"] = counters.get("freeprod.components_scanned", 0)
    vals["freeprod.orbit_yield"] = ratio(counters.get("freeprod.orbits_emitted", 0),
                                         vals["freeprod.components_scanned"])
    vals["combinat.canonicalize_calls"] = get("combinat.bn_canonicalize", "calls")
    vals["freeprod.treelike_subsets_scanned"] = counters.get("freeprod.treelike_subsets_scanned", 0)
    vals["freeprod.treelike_yield"] = ratio(counters.get("freeprod.treelike_found", 0),
                                            vals["freeprod.treelike_subsets_scanned"])
    vals["freeprod.canon_self_s"] = get("freeprod.CharacterMultiset.canonical", "self_ns") / 1e9
    vals["freeprod.canon_units"] = counters.get("freeprod.canon_units", 0)
    vals["freeprod.oracle_self_s"] = get("freeprod.is_simple_alpha_oracle", "self_ns") / 1e9
    vals["quiver.simple_test_calls"] = get("quiver.is_simple_dimvector", "calls")
    vals["quiver.simple_test_mean_us"] = ratio(get("quiver.is_simple_dimvector", "total_ns") / 1e3,
                                               vals["quiver.simple_test_calls"])
    vals["quiver.matrix_cells"] = counters.get("quiver.matrix_cells", 0)
    vals["freeprod.one_quiver_bytes"] = (counters.get("freeprod.one_quiver_bytes", 0)
                                         + summary["setup_counters"].get("freeprod.one_quiver_bytes", 0))
    vals["localquiver.degenerates_class_mean_ms"] = ratio(get("localquiver.degenerates_class", "total_ns") / 1e6,
                                                          get("localquiver.degenerates_class", "calls"))
    vals["combinat.set_partitions_yielded"] = counters.get("combinat.set_partitions_yielded", 0)
    vals["localquiver.class_shape_hit_ratio"] = ratio(counters.get("localquiver.class_shape_hits", 0),
                                                      counters.get("localquiver.class_scanned", 0))
    vals["localquiver.elementary_moves_self_s"] = get("localquiver.elementary_moves", "self_ns") / 1e9
    vals["trace_overhead"] = trace_overhead
    return vals
