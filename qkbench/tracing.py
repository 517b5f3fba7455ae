"""Wrappers around qkforge's public functions, installed from outside the program.

`Tracer.install` wraps every public function of the seven modules in a span
and rebinds each name in every qkforge module that imported it, so that
calls between modules pass through the wrappers too.  A handful of O(1)
helpers, called in inner loops, get a counter instead of a span; so do the
hot methods `ModulusContext.mulmod`, `FqElem.__mul__` and `FqElem.inverse`.
Spans are kept in flat arrays while the run lasts and written out as JSON
Lines when it ends.

`Marks` is the untraced run's only instrument: a clock read at the entry
and exit of a few coarse calls, which cuts each operation into segments.
"""

from __future__ import annotations

import json
import os
from array import array
from collections import Counter
from time import perf_counter

MODULES = ("ffpoly", "qk", "seqgen", "cm_arith", "extfield", "dynamics", "cli")
COUNT_ONLY = {
    "ffpoly.is_prime", "ffpoly.inv_mod", "ffpoly.legendre",
    "cm_arith.norm", "cm_arith.quad_mul", "cm_arith.one", "cm_arith.exact_div",
}
COUNTED_METHODS = (
    ("ffpoly", "ModulusContext", "mulmod", "ffpoly.mulmod"),
    ("extfield", "FqElem", "__mul__", "extfield.mul"),
    ("extfield", "FqElem", "__rmul__", "extfield.mul"),
    ("extfield", "FqElem", "inverse", "extfield.inverse"),
)


def _tag_config_bytes(args, result):
    """Bytes of the artifacts a CLI command wrote."""
    config = args[0]
    paths = [getattr(config, a) for a in ("out_path", "dot_path", "stats_path")]
    return sum(os.path.getsize(p) for p in paths if p)


# What a span remembers of its call, for the per-node and per-kind metrics.
TAGGERS = {
    "seqgen.next_poly": lambda args, result: result[2],
    "seqgen.generate_sequence": lambda args, result: sum(
        s.kind == "backtracked" for s in result.steps),
    "dynamics.build_graph": lambda args, result: (result.n, result.size),
    "dynamics.component_stats": lambda args, result: (args[0].n, args[0].size),
    "dynamics.export_dot": lambda args, result: args[0].size,
    "cli.cmd_generate": _tag_config_bytes,
    "cli.cmd_explore": _tag_config_bytes,
}


def public_functions(package):
    """(qualified name, object) of every public function of the modules."""
    for short in MODULES:
        mod = getattr(package, short)
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and not isinstance(obj, type) and callable(obj)
                    and getattr(obj, "__module__", None) == mod.__name__):
                yield f"{short}.{attr}", obj


def rebind(package, replace: dict) -> list:
    """Rebind every name bound to a replaced object, in every module of the
    package; `replace` maps id(original) to (original, wrapper).  Returns
    what `undo` needs to restore the originals."""
    done = []
    modules = [package] + [mod for mod in vars(package).values()
                           if type(mod) is type(package)]
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replace and replace[id(obj)][0] is obj:
                done.append((mod, attr, obj))
                setattr(mod, attr, replace[id(obj)][1])
    return done


def undo(done: list) -> None:
    for owner, attr, original in reversed(done):
        setattr(owner, attr, original)
    done.clear()


class Marks:
    """Timestamps at the entry and exit of a few coarse calls, which cut
    each operation into deterministic segments for the untraced estimator.
    Costs one clock read and one append per boundary."""

    AT = ("ffpoly.is_irreducible", "ffpoly.equal_degree_factorize", "qk.qk_transform",
          "qk.find_k", "cm_arith.count_points", "extfield.batch_inverse",
          "dynamics.build_graph", "dynamics.component_stats", "dynamics.export_dot")
    METHODS = (("ffpoly", "ModulusContext", "powmod"),)  # one per step of Rabin's test
    # Hot methods inside long calls (a batch inversion, the DOT export, the
    # powering by (p^d - 1)/2 in equal_degree_factorize): a clock read at
    # every Nth call cuts those calls into segments of a few milliseconds.
    EVERY = (("ffpoly", "ModulusContext", "mulmod", 16),
             ("extfield", "FqElem", "__mul__", 256),
             ("dynamics", "FunctionalGraph", "node_name", 1024))

    def __init__(self, package):
        self.times = array("d")
        self.calls = [0] * len(self.EVERY)
        replace = {id(obj): (obj, self._mark(obj))
                   for qualname, obj in public_functions(package) if qualname in self.AT}
        self._undo = rebind(package, replace)
        for short, cls_name, attr in self.METHODS:
            cls = getattr(getattr(package, short), cls_name)
            self._undo.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, self._mark(cls.__dict__[attr]))
        for slot, (short, cls_name, attr, every) in enumerate(self.EVERY):
            cls = getattr(getattr(package, short), cls_name)
            self._undo.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, self._every(cls.__dict__[attr], slot, every))

    def reset(self) -> None:
        """Start an operation: no cuts yet, and every call count at zero, so
        that each round cuts the operation at the same calls."""
        del self.times[:]
        self.calls[:] = [0] * len(self.calls)

    def _mark(self, fn):
        times = self.times

        def wrapper(*args, **kwargs):
            times.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                times.append(perf_counter())

        return wrapper

    def _every(self, fn, slot: int, every: int):
        times, calls = self.times, self.calls

        def wrapper(*args, **kwargs):
            calls[slot] += 1
            if calls[slot] % every == 0:
                times.append(perf_counter())
            return fn(*args, **kwargs)

        return wrapper

    def uninstall(self) -> None:
        undo(self._undo)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.info: dict[int, object] = {}
        self.counts: Counter = Counter()
        self.current = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, qualname: str, fn):
        tracer, name_id = self, len(self.names)
        self.names.append(qualname)
        tagger = TAGGERS.get(qualname)

        def wrapper(*args, **kwargs):
            parent = tracer.current
            i = len(tracer.start)
            tracer.name.append(name_id)
            tracer.parent.append(parent)
            tracer.end.append(0.0)
            tracer.current = i
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[i] = perf_counter()
                tracer.current = parent
            if tagger is not None:
                tracer.info[i] = tagger(args, result)
            return result

        return wrapper

    def _counter(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        replace = {}
        for qualname, obj in public_functions(self.package):
            wrap = self._counter if qualname in COUNT_ONLY else self._span
            replace[id(obj)] = (obj, wrap(qualname, obj))
        self._undo = rebind(self.package, replace)
        for short, cls_name, attr, key in COUNTED_METHODS:
            cls = getattr(getattr(self.package, short), cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._counter(key, original))

    def uninstall(self) -> None:
        undo(self._undo)

    # -- results --------------------------------------------------------------

    def layer_times(self) -> list[float]:
        """Per span, the time spent in its own layer: its duration minus the
        child spans of other layers, and minus whatever same-layer children
        spent in other layers.  A layer is a module, except that point
        counting is a layer of its own, so that `depths` time excludes it."""
        names = [self.names[i] for i in self.name]
        layer = ["cm_arith.count_points" if n == "cm_arith.count_points"
                 else n.split(".", 1)[0] for n in names]
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = dur[:]
        for i in range(len(dur) - 1, -1, -1):  # children come after parents
            par = self.parent[i]
            if par >= 0:
                own[par] -= dur[i] if layer[i] != layer[par] else dur[i] - own[i]
        return own

    def write_jsonl(self, path) -> None:
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                row = {"id": i, "name": self.names[self.name[i]], "parent": self.parent[i],
                       "start": round(self.start[i] - t0, 9), "end": round(self.end[i] - t0, 9)}
                if i in self.info:
                    row["info"] = self.info[i]
                fh.write(json.dumps(row) + "\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The span- and count-based per-layer metrics."""
        own = self.layer_times()
        names = [self.names[i] for i in self.name]
        calls: Counter = Counter(names)
        self_s: Counter = Counter()
        for n, t in zip(names, own):
            self_s[n] += t
        tagged: dict[str, list] = {}
        for i, value in self.info.items():
            tagged.setdefault(names[i], []).append((i, value))

        def per_kind(doubled: bool) -> float:
            return sum(self.end[i] - self.start[i] for i, kind in tagged.get("seqgen.next_poly", [])
                       if (kind == "transform-irreducible") == doubled)

        def per_node(fn: str, ext: bool) -> tuple[float, int]:
            rows = [(own[i], v) for i, v in tagged.get(fn, [])]
            t = sum(o for o, (n, size) in rows if (n > 1) == ext)
            nodes = sum(size for o, (n, size) in rows if (n > 1) == ext)
            return t, nodes

        out: dict[str, tuple[float, str]] = {}
        out["ffpoly.mulmod_calls"] = (self.counts["ffpoly.mulmod"], "count")
        for fn, key in (("ffpoly.is_irreducible", "ffpoly.is_irreducible"),
                        ("ffpoly.equal_degree_factorize", "ffpoly.edf"),
                        ("qk.qk_transform", "qk.transform")):
            out[f"{key}_s"] = (self_s[fn], "s")
            out[f"{key}_calls"] = (calls[fn], "count")
        out["seqgen.generate_s"] = (self_s["seqgen.generate_sequence"], "s")
        out["seqgen.verify_s"] = (self_s["seqgen.verify_against_schedule"], "s")
        out["seqgen.next_poly_s.doubled"] = (per_kind(True), "s")
        out["seqgen.next_poly_s.split"] = (per_kind(False), "s")
        out["seqgen.steps"] = (calls["seqgen.next_poly"], "count")
        out["seqgen.backtracked"] = (
            sum(v for _, v in tagged.get("seqgen.generate_sequence", [])), "count")
        out["cli.generate_s"] = (self_s["cli.cmd_generate"], "s")
        out["cli.explore_s"] = (self_s["cli.cmd_explore"], "s")
        out["cli.artifact_bytes"] = (
            sum(v for fn in ("cli.cmd_generate", "cli.cmd_explore")
                for _, v in tagged.get(fn, [])), "bytes")
        out["cm_arith.count_points_s"] = (self_s["cm_arith.count_points"], "s")
        out["cm_arith.depths_s"] = (self_s["cm_arith.depths"], "s")
        out["cm_arith.depths_calls"] = (calls["cm_arith.depths"], "count")
        out["extfield.mul_calls"] = (self.counts["extfield.mul"], "count")
        for kind, ext in (("prime", False), ("ext", True)):
            t, nodes = per_node("dynamics.build_graph", ext)
            out[f"dynamics.build_us_per_node.{kind}"] = (1e6 * t / max(nodes, 1), "us")
            out[f"dynamics.nodes.{kind}"] = (nodes, "count")
            t, nodes = per_node("dynamics.component_stats", ext)
            out[f"dynamics.stats_us_per_node.{kind}"] = (1e6 * t / max(nodes, 1), "us")
        dot_nodes = sum(v for _, v in tagged.get("dynamics.export_dot", []))
        out["dynamics.export_dot_us_per_node"] = (
            1e6 * self_s["dynamics.export_dot"] / max(dot_nodes, 1), "us")
        return out
