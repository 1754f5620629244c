"""Per-layer tracing for the spinduct benchmark, installed from outside the
package.

`install()` wraps each function named in `LAYERS` and rebinds the wrapper
in every loaded `spinduct` module that holds the original under any name,
so by-name imports (`from .weyl import generate_weyl`) are traced too.
Each call records one span (function, start, end, parent) in flat arrays;
`Tracer.raw_stats()` derives summable per-layer numbers from those spans,
`merge` adds them up over processes, `finalize` turns them into metrics,
and `Tracer.write_spans()` writes the spans out.

Stats per function, named `<module>.<function>.<stat>`:

* `calls`, `total_s` (outermost spans of the function only, so recursion is
  not counted twice) and `self_s` (span duration minus the time its direct
  child spans cover);
* `work`, an exactly repeating count of the input or output size, for the
  kernels, the Weyl enumerations and Freudenthal characters;
* `reuse_ratio` for the cached functions: the share of calls that returned
  an object already returned before (compared by identity);
* `repeat_ratio` for `weyl.coset_representatives`: the share of calls whose
  arguments (ambient Weyl group, subgroup) were already seen.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional


# "<module>.<function>" -> work count taken from (args, result), or None
LAYERS: Dict[str, Optional[Callable]] = {
    "kernels.convolve": lambda args, out: len(args[0]) * len(args[1]),
    "kernels.weyl_sum": lambda args, out: len(args[0]) * len(args[3]),
    "kernels.dominant_collect": lambda args, out: len(args[0]),
    "kernels.orbit_expand": lambda args, out: len(out),
    "weyl.generate_weyl": lambda args, out: out.order,
    "weyl.coset_representatives": lambda args, out: len(out.reps),
    "weyl.apply_weyl_sum": None,
    "weyl.to_dominant_chamber": None,
    "charring.irreducible_restriction": lambda args, out: len(out.coeffs),
    "charring.weyl_denominator": None,
    "charring.euler_class": None,
    "charring.multiply": None,
    "charring.anti_invariant_decompose": None,
    "induction.make_problem": None,
    "induction.collect_to_chamber": None,
    "induction.induce_between": None,
    "induction.extract_highest_weights": None,
    "induction.divide_exact": None,
    "induction.lefschetz_check": None,
    "induction.bwb_irreducible": None,
    "rootdata.build_root_datum": None,
    "rootdata.subgroup_from_roots": None,
    "multiplets.multiplet": None,
    "spinc.classify": None,
    "serialize.group_to_json": None,
    "serialize.torus_to_json": None,
    "cli.main": None,
}

# functions backed by a process-wide cache
CACHED = (
    "weyl.generate_weyl",
    "charring.irreducible_restriction",
    "charring.weyl_denominator",
    "charring.euler_class",
    "induction.make_problem",
)

REPEAT_TRACKED = "weyl.coset_representatives"


def metric_names() -> List[str]:
    """Every per-layer metric name, in a fixed order."""
    names = []
    for fn, work in LAYERS.items():
        names += [f"{fn}.calls", f"{fn}.self_s", f"{fn}.total_s"]
        if work is not None:
            names.append(f"{fn}.work")
        if fn in CACHED:
            names.append(f"{fn}.reuse_ratio")
        if fn == REPEAT_TRACKED:
            names.append(f"{fn}.repeat_ratio")
    return names


class Tracer:
    """Span recorder for one process and one thread."""

    def __init__(self) -> None:
        self.names: List[str] = list(LAYERS)
        self.fid = array("i")
        self.parent = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self._depth = [0] * len(self.names)
        self.work = [0] * len(self.names)
        self.reused = [0] * len(self.names)
        self._returned: Dict[int, Dict[int, object]] = {}
        self.repeats = 0
        self._seen_args: set = set()

    def wrap(self, name: str, fn: Callable) -> Callable:
        fid = self.names.index(name)
        work = LAYERS[name]
        returned = self._returned.setdefault(fid, {}) if name in CACHED else None
        repeat = name == REPEAT_TRACKED
        clock = time.perf_counter
        stack, depth = self._stack, self._depth
        fids, parents, outers, starts, ends = (
            self.fid, self.parent, self.outer, self.start, self.end
        )

        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            outers.append(1 if depth[fid] == 0 else 0)
            ends.append(0.0)
            stack.append(idx)
            depth[fid] += 1
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                depth[fid] -= 1
                stack.pop()
            if work is not None:
                self.work[fid] += work(args, out)
            if returned is not None:
                if returned.get(id(out)) is out:
                    self.reused[fid] += 1
                else:
                    returned[id(out)] = out
            if repeat:
                key = (args[0].scope.scope_key(), args[1].key)
                if key in self._seen_args:
                    self.repeats += 1
                else:
                    self._seen_args.add(key)
            return out

        return traced

    def raw_stats(self) -> Dict[str, float]:
        """Summable per-layer counts over the spans recorded so far."""
        n = len(self.fid)
        k = len(self.names)
        calls = [0] * k
        total = [0.0] * k
        self_s = [0.0] * k
        child = [0.0] * n
        fid, parent, outer, start, end = self.fid, self.parent, self.outer, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        for i in range(n):
            f = fid[i]
            d = end[i] - start[i]
            calls[f] += 1
            self_s[f] += d - child[i]
            if outer[i]:
                total[f] += d
        out: Dict[str, float] = {}
        for f, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[f]
            out[f"{name}.self_s"] = self_s[f]
            out[f"{name}.total_s"] = total[f]
            if LAYERS[name] is not None:
                out[f"{name}.work"] = self.work[f]
            if name in CACHED:
                out[f"{name}.reused"] = self.reused[f]
            if name == REPEAT_TRACKED:
                out[f"{name}.repeats"] = self.repeats
        return out

    def write_spans(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent span index."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.fid)):
                fh.write(json.dumps(
                    [self.names[self.fid[i]], self.start[i], self.end[i], self.parent[i]]
                ))
                fh.write("\n")


def merge(stats: List[Dict[str, float]]) -> Dict[str, float]:
    """Sum raw stats of several processes."""
    out: Dict[str, float] = {}
    for one in stats:
        for key, value in one.items():
            out[key] = out.get(key, 0) + value
    return out


def finalize(raw: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics, in `metric_names()` order, from summed raw stats."""
    out: Dict[str, float] = {}
    for name in metric_names():
        fn, stat = name.rsplit(".", 1)
        calls = raw.get(f"{fn}.calls", 0)
        if stat == "reuse_ratio":
            out[name] = raw.get(f"{fn}.reused", 0) / calls if calls else 0.0
        elif stat == "repeat_ratio":
            out[name] = raw.get(f"{fn}.repeats", 0) / calls if calls else 0.0
        else:
            out[name] = raw.get(name, 0)
    return out


def install(tracer: Tracer) -> None:
    """Wrap every function in LAYERS and rebind it wherever spinduct holds it."""
    for name in LAYERS:
        mod_name, fn_name = name.split(".")
        module = importlib.import_module(f"spinduct.{mod_name}")
        original = getattr(module, fn_name)
        wrapped = tracer.wrap(name, original)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not (
                loaded_name == "spinduct" or loaded_name.startswith("spinduct.")
            ):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, attr, wrapped)
