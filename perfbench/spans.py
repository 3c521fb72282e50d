"""Span recorder that wraps swsurgery functions from outside the package.

Modules import names directly (``from .lattice import pair``), so a function
is replaced by identity in every ``swsurgery.*`` module namespace that holds
it; methods are replaced on their class.  Spans live in memory (name, start,
end, parent span, op id) and are written out when the run ends.  ``restore``
puts every original back.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import Counter
from time import perf_counter

from layers import FUNCTIONS


def _blowup_counts(counts, args, kwargs, result):
    model = args[0] if args else kwargs["X"]
    counts["manifold.blowup.tested"] += 2 * len(model.sw.entries)
    counts["manifold.blowup.kept"] += len(result.sw.entries)


def _lift_counts(counts, args, kwargs, result):
    candidates = args[1] if len(args) > 1 else kwargs["candidates"]
    counts["plumbing.find_characteristic_lifts.tested"] += len(candidates)
    counts["plumbing.find_characteristic_lifts.kept"] += len(result)


# Work counters taken from a call's arguments and result, keyed by span name.
COUNTERS = {
    "manifold.blowup": _blowup_counts,
    "plumbing.find_characteristic_lifts": _lift_counts,
}


class Recorder:
    """Records one span per call of a wrapped function while ``active``."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1
        self.active = False
        self._patches: list[tuple[object, str, object]] = []
        self._caches: dict[str, object] = {}

    def _wrap(self, fn, name):
        rec = self
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            i = len(rec.names)
            rec.names.append(name)
            rec.parents.append(rec.stack[-1] if rec.stack else -1)
            rec.ops.append(rec.op)
            rec.ends.append(0.0)
            rec.stack.append(i)
            rec.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.ends[i] = perf_counter()
                rec.stack.pop()
            if count is not None:
                count(rec.counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every function of ``layers.FUNCTIONS`` that the package still has."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "swsurgery" or n.startswith("swsurgery.")]
        for module, qualname, _ in FUNCTIONS:
            owner = sys.modules.get(f"swsurgery.{module}")
            name = f"{module}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name, None)
                original = vars(cls).get(attr) if cls is not None else None
                if original is None:
                    continue
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(original, name))
                continue
            original = getattr(owner, qualname, None)
            if original is None:
                continue
            if hasattr(original, "cache_info"):
                self._caches[name] = original
            wrapper = self._wrap(original, name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def layer_metrics(self) -> dict[str, float]:
        """calls, self_s, total_s and the work ratios for every listed function."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        for i in range(n):
            name = self.names[i]
            duration = self.ends[i] - self.starts[i]
            calls[name] += 1
            self_s[name] += duration - child[i]
            p = self.parents[i]
            while p >= 0 and self.names[p] != name:
                p = self.parents[p]
            if p < 0:  # outermost span of this name: inclusive time counts once
                total_s[name] += duration
        out = {}
        for module, qualname, stats in FUNCTIONS:
            name = f"{module}.{qualname}"
            for stat in stats:
                if stat == "calls":
                    value = calls[name]
                elif stat == "self_s":
                    value = self_s[name]
                elif stat == "total_s":
                    value = total_s[name]
                elif stat == "kept_ratio":
                    tested = self.counts[f"{name}.tested"]
                    value = self.counts[f"{name}.kept"] / tested if tested else 0.0
                else:  # hit_ratio: the caches are cleared before the traced pass
                    value = self._hit_ratio(name)
                out[f"{name}.{stat}"] = value
        return out

    def _hit_ratio(self, name) -> float:
        if name not in self._caches:
            return 0.0
        info = self._caches[name].cache_info()
        lookups = info.hits + info.misses
        return info.hits / lookups if lookups else 0.0

    def write(self, path):
        """Spans as gzipped JSON lines: [op, name, parent, start_s, end_s]."""
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self.names)):
                fh.write(json.dumps([self.ops[i], self.names[i], self.parents[i],
                                     round(self.starts[i] - t0, 9),
                                     round(self.ends[i] - t0, 9)]) + "\n")
