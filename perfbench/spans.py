"""Span tracing of calls into partialgossip's public functions, from outside.

``Tracer.install`` replaces each traced function in every ``partialgossip``
module namespace that binds it, so a call is caught wherever its caller looks
the name up: ``dfs`` resolves ``canonical_key`` as a global of ``oracle``,
``lemmas`` holds its own references to the enumerators, ``cli`` to the
synthesizers, and the benchmark calls through the package namespace.  Nothing
under ``src/`` is edited.

A span records a function id, start, end and parent span.  Spans stay in flat
arrays (24 bytes each) until the run ends.  Generator results
(``labeled_trees``, the ``schedules`` stream of the scheme enumerators) are
wrapped so that each ``next()`` is one span: the enumerator is charged for
producing an item, its consumer for the rest.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("formulas", "constructions", "core", "graph", "oracle", "lemmas", "cli")

# Public functions wrapped, per layer.  Helpers that their own layer calls in
# hot loops (t_value in classify_regime's band scan, as_call once per Call)
# are left out: a span costs about a microsecond, as much as such a call.
TRACED = {
    "formulas": ("p_min_calls", "classify_regime"),
    "constructions": ("synth_doubling", "synth_tree_variant", "synth_multiblock",
                      "minimal_informing_tree"),
    "core": ("simulate", "apply_preliminary", "awareness", "is_k_informing",
             "schedule_to_json", "schedule_from_json"),
    "graph": ("full_graph", "classify_components", "swap_blocks", "are_equivalent", "to_dot"),
    "oracle": ("min_calls_bruteforce", "canonical_key", "labeled_trees",
               "enumerate_tree_schemes", "enumerate_unicyclic_schemes"),
    "lemmas": ("check_lemma",),
    "cli": ("main",),
}


def _calls_in(schedule) -> int:
    """Calls held by a Schedule or an AugmentedSchedule."""
    if hasattr(schedule, "base"):
        return len(schedule.preliminary) + len(schedule.base.calls)
    return len(schedule.calls)


# Work counted at a function boundary: name -> (counter, f(args, result)).
_WORK = {
    "core.simulate": ("core.calls_simulated", lambda args, res: _calls_in(args[0])),
    "core.apply_preliminary": ("core.calls_simulated", lambda args, res: _calls_in(args[0])),
}
for _name in TRACED["constructions"]:
    _WORK[f"constructions.{_name}"] = ("constructions.calls_emitted",
                                       lambda args, res: len(res.calls))


class _TracedIter:
    """Iterator proxy recording each ``next()`` as a span of function ``fid``."""

    __slots__ = ("_tracer", "_fid", "_it")

    def __init__(self, tracer: "Tracer", fid: int, it):
        self._tracer, self._fid, self._it = tracer, fid, iter(it)

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        idx = tracer._open(self._fid)
        try:
            item = next(self._it)
        finally:
            tracer._close(idx)
        tracer.items[self._fid] += 1
        return item


class Tracer:
    """Collects spans once ``install`` has run; ``summary`` aggregates a slice."""

    def __init__(self):
        self.names: list[str] = []   # function id -> "layer.func"
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.items: list[int] = []   # function id -> items its iterators yielded
        self.work: Counter = Counter()
        self._stack: list[int] = []
        self._clock = time.perf_counter

    def _open(self, fid: int) -> int:
        idx = len(self.fid)
        self.fid.append(fid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self._clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = self._clock()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        fid = len(self.names)
        self.names.append(name)
        self.items.append(0)
        work = _WORK.get(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return _TracedIter(self, fid, fn(*args, **kwargs))
            return gen_wrapper
        streams = name.startswith("oracle.enumerate_")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(fid)
            try:
                res = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if work is not None:
                self.work[work[0]] += work[1](args, res)
            if streams:
                res.schedules = _TracedIter(self, fid, res.schedules)
            elif name == "constructions.minimal_informing_tree":
                self.items[fid] += 1
            return res

        return wrapper

    def install(self) -> None:
        """Replace every traced function wherever a partialgossip module binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "partialgossip" or key.startswith("partialgossip.")]
        for layer, funcs in TRACED.items():
            home = sys.modules[f"partialgossip.{layer}"]
            for func in funcs:
                original = getattr(home, func)
                wrapper = self._wrap(original, f"{layer}.{func}")
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, attr, wrapper)

    def snapshot(self) -> tuple:
        """Marks a pass boundary for ``summary``."""
        return len(self.fid), list(self.items), Counter(self.work)

    def summary(self, before: tuple, after: tuple) -> dict:
        """Aggregates the spans and counters between two snapshots.

        Per function: self time (duration minus the time its child spans
        cover), span count and items yielded.  Per layer: self time and
        entries, the spans whose parent is absent or in another layer.  Also
        the time covered by top-level spans, and the work counters.
        """
        first, items0, work0 = before
        last, items1, work1 = after
        nf = len(self.names)
        self_s = [0.0] * nf
        count = [0] * nf
        layer_of = [name.split(".", 1)[0] for name in self.names]
        entries: Counter = Counter()
        child: dict[int, float] = defaultdict(float)
        covered = 0.0
        fid, parent, start, end = self.fid, self.parent, self.start, self.end
        for idx in range(last - 1, first - 1, -1):  # a span's children come after it
            d = end[idx] - start[idx]
            f = fid[idx]
            self_s[f] += d - child.pop(idx, 0.0)
            count[f] += 1
            p = parent[idx]
            if p < 0:
                covered += d
                entries[layer_of[f]] += 1
            else:
                child[p] += d
                if layer_of[fid[p]] != layer_of[f]:
                    entries[layer_of[f]] += 1
        layer_self: dict[str, float] = defaultdict(float)
        for f in range(nf):
            layer_self[layer_of[f]] += self_s[f]
        return {
            "self_s": dict(zip(self.names, self_s)),
            "count": dict(zip(self.names, count)),
            "items": {name: items1[f] - items0[f] for f, name in enumerate(self.names)},
            "work": {key: work1[key] - work0[key] for key in work1},
            "layer_self_s": {layer: layer_self[layer] for layer in LAYERS},
            "layer_entries": {layer: entries[layer] for layer in LAYERS},
            "covered_s": covered,
            "spans": last - first,
        }
