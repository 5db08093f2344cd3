"""One workload in one interpreter: set-up, then timed passes over fixed inputs.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``:

    python3 perfbench/workloads.py --workload oracle_search --seed 1 --seconds 15 \
        --trace 0 [--setup-only]

Set-up (importing ``partialgossip``, generating the seeded inputs, warm-up)
ends at the ``ready`` timestamp, taken on ``time.monotonic`` so that the
parent can subtract its own spawn time.  Then passes over the same inputs
repeat until ``--seconds`` have elapsed, at least one.  With ``--trace 1``
the first half of that time runs untraced passes and the second half traced
ones, whose spans give the per-layer metrics.  The last line of standard
output is one JSON object for the parent.

Every operation's output is checked; a wrong answer, an oracle timeout, an
exception or an unexpected CLI exit code is a failed operation.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

OUT = Path(__file__).resolve().parent / "out"

# Fixed here, so that the workload stays the same if the package adds a suite.
LEMMA_IDS = ("L1a", "L1b", "L1c", "L2", "L3", "L4a", "L4b", "L5a", "L5b", "L6s1")

# Criterion-1 sweep (every k for n <= 6) plus the larger instances that hold
# most of the search time; the seed only shuffles the order.
ORACLE_INSTANCES = tuple((n, k) for n in range(2, 7) for k in range(2, n + 1)) + (
    (8, 5), (8, 6), (9, 6), (10, 5), (10, 6))
ORACLE_BUDGET_S = 60.0  # per solve; a timeout is a failed operation

# synth_verify instances, as (log2 n, method).  n is drawn from the top 1/128
# below 2^e for e >= 10, so a pass's work (quadratic in n) hardly moves with
# the seed; the large slots fix their method for the same reason, the small
# ones draw it.  n stays at or below 2^15: at 2^16 one simulation already peaks
# near 300 MB, and 2^17 calls would pass 1 GB on a machine shared with others.
SYNTH_SLOTS = ((15, "doubling"), (14, "tree"), (14, "multiblock"), (13, "doubling"),
               (13, "tree"), (12, "multiblock"), (12, None), (11, None), (10, None),
               (9, None), (8, None), (7, None), (6, None), (5, None), (4, None), (3, None))
METHODS = ("doubling", "tree", "multiblock")
K_MAX_SYNTH = 40
# Closed-form queries at large k: classify_regime's band scan costs about k^2
# bit operations here, so k is fixed and only n is drawn.
LARGE_K = (25_000, 50_000, 100_000, 200_000)


class Wrong(Exception):
    """An operation returned a wrong answer."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise Wrong(what)


# ---------------------------------------------------------------------------
# reference closed form, independent of the package under test
# ---------------------------------------------------------------------------

def ref_band(n: int, k: int) -> int | None:
    """Band index i with t_i(k) <= n < t_{i-1}(k); None when n >= 2^(k-1) - 1."""
    if (n + 1).bit_length() >= k:
        return None

    def t_at_most_n(i: int) -> bool:  # t_i(k) = i + 2^(k-i-2) <= n
        e = k - i - 2
        return e < n.bit_length() and i + (1 << e) <= n

    lo, hi = 0, k - 4  # t_i(k) decreases in i and t_{k-4}(k) = k <= n
    while lo < hi:
        mid = (lo + hi) // 2
        if t_at_most_n(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def ref_p(n: int, k: int) -> int:
    """P(n,k) from the paper's closed form."""
    i = ref_band(n, k)
    if i is None:
        den = 1 << (k - 1)
        return ((den - 1) * n + den - 1) // den
    return n + i


def spans_tree(n: int, pairs) -> bool:
    """True iff the pairs form a spanning tree on persons 0..n-1 (union-find)."""
    if len(pairs) != n - 1:
        return False
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        root[ra] = rb
    return True


def disjoint_neighbours(calls, start: int) -> int:
    """First j at or cyclically after ``start`` where calls j and j+1 share nobody."""
    m = len(calls) - 1
    for step in range(m):
        j = (start + step) % m
        if {calls[j].a, calls[j].b}.isdisjoint((calls[j + 1].a, calls[j + 1].b)):
            return j
    raise Wrong("no two adjacent calls with disjoint participants")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Pass:
    """What one pass did: operations, failures, work counts, per-op seconds."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.work: dict[str, int] = {}
        self.op_s: dict[str, float] = {}

    def attempt(self, label: str, op) -> None:
        self.attempted += 1
        try:
            op()
        except Exception as e:  # any exception is the operation's failure; the pass goes on
            self.failures.append(f"{label}: {type(e).__name__}: {e}")


class SynthVerify:
    """Closed form, synthesis, JSON, simulation, graph analysis and the CLI."""

    name = "synth_verify"

    def __init__(self, pg, seed: int, workdir: Path):
        self.pg = pg
        self.workdir = workdir
        rng = random.Random(seed)
        self.instances = []
        for e, method in SYNTH_SLOTS:
            top = 1 << e
            n = rng.randint(top - (top >> 7) if e >= 10 else (top >> 1) + 1, top)
            k = rng.randint((n + 1).bit_length() + 1, min(K_MAX_SYNTH, n))
            i = ref_band(n, k)
            method = method or rng.choice(METHODS)
            if method != "doubling" and n < i + (1 << (k - i - 2)) + 1:
                method = "doubling"  # tree-prefix variants need n >= t_i(k) + 1
            self.instances.append((n, k, i, method, rng.randrange(n + i)))
        self.large = [(rng.randint(k, 2 * k), k) for k in LARGE_K]
        k = rng.randint(6, 12)
        lo = rng.randint(k, (1 << (k - 1)) - 16)
        self.table = (k, lo, lo + 23)

    def warm_up(self) -> None:
        self._run(self.instances[-6:], [], Pass())

    def run_pass(self) -> Pass:
        p = Pass()
        self._run(self.instances, self.large, p)
        p.attempt("table", self._table)
        return p

    def _run(self, instances, large, p: Pass) -> None:
        p.work["calls_emitted"] = 0
        for idx, inst in enumerate(instances):
            p.attempt(f"synth {inst[:4]}", lambda: self._pipeline(p, idx, *inst))
        for n, k in large:
            p.attempt(f"pvalue ({n},{k})", lambda: check(
                self.pg.p_min_calls(n, k) == ref_p(n, k), f"P({n},{k}) wrong"))

    def _cli(self, *argv) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = self.pg.cli.main([str(a) for a in argv])
            except SystemExit as e:  # argparse rejects its arguments this way
                code = e.code
        return code, out.getvalue()

    def _pipeline(self, p: Pass, idx: int, n: int, k: int, i: int, method: str,
                  swap_at: int) -> None:
        pg = self.pg
        want = ref_p(n, k)
        check(pg.p_min_calls(n, k) == want, "p_min_calls wrong")
        if method == "doubling":
            s = pg.synth_doubling(n, k, i)
        elif method == "tree":
            s = pg.synth_tree_variant(n, k, i)
        else:
            s = pg.synth_multiblock(n, k, i)
        calls = s.calls
        p.work["calls_emitted"] += len(calls)
        check(len(calls) == want, f"{len(calls)} calls, P(n,k) = {want}")
        if method != "doubling":
            check(spans_tree(n, [(c.a, c.b) for c in calls[: n - 1]]),
                  "first n-1 calls do not span a tree")

        text = pg.schedule_to_json(s)
        aug = pg.schedule_from_json(text)
        check(pg.schedule_to_json(aug) == text, "JSON round trip not byte-stable")
        aw = pg.awareness(pg.apply_preliminary(aug))
        check(min(aw) >= k, "schedule is not k-informing")

        comps = pg.classify_components(pg.full_graph(s))
        kind = "unicyclic" if len(calls) == n else "other"
        check(len(comps) == 1 and len(comps[0][0]) == n and str(comps[0][1]) == kind,
              "communication graph is not one component of the expected kind")
        j = disjoint_neighbours(calls, swap_at)
        swapped = pg.swap_blocks(s, j, 1, 1)
        check(swapped.calls[j] == calls[j + 1] and pg.are_equivalent(s, swapped),
              "block swap changed the outcome")
        check(pg.to_dot(s).count(" -- ") == len(calls), "DOT edge count wrong")

        code, out = self._cli("pvalue", n, k, "--format", "json")
        check(code == 0 and json.loads(out)["p"] == want, "cli pvalue")
        path = self.workdir / f"s{idx}.json"
        code, out = self._cli("synth", method, n, k, i, "--out", path, "--format", "json")
        check(code == 0 and json.loads(out)["calls"] == want, "cli synth")
        code, out = self._cli("verify", path, k, "--format", "json")
        doc = json.loads(out) if code == 0 else {}
        check(doc.get("k_informing") is True and doc.get("min_awareness") == min(aw),
              f"cli verify exit {code}")
        if min(aw) < n:
            code, _ = self._cli("verify", path, min(aw) + 1)
            check(code == 2, f"cli verify of an unmet k exited {code}, not 2")

    def _table(self) -> None:
        k, lo, hi = self.table
        code, out = self._cli("table", k, lo, hi, "--format", "json")
        check(code == 0, f"cli table exit {code}")
        rows = json.loads(out)["rows"]
        check([r["p"] for r in rows] == [ref_p(n, k) for n in range(lo, hi + 1)], "cli table")


class OracleSearch:
    """Exhaustive minimum-call search over a fixed instance list."""

    name = "oracle_search"

    def __init__(self, pg, seed: int, workdir: Path):
        self.pg = pg
        self.instances = list(ORACLE_INSTANCES)
        random.Random(seed).shuffle(self.instances)

    def warm_up(self) -> None:
        p = Pass()
        for n, k in self.instances:
            if n <= 5:
                p.attempt("warm-up", lambda: self._solve(n, k, p))

    def run_pass(self) -> Pass:
        p = Pass()
        for n, k in self.instances:
            p.attempt(f"oracle ({n},{k})", lambda: self._solve(n, k, p))
        return p

    def _solve(self, n: int, k: int, p: Pass) -> None:
        pg = self.pg
        t0 = time.perf_counter()
        r = pg.min_calls_bruteforce(n, k, pg.SearchConfig(time_budget=ORACLE_BUDGET_S))
        p.op_s[f"{n}_{k}"] = time.perf_counter() - t0
        p.work[f"nodes.{n}_{k}"] = r.nodes
        check(r.status == "found", f"status {r.status}")
        check(r.min_calls == ref_p(n, k), f"min_calls {r.min_calls} != P = {ref_p(n, k)}")
        check(len(r.witness.calls) == r.min_calls and pg.is_k_informing(r.witness, k),
              "witness is not a k-informing schedule of min_calls calls")


class LemmaSweep:
    """All ten lemma suites at default ranges, seeded, bound_slack 0."""

    name = "lemma_sweep"

    def __init__(self, pg, seed: int, workdir: Path):
        self.pg = pg
        self.seed = seed

    def warm_up(self) -> None:
        Pass().attempt("warm-up", lambda: self.pg.check_lemma(
            "L1c", self.pg.LemmaParams(max_sampled_n=6, samples=20)))

    def run_pass(self) -> Pass:
        p = Pass()
        for lid in LEMMA_IDS:
            p.attempt(lid, lambda: self._suite(lid, p))
        return p

    def _suite(self, lid: str, p: Pass) -> None:
        pg = self.pg
        t0 = time.perf_counter()
        report = pg.check_lemma(lid, pg.LemmaParams(seed=self.seed, bound_slack=0))
        p.op_s[lid] = time.perf_counter() - t0
        p.work[f"checked.{lid}"] = report.instances_checked
        check(report.lemma_id == lid, f"report is for {report.lemma_id}")
        check(not report.violations, f"{len(report.violations)} violations")
        check(report.instances_checked > 0, "no instance checked")


WORKLOADS = {w.name: w for w in (SynthVerify, OracleSearch, LemmaSweep)}


# ---------------------------------------------------------------------------
# per-layer metrics from a traced pass
# ---------------------------------------------------------------------------

def layer_metrics(tr: dict, p: Pass, wall: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass of ``wall`` seconds."""
    from spans import LAYERS

    self_s, count, items, work = tr["self_s"], tr["count"], tr["items"], tr["work"]

    def s(*names: str) -> float:
        return sum(self_s[name] for name in names)

    m = {f"{layer}.self_s": tr["layer_self_s"][layer] for layer in LAYERS}
    m.update({
        "trace.wall_s": wall,
        "trace.uncovered_s": wall - tr["covered_s"],
        "trace.spans": tr["spans"],
        "formulas.p_min_calls_s": s("formulas.p_min_calls", "formulas.classify_regime"),
        "formulas.queries": tr["layer_entries"]["formulas"],
        "constructions.synth_s": s("constructions.synth_doubling",
                                   "constructions.synth_tree_variant",
                                   "constructions.synth_multiblock"),
        "constructions.calls_emitted": work.get("constructions.calls_emitted", 0),
        "core.simulate_s": s("core.simulate", "core.apply_preliminary", "core.awareness",
                             "core.is_k_informing"),
        "core.json_s": s("core.schedule_to_json", "core.schedule_from_json"),
        "core.calls_simulated": work.get("core.calls_simulated", 0),
        "graph.classify_s": s("graph.full_graph", "graph.classify_components"),
        "graph.swap_s": s("graph.swap_blocks", "graph.are_equivalent"),
        "graph.dot_s": s("graph.to_dot"),
        "cli.main_s": s("cli.main"),
        "cli.commands": count["cli.main"],
        "oracle.canonical_key_s": s("oracle.canonical_key"),
        "oracle.canonical_key_calls": count["oracle.canonical_key"],
        "oracle.dfs_self_s": s("oracle.min_calls_bruteforce"),
    })
    for n, k in ORACLE_INSTANCES:
        m[f"oracle.solve_s.{n}_{k}"] = p.op_s.get(f"{n}_{k}", 0.0)
        m[f"oracle.nodes.{n}_{k}"] = p.work.get(f"nodes.{n}_{k}", 0)
    enum = ("oracle.labeled_trees", "oracle.enumerate_tree_schemes",
            "oracle.enumerate_unicyclic_schemes", "constructions.minimal_informing_tree")
    for lid in LEMMA_IDS:
        m[f"lemmas.suite_s.{lid}"] = p.op_s.get(lid, 0.0)
        m[f"lemmas.checked.{lid}"] = p.work.get(f"checked.{lid}", 0)
    m["lemmas.enum_s"] = s(*enum)
    m["lemmas.enum_items"] = sum(items[name] for name in enum)
    checked = sum(m[f"lemmas.checked.{lid}"] for lid in LEMMA_IDS)
    m["lemmas.checked_per_enum_item"] = checked / m["lemmas.enum_items"] if checked else 0.0
    return m


# ---------------------------------------------------------------------------
# passes and result
# ---------------------------------------------------------------------------

def timed_passes(wl, seconds: float, on_pass=None) -> list[tuple[float, Pass]]:
    """Passes until ``seconds`` have elapsed (at least one): (seconds, Pass) each."""
    out = []
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()  # every pass starts from the same collector state
        t0 = time.perf_counter()
        p = wl.run_pass()
        t1 = time.perf_counter()
        out.append((t1 - t0, p))
        if on_pass is not None:
            on_pass(t1 - t0, p)
        if t1 >= deadline:
            return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import partialgossip
    import partialgossip.cli  # noqa: F401  (the CLI layer is not imported by the package)

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl = WORKLOADS[args.workload](partialgossip, args.seed, Path(tmp))
        wl.warm_up()
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        budget = args.seconds / 2 if args.trace else args.seconds
        untraced = timed_passes(wl, budget)
        passes = [p for _, p in untraced]
        result = {"ready": ready, "pass_s": [w for w, _ in untraced]}
        work_repeats = True
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            traced: list[dict] = []
            marks = [tracer.snapshot()]

            def on_pass(wall: float, p: Pass) -> None:
                marks.append(tracer.snapshot())
                traced.append(layer_metrics(tracer.summary(marks[-2], marks[-1]), p, wall))

            passes += [p for _, p in timed_passes(wl, budget, on_pass)]
            per_layer = {key: v if isinstance(v, int) else median(m[key] for m in traced)
                         for key, v in traced[0].items()}
            per_layer["trace.untraced_wall_s"] = median(result["pass_s"])
            per_layer["trace.overhead_s"] = (per_layer["trace.wall_s"]
                                             - per_layer["trace.untraced_wall_s"])
            result["per_layer"] = per_layer
            counts = [{key: v for key, v in m.items() if isinstance(v, int)} for m in traced]
            work_repeats = all(c == counts[0] for c in counts)
        result.update({
            "attempted": sum(p.attempted for p in passes),
            "failures": [f for p in passes for f in p.failures],
            "work": passes[0].work,
            "work_repeats": work_repeats and all(p.work == passes[0].work for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
