"""Search engine soundness, canonicalization and the scheme enumerators."""
from __future__ import annotations

import gc
import hashlib
import itertools
import math
import random

import pytest

from partialgossip import (
    Schedule,
    SearchConfig,
    ValidationError,
    awareness,
    canonical_key,
    enumerate_tree_schemes,
    enumerate_unicyclic_schemes,
    is_k_informing,
    max_informing_level,
    min_calls_bruteforce,
    minimal_informing_tree,
    p_min_calls,
    simulate,
)
from partialgossip.graph import full_graph, classify_components, ComponentKind
from partialgossip import oracle
from partialgossip.oracle import (
    DEPTH_EXHAUSTED, FOUND, TIMEOUT, _lower_bound, canonical_form, informing_tree_classes,
)


# (n, k, goal): min_calls, witness, refuted_depth, nodes, the stats counters
# in _PINNED_STATS order, and per pass (depth, nodes, counters but find_nodes).
# Band-regime refutations, find passes and partial goals; (8,7) is k near n,
# where a merged row often equals a third person's row.
_PINNED_STATS = ("memo_hits", "memo_stores", "memo_refused", "lb_prunes", "unkeyed",
                 "orbit_cuts", "sleep_cuts", "keys", "canon_inexact", "find_nodes")
_PINNED = {
    (8, 6, None): (10,
        [(0, 2), (1, 2), (2, 3), (4, 5), (2, 4), (3, 5), (0, 2), (1, 2), (2, 6), (2, 7)],
        9, 101371,
        (130, 210, 0, 94032, 6999, 1978, 66877, 95, 0, 0),
        [(6, 10, 0, 3, 0, 7, 0, 73, 0, 0, 0),
         (7, 54, 2, 10, 0, 42, 0, 177, 36, 2, 0),
         (8, 926, 21, 36, 0, 826, 43, 453, 685, 19, 0),
         (9, 100381, 107, 161, 0, 93157, 6956, 1275, 66156, 74, 0)]),
    (9, 6, None): (10,
        [(0, 1), (1, 2), (3, 4), (1, 3), (2, 4), (1, 5), (2, 6), (3, 7), (4, 8), (0, 1)],
        9, 11032,
        (25, 71, 0, 10394, 542, 1210, 7740, 27, 0, 0),
        [(7, 10, 0, 3, 0, 7, 0, 97, 0, 0, 0),
         (8, 54, 2, 10, 0, 42, 0, 248, 45, 2, 0),
         (9, 10968, 23, 58, 0, 10345, 542, 865, 7695, 25, 0)]),
    (10, 5, None): (10,
        [(0, 1), (2, 3), (0, 2), (1, 3), (0, 4), (1, 5), (2, 6), (3, 7), (0, 8), (0, 9)],
        9, 27877,
        (73, 143, 0, 26635, 1026, 3198, 17665, 63, 0, 0),
        [(7, 10, 0, 3, 0, 7, 0, 124, 0, 0, 0),
         (8, 243, 3, 17, 0, 219, 4, 480, 190, 4, 0),
         (9, 27624, 70, 123, 0, 26409, 1022, 2594, 17475, 59, 0)]),
    (6, 3, None): (5,
        [(0, 1), (0, 2), (1, 3), (0, 4), (0, 5)],
        4, 248,
        (0, 1, 0, 226, 21, 14, 36, 0, 0, 0),
        [(4, 248, 0, 1, 0, 226, 21, 14, 36, 0, 0)]),
    (7, 4, None): (7,
        [(0, 1), (2, 3), (0, 2), (1, 3), (0, 4), (0, 5), (0, 6)],
        6, 1156,
        (0, 6, 0, 1065, 85, 100, 439, 0, 0, 0),
        [(5, 4, 0, 2, 0, 2, 0, 38, 0, 0, 0),
         (6, 1152, 0, 4, 0, 1063, 85, 62, 439, 0, 0)]),
    (8, 6, 5): (7,
        [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 1), (4, 6)],
        6, 339,
        (0, 7, 0, 311, 13, 163, 58, 0, 0, 127),
        [(5, 31, 0, 2, 0, 28, 1, 52, 0, 0, 0),
         (6, 181, 0, 4, 0, 169, 8, 88, 49, 0, 0),
         (7, 127, 0, 1, 0, 114, 4, 23, 9, 0, 0)]),
    (10, 6, 7): (9,
        [(0, 1), (0, 2), (0, 3), (0, 4), (0, 1), (0, 5), (0, 2), (1, 6), (4, 7)],
        8, 61852,
        (29, 69, 0, 59182, 2562, 1901, 45847, 21, 0, 31868),
        [(6, 10, 0, 3, 0, 7, 0, 124, 0, 0, 0),
         (7, 54, 2, 10, 0, 42, 0, 329, 54, 2, 0),
         (8, 29920, 21, 36, 0, 28630, 1233, 938, 22567, 19, 0),
         (9, 31868, 6, 20, 0, 30503, 1329, 510, 23226, 0, 0)]),
    (8, 7, None): (11,
        [(0, 3), (1, 3), (2, 3), (3, 4), (5, 6), (3, 5), (4, 6), (0, 3), (1, 3), (2, 3), (3, 7)],
        10, 276631,
        (802, 1088, 0, 254150, 20591, 5821, 213413, 577, 0, 0),
        [(6, 4, 0, 2, 0, 2, 0, 52, 0, 0, 0),
         (7, 39, 0, 7, 0, 32, 0, 130, 21, 0, 0),
         (8, 239, 20, 32, 0, 187, 0, 424, 179, 19, 0),
         (9, 3013, 103, 156, 0, 2649, 105, 1246, 2554, 70, 0),
         (10, 273336, 679, 891, 0, 251280, 20486, 3969, 210659, 488, 0)]),
}


class TestMinCalls:
    def test_two_persons(self):
        r = min_calls_bruteforce(2, 2)
        assert (r.status, r.min_calls) == (FOUND, 1)

    def test_four_persons_three_gossips(self):
        r = min_calls_bruteforce(4, 3)
        assert r.min_calls == 3
        assert len(r.witness.calls) == 3
        assert is_k_informing(r.witness, 3)

    def test_seven_persons_matches_fraction_formula(self):
        r = min_calls_bruteforce(7, 4, SearchConfig(time_budget=600))
        assert r.min_calls == 7 == p_min_calls(7, 4)
        r = min_calls_bruteforce(7, 3, SearchConfig(time_budget=600))
        assert r.min_calls == 6 == p_min_calls(7, 3)

    def test_eight_persons_pairing(self):
        r = min_calls_bruteforce(8, 2, SearchConfig(time_budget=600))
        assert r.min_calls == 4 == p_min_calls(8, 2)

    def test_witness_is_minimal_and_refutation_tracked(self):
        r = min_calls_bruteforce(5, 4)
        assert r.refuted_depth == r.min_calls - 1
        assert is_k_informing(r.witness, 4)

    def test_timeout_yields_no_number(self):
        r = min_calls_bruteforce(8, 8, SearchConfig(time_budget=0.05))
        assert r.status == TIMEOUT
        assert r.min_calls is None
        assert r.witness is None
        assert r.refuted_depth < 12  # true answer; budget is far too small to prove it

    def test_search_frees_its_memo_on_return(self):
        """No reference cycle keeps a finished search's memo alive until a collection."""
        gc.collect()
        gc.disable()
        try:
            min_calls_bruteforce(5, 4)
            min_calls_bruteforce(8, 8, SearchConfig(time_budget=0.05))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_stats_counted_per_search(self, monkeypatch):
        r = min_calls_bruteforce(6, 6)
        assert set(r.stats) == {"memo_hits", "memo_stores", "memo_refused", "lb_prunes",
                                "unkeyed", "orbit_cuts", "sleep_cuts", "keys", "canon_inexact",
                                "find_nodes", "passes"}
        for name in ("memo_hits", "lb_prunes", "unkeyed", "orbit_cuts", "sleep_cuts", "keys"):
            assert r.stats[name] > 0, name
        assert r.stats["memo_refused"] == r.stats["canon_inexact"] == r.stats["find_nodes"] == 0
        # the closed form's schedule settled the search: every node was refuted
        assert (r.stats["memo_hits"] + r.stats["memo_stores"] + r.stats["memo_refused"]
                + r.stats["lb_prunes"] + r.stats["unkeyed"]) == r.nodes
        assert min_calls_bruteforce(6, 6).stats == r.stats
        _assert_passes_add_up(r, range(5, 8))
        # without a certificate the find pass runs, and goals and the nodes
        # on the witness path are neither pruned nor stored
        monkeypatch.setattr(oracle, "_certificate", lambda n, k: None)
        r = min_calls_bruteforce(6, 3)
        assert 0 < r.stats["find_nodes"] < r.nodes
        assert (r.stats["memo_hits"] + r.stats["memo_stores"] + r.stats["memo_refused"]
                + r.stats["lb_prunes"] + r.stats["unkeyed"]) < r.nodes
        _assert_passes_add_up(r, range(4, 6))
        assert r.stats["passes"][-1]["nodes"] == r.stats["find_nodes"]

    def test_timed_out_pass_is_reported(self):
        r = min_calls_bruteforce(8, 8, SearchConfig(time_budget=0.05))
        assert r.status == TIMEOUT
        # the passes refuted and the one the budget cut
        first = _lower_bound(tuple(1 << p for p in range(8)), 8)
        _assert_passes_add_up(r, range(first, r.refuted_depth + 2))

    def test_memo_limit_refusals_are_counted(self):
        r = min_calls_bruteforce(5, 5, SearchConfig(memo_limit=0))
        assert r.min_calls == p_min_calls(5, 5)
        assert r.stats["memo_stores"] == 0 and r.stats["memo_refused"] > 0

    def test_inexact_keys_are_counted(self, monkeypatch):
        """keys counts the canonical keys computed, canon_inexact those past the cap."""
        computed = []
        form = oracle.canonical_form

        def counted(state, n):
            out = form(state, n)
            computed.append(out[2])
            return out

        with monkeypatch.context() as patch:
            patch.setattr(oracle, "canonical_form", counted)
            patch.setattr(oracle, "_CANON_PERM_CAP", 2)
            r = min_calls_bruteforce(10, 6)
        assert r.min_calls == p_min_calls(10, 6)
        assert r.stats["keys"] == len(computed) > 0
        assert r.stats["canon_inexact"] == computed.count(False) > 0
        # (12,2) meets states past the cap only within the unkeyed plies:
        # four or five disjoint calls, 8!/2^4 and 10!/2^5 arrangements
        r = min_calls_bruteforce(12, 2)
        assert r.min_calls == p_min_calls(12, 2)
        assert r.stats["canon_inexact"] == 0
        for calls, exact in ((3, True), (4, False), (5, False)):
            state = tuple(0b11 << (p & ~1) if p < 2 * calls else 1 << p for p in range(12))
            assert canonical_form(state, 12)[2] is exact, calls

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_reference_search(self, monkeypatch, n):
        """The cuts and the certificate keep the answer and add no keyed node.

        The certificate settles every full goal with a k-informing witness
        of the reference's length.  Up to seven persons the find pass, run
        with the certificate taken away, gives the reference's witness.
        The nodes near the leaves go without a key, so a search may visit
        more nodes than the reference, which keys all of them; the keyed
        nodes, at most the memo's hits, stores and refusals plus those on
        the witness path, are never more.  Up to six persons the plain
        reference, keyed by raw states and expanding no-op calls, gives the
        same answer and witness too.
        """
        for k in range(2, (6 if n == 8 else n) + 1):
            r = min_calls_bruteforce(n, k)
            min_calls, calls, nodes = _reference_search(n, k)
            assert (r.min_calls, r.stats["find_nodes"]) == (min_calls, 0)
            assert len(r.witness.calls) == min_calls and is_k_informing(r.witness, k)
            assert r.refuted_depth == min_calls - 1
            searches = [r]
            if n <= 7:
                with monkeypatch.context() as patch:
                    patch.setattr(oracle, "_certificate", lambda n, k: None)
                    found = min_calls_bruteforce(n, k)
                assert (found.min_calls, found.witness.calls) == (min_calls, calls)
                assert found.stats["find_nodes"] > 0
                searches.append(found)
            for s in searches:
                keyed = s.stats["memo_hits"] + s.stats["memo_stores"] + s.stats["memo_refused"]
                assert keyed + len(s.witness.calls) <= nodes
            if n <= 6:
                assert _reference_search(n, k, plain=True)[:2] == (min_calls, calls)

    @pytest.mark.parametrize("n,k,goal", list(_PINNED))
    def test_results_pinned(self, n, k, goal):
        """Answer, witness, refuted depth, nodes and every counter, per pass too.

        Values first recorded from a search that visited every call of a
        node in pair order showed the class-mask counting exact; these are
        re-recorded at three unkeyed plies, with the same witnesses in the
        band regime and for partial goals.
        """
        min_calls, calls, refuted, nodes, totals, passes = _PINNED[n, k, goal]
        stats = dict(zip(_PINNED_STATS, totals))
        stats["passes"] = [dict(zip(("depth", "nodes", *_PINNED_STATS[:-1]), p)) for p in passes]
        r = min_calls_bruteforce(n, k, goal=goal)
        assert (r.status, r.min_calls, r.witness.calls, r.refuted_depth, r.nodes, r.stats) == (
            FOUND, min_calls, tuple(calls), refuted, nodes, stats)

    def test_search_identity_digest(self):
        """Every result field of 56 searches, hashed: a change to the node step shows here.

        The searches are each (n,k) with 2 <= k <= n <= 8 at goals n and
        max(n-2, 1); the hash covers status, answer, refuted depth, nodes,
        witness and the full stats, passes included.
        """
        h = hashlib.sha256()
        for n in range(2, 9):
            for k in range(2, n + 1):
                for goal in (n, max(n - 2, 1)):
                    r = min_calls_bruteforce(n, k, goal=goal)
                    h.update(repr((n, k, goal, r.status, r.min_calls, r.refuted_depth,
                                   r.nodes, r.witness.calls, r.stats)).encode())
        assert h.hexdigest()[:16] == "ec59b5f3c5187457"

    @pytest.mark.parametrize("n,k", [
        (9, 6), (10, 6), (10, 7),
        *((n, k) for n in range(2, 7) for k in range(2, n + 1)), (7, 3), (7, 4),
        (8, 5), (8, 6), (10, 5), (11, 4), (12, 3), (12, 4), (13, 4),
        (7, 5), (7, 6), (7, 7), (8, 7), (8, 8), (9, 7),
    ])
    def test_doubling_certificate_settles_the_frontier(self, n, k):
        """Only refutations run, in both regimes: a find pass took most of a search.

        The instances are criterion 1's sweep, the benchmark's oracle
        searches, the first-regime (11,4), (12,3), (12,4) and (13,4), k
        near n up to (8,8), where merged rows often equal a third row, and
        the band edge (9,7) = (t_2(7) - 1, 7), which refutes 11 calls.
        """
        r = min_calls_bruteforce(n, k)
        assert (r.status, r.min_calls) == (FOUND, p_min_calls(n, k))
        assert len(r.witness.calls) == r.min_calls and is_k_informing(r.witness, k)
        assert r.refuted_depth == r.min_calls - 1
        assert r.stats["find_nodes"] == 0

    @pytest.mark.parametrize("n,k", [(5, 4), (8, 5), (9, 6)])
    def test_depth_below_the_minimum_is_exhausted(self, n, k):
        p = p_min_calls(n, k)
        r = min_calls_bruteforce(n, k, SearchConfig(max_depth=p - 1))
        assert (r.status, r.min_calls, r.witness) == (DEPTH_EXHAUSTED, None, None)
        assert r.refuted_depth == p - 1

    @pytest.mark.parametrize("broken", ["short", "long", "raises"])
    @pytest.mark.parametrize("n,k", [(5, 4), (8, 5)])
    def test_broken_synthesizer_falls_back_to_the_find_pass(self, monkeypatch, n, k, broken):
        """A candidate that fails the simulation, is too long or is missing costs only time."""
        synth = oracle.synth_doubling

        def fake(n, k, i):
            calls = synth(n, k, i).calls
            if broken == "short":  # not k-informing
                return Schedule(n, calls[:-1])
            if broken == "long":  # k-informing, one call past the minimum
                return Schedule(n, calls + ((0, 1),))
            raise ValidationError("no candidate")

        monkeypatch.setattr(oracle, "synth_doubling", fake)
        r = min_calls_bruteforce(n, k)
        min_calls, calls, _ = _reference_search(n, k)
        assert (r.status, r.min_calls) == (FOUND, min_calls) == (FOUND, p_min_calls(n, k))
        assert r.witness.calls == calls and is_k_informing(r.witness, k)
        assert r.refuted_depth == min_calls - 1
        assert r.stats["find_nodes"] > 0

    def test_unchanged_by_tabled_bits(self, monkeypatch):
        """Searches and tree classes come out the same when _bits recomputes every row."""

        def run():
            informing_tree_classes.cache_clear()
            searches = []
            for n in range(2, 9):
                for k in range(2, (6 if n == 8 else n) + 1):
                    r = min_calls_bruteforce(n, k)
                    searches.append((r.status, r.min_calls, r.witness.calls, r.nodes, r.stats))
            return searches, [informing_tree_classes(m, 4, 1) for m in range(1, 10)]

        ours = run()
        monkeypatch.setattr(oracle, "_bits", oracle._bits.__wrapped__)
        try:
            assert run() == ours
        finally:
            informing_tree_classes.cache_clear()

    def test_lazy_keys_equal_eager_keys(self, monkeypatch):
        """Keying every keyed node gives the same search but for the key counters.

        A constant degree invariant puts every state in one memo bucket, so
        every keyed node after the first computes its canonical key.
        """
        cases = [(n, k, goal) for n in range(2, 9) for k in range(2, n + 1)
                 for goal in (None, n - 2) if goal != 0]
        cases += [(10, 6, None), (10, 6, 7)]

        def run():
            searches = []
            keys = 0
            for n, k, goal in cases:
                r = min_calls_bruteforce(n, k, goal=goal)
                keys += r.stats["keys"]
                stats = {name: value for name, value in r.stats.items()
                         if name not in ("keys", "canon_inexact", "passes")}
                passes = [{name: value for name, value in entry.items()
                           if name not in ("keys", "canon_inexact")}
                          for entry in r.stats["passes"]]
                searches.append((r.status, r.min_calls, r.witness.calls, r.refuted_depth,
                                 r.nodes, stats, passes))
            return searches, keys

        lazy, lazy_keys = run()
        probe = oracle._degree_probe
        # only the invariant is constant: the twin map, signatures and
        # columns canonical_form starts from are the probe's own
        monkeypatch.setattr(oracle, "_degree_probe", lambda state, n: ((),) + probe(state, n)[1:])
        eager, eager_keys = run()
        assert eager == lazy
        assert eager_keys > lazy_keys

    @pytest.mark.parametrize("n", range(2, 7))
    def test_partial_goal_matches_breadth_first_reference(self, n):
        """For every k and goal m, the minimum of a plain breadth-first search.

        Each witness has that many calls and leaves at least m persons
        k-informed.
        """
        minima = _goal_minima(n)
        for k in range(2, n + 1):
            for m in range(1, n + 1):
                r = min_calls_bruteforce(n, k, goal=m)
                assert (r.status, r.min_calls) == (FOUND, minima[k, m]), (k, m)
                assert r.refuted_depth == r.min_calls - 1
                assert len(r.witness.calls) == r.min_calls
                assert sum(a >= k for a in awareness(simulate(r.witness))) >= m, (k, m)

    @pytest.mark.parametrize("n,k", [
        *((n, k) for n in range(2, 7) for k in range(2, n + 1)),
        (8, 5), (8, 6), (9, 6), (10, 5), (10, 6),
    ])
    def test_full_goal_is_the_default(self, n, k):
        """goal=n searches exactly as the default: same witness, nodes and stats."""
        ours, default = min_calls_bruteforce(n, k, goal=n), min_calls_bruteforce(n, k)
        assert (ours.status, ours.min_calls, ours.witness, ours.refuted_depth, ours.nodes,
                ours.stats) == (default.status, default.min_calls, default.witness,
                                default.refuted_depth, default.nodes, default.stats)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            min_calls_bruteforce(3, 1)
        with pytest.raises(ValidationError):
            min_calls_bruteforce(2, 3)
        for goal in (0, 5, -1):
            with pytest.raises(ValidationError):
                min_calls_bruteforce(4, 3, goal=goal)
        with pytest.raises(ValidationError):
            SearchConfig(time_budget=0)
        with pytest.raises(ValidationError):
            SearchConfig(memo_limit=-1)

    @pytest.mark.parametrize("kwargs", [
        {"max_depth": -1}, {"time_budget": math.nan}, {"time_budget": -1.0},
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(ValidationError):
            SearchConfig(**kwargs)

    def test_config_and_result_records(self):
        assert SearchConfig() == SearchConfig(64, 600.0, 4_000_000) != SearchConfig(max_depth=3)
        assert repr(SearchConfig(max_depth=3)) == (
            "SearchConfig(max_depth=3, time_budget=600.0, memo_limit=4000000)")
        a, b = (oracle.SearchResult(TIMEOUT, None, None, 0, 0, 0.0) for _ in range(2))
        assert a == b and a.stats == {} and a.stats is not b.stats  # a new dict each
        a.stats["nodes"] = 1
        assert a != b and b.stats == {}
        stream = enumerate_tree_schemes(3)
        assert repr(stream) == "SchemeStream(n=3)"


def _assert_passes_add_up(r, depths):
    """One pass per depth searched, in order, whose counters sum to the flat ones."""
    passes = r.stats["passes"]
    assert [entry["depth"] for entry in passes] == list(depths)
    flat = set(r.stats) - {"find_nodes", "passes"}
    assert all(set(entry) == {"depth", "nodes", *flat} for entry in passes)
    assert sum(entry["nodes"] for entry in passes) == r.nodes
    for name in flat:
        assert sum(entry[name] for entry in passes) == r.stats[name], name


def _goal_minima(n: int) -> dict[tuple[int, int], int]:
    """Fewest calls leaving m of n persons k-informed, for 2 <= k <= n and 1 <= m <= n.

    A plain breadth-first search over the reachable states, with no bound,
    key or cut.  Each state keeps its rows sorted: a call merges two rows
    whichever persons hold them, so reordering rows commutes with calls and
    keeps the number of k-informed persons.  On 6 persons there are 45,672
    such states against about a million raw ones.
    """
    initial = tuple(1 << p for p in range(n))
    minima: dict[tuple[int, int], int] = {}
    seen = {initial}
    frontier = [initial]
    depth = 0
    while len(minima) < (n - 1) * n:
        depth += 1
        nxt = []
        for state in frontier:
            for a in range(n):
                for b in range(a + 1, n):
                    u = state[a] | state[b]
                    child = tuple(sorted(state[:a] + (u,) + state[a + 1 : b] + (u,)
                                         + state[b + 1 :]))
                    if child in seen:
                        continue
                    seen.add(child)
                    nxt.append(child)
                    counts = [x.bit_count() for x in child]
                    for k in range(2, n + 1):
                        for m in range(1, sum(c >= k for c in counts) + 1):
                            minima.setdefault((k, m), depth)
        frontier = nxt
    return minima


def _reference_search(n: int, k: int, plain: bool = False):
    """The search without in-loop bounds, orbit cuts or sleep sets.

    ``plain`` also memoizes raw states instead of canonical keys and expands
    no-op calls.  Returns (min_calls, witness calls, nodes); no time budget.
    """
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    memo = {}
    nodes = 0

    def dfs(state, remaining):
        nonlocal nodes
        nodes += 1
        lb = _lower_bound(state, k)
        if lb == 0:
            return []
        if lb > remaining:
            return None
        key = state if plain else canonical_key(state, n)
        if memo.get(key, -1) >= remaining:
            return None
        for a, b in pairs:
            if state[a] == state[b] and not plain:
                continue
            u = state[a] | state[b]
            child = state[:a] + (u,) + state[a + 1 : b] + (u,) + state[b + 1 :]
            tail = dfs(child, remaining - 1)
            if tail is not None:
                return [(a, b)] + tail
        memo[key] = remaining
        return None

    initial = tuple(1 << p for p in range(n))
    depth = _lower_bound(initial, k)
    while (found := dfs(initial, depth)) is None:
        depth += 1
    return len(found), Schedule(n, found).calls, nodes


class TestLowerBound:
    def test_admissible_on_solved_instances(self):
        for n in range(2, 7):
            for k in range(2, n + 1):
                initial = tuple(1 << p for p in range(n))
                assert _lower_bound(initial, k) <= p_min_calls(n, k)

    def test_zero_when_everyone_informed(self):
        state = (0b11, 0b11)
        assert _lower_bound(state, 2) == 0

    def test_bound_closed_form_matches_doubling(self):
        """Before anyone knows k: the doublings that first reach k, then a call per two."""
        def doubling(below, best, k):
            rounds, reach = 0, best
            while reach < k:
                reach *= 2
                rounds += 1
            return rounds + (below - 1) // 2

        for k in range(2, 71):
            for best in range(1, k):
                for below in range(1, 21):
                    assert oracle._bound(below, best, k) == doubling(below, best, k), (
                        below, best, k)
            for best in (1, k - 1, k, k + 5):
                assert oracle._bound(0, best, k) == oracle._bound(-3, best, k) == 0
            for best in (k, k + 1, 2 * k):
                for below in range(1, 21):
                    assert oracle._bound(below, best, k) == math.ceil(below / 2)


def _random_state(rng: random.Random, n: int, max_calls: int = 5) -> tuple[int, ...]:
    calls = [
        tuple(rng.sample(range(n), 2))
        for _ in range(rng.randrange(0, max_calls + 1))
    ]
    know = [1 << p for p in range(n)]
    for a, b in calls:
        u = know[a] | know[b]
        know[a] = u
        know[b] = u
    return tuple(know)


def _apply_person_permutation(state: tuple[int, ...], perm: list[int]) -> tuple[int, ...]:
    n = len(state)
    out = [0] * n
    for p in range(n):
        y = 0
        for g in range(n):
            if (state[p] >> g) & 1:
                y |= 1 << perm[g]
        out[perm[p]] = y
    return tuple(out)


def _reachable_states(n: int, max_calls: int | None = None) -> set[tuple[int, ...]]:
    """Every state reachable from the initial one within max_calls calls."""
    initial = tuple(1 << p for p in range(n))
    seen = {initial}
    frontier = [initial]
    calls = 0
    while frontier and (max_calls is None or calls < max_calls):
        nxt = []
        for st_ in frontier:
            for a in range(n):
                for b in range(a + 1, n):
                    u = st_[a] | st_[b]
                    child = st_[:a] + (u,) + st_[a + 1 : b] + (u,) + st_[b + 1 :]
                    if child not in seen:
                        seen.add(child)
                        nxt.append(child)
        frontier = nxt
        calls += 1
    return seen


# Reference copy of the canonical form before twin reduction: the minimum over
# every permutation that maps each refined color cell onto its positions.


def _reference_refine_cells(state: tuple[int, ...], n: int) -> list[list[int]]:
    col = [0] * n
    for row in state:
        x = row
        while x:
            col[(x & -x).bit_length() - 1] += 1
            x &= x - 1
    sigs: list = [(state[p].bit_count(), col[p]) for p in range(n)]
    ranking = {s: r for r, s in enumerate(sorted(set(sigs)))}
    colors = [ranking[s] for s in sigs]
    while True:
        # a multiset of colors compares by its counts, from the highest color down
        counts = range(len(ranking) - 1, -1, -1)
        sigs = []
        for p in range(n):
            known = []
            x = state[p]
            while x:
                known.append(colors[(x & -x).bit_length() - 1])
                x &= x - 1
            knowers = [colors[q] for q in range(n) if (state[q] >> p) & 1]
            sigs.append((colors[p], tuple(known.count(c) for c in counts),
                         tuple(knowers.count(c) for c in counts)))
        grown = {s: r for r, s in enumerate(sorted(set(sigs)))}
        if len(grown) == len(ranking):
            return [[p for p in range(n) if colors[p] == c] for c in range(len(ranking))]
        ranking = grown
        colors = [ranking[s] for s in sigs]


def _reference_key(state: tuple[int, ...], n: int) -> tuple[int, ...]:
    best = None
    for pieces in itertools.product(
            *(itertools.permutations(cell) for cell in _reference_refine_cells(state, n))):
        perm = [p for piece in pieces for p in piece]
        inverse = [0] * n
        for pos, p in enumerate(perm):
            inverse[p] = pos
        cand = _apply_person_permutation(state, inverse)
        if best is None or cand < best:
            best = cand
    return best


def _refined_cells(state: tuple[int, ...], n: int) -> list[list[int]]:
    """oracle._refine_cells from the degree probe's cells, as canonical_form runs it."""
    known = [tuple(g for g in range(n) if (state[p] >> g) & 1) for p in range(n)]
    knowers = [tuple(q for q in range(n) if (state[q] >> g) & 1) for g in range(n)]
    return oracle._refine_cells(known, knowers, oracle._degree_probe(state, n)[2])


def _twin_arrangements(state: tuple[int, ...], n: int) -> int:
    """Twin-class arrangements that canonical_key has to try for this state."""
    col = [sum(1 << q for q in range(n) if (state[q] >> g) & 1) for g in range(n)]
    count = 1
    for cell in _refined_cells(state, n):
        count *= math.factorial(len(cell))
        for cls in oracle._twin_classes(cell, state, col):
            count //= math.factorial(len(cls))
    return count


class TestCanonicalKey:
    def test_invariant_under_joint_relabeling(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randrange(2, 7)
            state = _random_state(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            relabeled = _apply_person_permutation(state, perm)
            assert canonical_key(state, n) == canonical_key(relabeled, n)
        # larger n, where cells can exceed the cap before twin reduction
        in_cap = 0
        for _ in range(3000):
            n = rng.randrange(7, 11)
            state = _random_state(rng, n, max_calls=2 * n)
            if _twin_arrangements(state, n) > oracle._CANON_PERM_CAP:
                continue
            in_cap += 1
            perm = list(range(n))
            rng.shuffle(perm)
            relabeled = _apply_person_permutation(state, perm)
            assert canonical_key(state, n) == canonical_key(relabeled, n)
        assert in_cap > 2900

    def test_matches_reference_on_small_states(self):
        # n <= 6 keeps every cell within the cap, so the reference key is exact
        for n in range(1, 7):
            for state in _reachable_states(n, max_calls=4):
                assert canonical_key(state, n) == _reference_key(state, n)

    def test_refinement_matches_reference_beyond_six(self):
        """Random reachable states on 7 to 12 persons: lone persons skip a round's signatures."""
        rng = random.Random(13)
        mixed = 0
        for _ in range(600):
            n = rng.randrange(7, 13)
            state = _random_state(rng, n, max_calls=2 * n)
            cells = _refined_cells(state, n)
            assert cells == _reference_refine_cells(state, n), state
            sizes = {len(cell) for cell in cells}
            mixed += 1 in sizes and len(sizes) > 1  # a lone person beside a shared cell
        assert mixed > 300

    def test_keys_separate_exactly_the_relabeling_classes(self):
        for n in range(2, 6):
            states = _reachable_states(n)
            key_of = {state: canonical_key(state, n) for state in states}
            perms = list(itertools.permutations(range(n)))
            class_of_key: dict = {}
            unvisited = set(states)
            while unvisited:
                state = unvisited.pop()
                orbit = {_apply_person_permutation(state, list(perm)) for perm in perms}
                unvisited -= orbit
                keys = {key_of[member] for member in orbit}
                assert len(keys) == 1  # equivalent states share a key
                (key,) = keys
                assert key not in class_of_key  # inequivalent states do not
                class_of_key[key] = state

    def test_key_is_a_relabeling_of_its_state(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randrange(2, 7)
            state = _random_state(rng, n)
            key = canonical_key(state, n)
            assert sorted(x.bit_count() for x in key) == sorted(x.bit_count() for x in state)

    def test_equivalent_states_have_equal_reachable_optimum(self):
        # spot re-expansion: relabeling a state cannot change its distance to goal
        rng = random.Random(3)
        for _ in range(20):
            n, k = 4, 3
            state = _random_state(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            relabeled = _apply_person_permutation(state, perm)
            assert _min_calls_from(state, k) == _min_calls_from(relabeled, k)


def _transposed(state: tuple[int, ...], p: int, q: int) -> tuple[int, ...]:
    perm = list(range(len(state)))
    perm[p], perm[q] = q, p
    return _apply_person_permutation(state, perm)


def _grouped_state(rng: random.Random, n: int) -> tuple[int, ...]:
    """Persons in groups of 1 to 3 that each share all their gossips, then maybe one call.

    Equal-size groups are twin classes in one color cell, so the twin-class
    arrangements often pass the cap before the last cells are split.
    """
    persons = list(range(n))
    rng.shuffle(persons)
    know = [0] * n
    while persons:
        size = rng.choice((1, 2, 2, 2, 3))
        group, persons = persons[:size], persons[size:]
        for p in group:
            know[p] = sum(1 << q for q in group)
    if rng.randrange(2):
        a, b = rng.sample(range(n), 2)
        know[a] = know[b] = know[a] | know[b]
    return tuple(know)


def _assert_twin_map(state: tuple[int, ...], rep: list[int]) -> None:
    """rep maps every person to the first member of its twin class, by brute force."""
    for p in range(len(state)):
        assert rep[rep[p]] == rep[p] <= p
        assert _transposed(state, p, rep[p]) == state
    for p, q in itertools.combinations(range(len(state)), 2):
        if _transposed(state, p, q) == state:
            assert rep[p] == rep[q], (state, p, q)


class TestOrbitCut:
    def test_representatives_are_exactly_the_twins(self):
        rng = random.Random(5)
        for _ in range(400):
            n = rng.randrange(2, 7)
            if rng.randrange(2):
                state = _random_state(rng, n, max_calls=2 * n)
            else:  # any rows, reachable or not
                state = tuple(rng.getrandbits(n) | 1 << p for p in range(n))
            _assert_twin_map(state, canonical_form(state, n)[1])
        # past the cap the key falls back, but the twin map stays exact
        past_cap = 0
        for _ in range(300):
            n = rng.randrange(7, 15)
            state = _grouped_state(rng, n)
            _, rep, exact = canonical_form(state, n)
            assert exact == (_twin_arrangements(state, n) <= oracle._CANON_PERM_CAP)
            past_cap += not exact
            _assert_twin_map(state, rep)
        assert past_cap > 80

    def test_disjoint_calls_on_fourteen_persons_are_inexact(self):
        # 7 twin classes of 2 in one cell: 14! / 2^7 arrangements
        state = tuple(0b11 << (p & ~1) for p in range(14))
        key, rep, exact = canonical_form(state, 14)
        assert not exact and key == canonical_key(state, 14) == state
        assert rep == [p & ~1 for p in range(14)]

    def test_orbit_duplicates_give_isomorphic_children(self):
        # n <= 6 keeps canonical_key exact, so equal keys mean isomorphic states
        rng = random.Random(9)
        cut = 0
        for _ in range(300):
            n = rng.randrange(2, 7)
            state = _random_state(rng, n, max_calls=n)
            pairs = list(itertools.combinations(range(n), 2))
            duplicate = oracle._orbit_duplicates(canonical_form(state, n)[1])
            keys = []
            for j, (a, b) in enumerate(pairs):
                u = state[a] | state[b]
                child = state[:a] + (u,) + state[a + 1 : b] + (u,) + state[b + 1 :]
                keys.append(canonical_key(child, n))
                if duplicate >> j & 1:
                    assert keys[j] in keys[:j]
                    cut += 1
        assert cut > 0


def _min_calls_from(state: tuple[int, ...], k: int, cap: int = 6) -> int | None:
    """Plain BFS distance-to-goal, no canonicalization; independent of the DFS."""
    n = len(state)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    frontier = {state}
    seen = {state}
    for dist in range(cap + 1):
        if any(all(x.bit_count() >= k for x in st_) for st_ in frontier):
            return dist
        nxt = set()
        for st_ in frontier:
            for a, b in pairs:
                u = st_[a] | st_[b]
                child = st_[:a] + (u,) + st_[a + 1 : b] + (u,) + st_[b + 1 :]
                if child not in seen:
                    seen.add(child)
                    nxt.add(child)
        frontier = nxt
    return None


class TestMaxInformingLevel:
    def test_hub_tree(self, hub_tree_8):
        assert max_informing_level(hub_tree_8) == 4

    def test_single_person_no_calls(self):
        assert max_informing_level(Schedule(1, [])) == 1

    def test_star_limited_by_first_leaf(self):
        star = Schedule(4, [(0, 1), (0, 2), (0, 3)])
        assert max_informing_level(star) == 2


class TestTreeEnumeration:
    @pytest.mark.parametrize("n,count", [(2, 1), (3, 6), (4, 96)])
    def test_exhaustive_counts(self, n, count):
        stream = enumerate_tree_schemes(n)
        schemes = list(stream.schedules)
        assert stream.n == n
        assert len(schemes) == count
        assert len({tuple(s.calls) for s in schemes}) == count

    def test_every_scheme_is_a_spanning_tree(self):
        for s in enumerate_tree_schemes(4).schedules:
            comps = classify_components(full_graph(s))
            assert comps == [(frozenset(range(4)), ComponentKind.TREE)]

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            enumerate_tree_schemes(1)
        with pytest.raises(ValidationError):
            enumerate_tree_schemes(9)

    def test_exhaustive_only(self):
        """Six persons is the largest walk; nothing is sampled above it."""
        with pytest.raises(ValidationError, match="2 <= n <= 6"):
            enumerate_tree_schemes(7)


class TestUnicyclicEnumeration:
    def test_all_schemes_unicyclic_spanning(self):
        seen_degenerate = False
        for s in enumerate_unicyclic_schemes(3).schedules:
            comps = classify_components(full_graph(s))
            assert comps == [(frozenset(range(3)), ComponentKind.UNICYCLIC)]
            if len(set(s.calls)) < len(s.calls):
                seen_degenerate = True
        assert seen_degenerate  # doubled-edge case is covered

    def test_exhaustive_only(self):
        """Five persons (six calls) is the largest walk; nothing is sampled above it."""
        for n in (1, 6):
            with pytest.raises(ValidationError, match="2 <= n <= 5"):
                enumerate_unicyclic_schemes(n)


def _stream_digest(streams) -> str:
    h = hashlib.sha256()
    for stream in streams:
        h.update(repr([[tuple(c) for c in s.calls] for s in stream.schedules]).encode())
    return h.hexdigest()[:16]


class TestEnumerationOrder:
    """Both enumerators' exact output, in order."""

    def test_exhaustive_walks(self):
        assert {n: _stream_digest([enumerate_tree_schemes(n)]) for n in range(2, 6)} == {
            2: "262e139c97fa9ad9", 3: "c52031ce38c0c1c0", 4: "85484aae40395609",
            5: "47f7fd9511866800"}
        assert {n: _stream_digest([enumerate_unicyclic_schemes(n)]) for n in range(2, 5)} == {
            2: "3a98643a7dd88e42", 3: "3bcbcdb816cd6ad9", 4: "a210c85584fa759e"}


def _final_state(m: int, calls) -> tuple[int, ...]:
    know = [1 << p for p in range(m)]
    for a, b in calls:
        u = know[a] | know[b]
        know[a] = u
        know[b] = u
    return tuple(know)


def _orbit(state: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Every joint relabeling of the state, by brute force over all permutations."""
    return {
        _apply_person_permutation(state, list(perm))
        for perm in itertools.permutations(range(len(state)))
    }


def _meets(state: tuple[int, ...], k: int, spare: int) -> bool:
    return sum(1 for x in state if x.bit_count() < k) <= spare


class TestInformingTreeClasses:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_equals_brute_force_isomorphism_classes(self, m):
        """Labeled trees x call orders, split into exact relabeling classes."""
        finals = {
            _final_state(m, order)
            for edges in oracle.labeled_trees(m)
            for order in itertools.permutations(edges)
        }
        classes = []  # the smallest member of each class
        while finals:
            orbit = _orbit(finals.pop())
            finals -= orbit
            classes.append(min(orbit))
        for k in range(1, 5):
            for spare in range(0, 3):
                listed = [min(_orbit(_final_state(m, calls)))
                          for calls in informing_tree_classes(m, k, spare)]
                assert len(listed) == len(set(listed)), (m, k, spare)  # no class twice
                assert set(listed) == {c for c in classes if _meets(c, k, spare)}, (m, k, spare)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_prune_drops_no_class(self, m):
        """k = 1 never prunes; filtering its classes gives the pruned enumeration."""
        unpruned = [_final_state(m, calls) for calls in informing_tree_classes(m, 1, 0)]
        for k in range(2, 6):
            for spare in (0, 1):
                want = {canonical_key(st, m) for st in unpruned if _meets(st, k, spare)}
                got = [canonical_key(_final_state(m, calls), m)
                       for calls in informing_tree_classes(m, k, spare)]
                assert len(got) == len(set(got)) and set(got) == want, (m, k, spare)

    def test_schemes_are_trees_meeting_the_goal(self):
        for m, spare in ((9, 0), (8, 1)):
            for calls in informing_tree_classes(m, 4, spare):
                comps = classify_components(full_graph(Schedule(m, calls)))
                assert comps == [(frozenset(range(m)), ComponentKind.TREE)]
                assert _meets(_final_state(m, calls), 4, spare)

    def test_class_lists_digest(self):
        """Every call list, in order, at each (m, k, spare, cycles) the suites read by default.

        The same classes with the same representatives: a change to the
        keys, the twin map or the growth order shows here.
        """
        h = hashlib.sha256()
        for args in [*((m, 1, 0, 0) for m in range(2, 9)), *((m, 4, 0, 0) for m in range(8, 11)),
                     *((m, 4, 1, 0) for m in range(5, 10)), *((m, 4, 0, 1) for m in range(4, 9))]:
            h.update(repr((args, informing_tree_classes(*args))).encode())
        assert h.hexdigest()[:16] == "6382fd1fc8fa2a5d"

    def test_class_counts(self):
        assert [len(informing_tree_classes(m, 4, 0)) for m in range(2, 11)] == [
            0, 0, 0, 0, 0, 0, 1, 4, 25]
        assert [len(informing_tree_classes(m, 4, 1)) for m in range(2, 10)] == [
            0, 0, 0, 1, 4, 17, 67, 257]

    def test_only_four_informing_class_on_eight_is_the_minimal_tree(self):
        (calls,) = informing_tree_classes(8, 4, 0)
        s = minimal_informing_tree(4)
        assert canonical_key(_final_state(8, calls), 8) == canonical_key(
            _final_state(8, [(c.a, c.b) for c in s.calls]), 8)

    @pytest.mark.parametrize("m,k,spare", [(0, 4, 0), (12, 4, 0), (5, 0, 0), (5, 4, -1)])
    def test_out_of_range(self, m, k, spare):
        with pytest.raises(ValidationError):
            informing_tree_classes(m, k, spare)

    @pytest.mark.parametrize("cycles", [-1, 2])
    def test_cycles_out_of_range(self, cycles):
        with pytest.raises(ValidationError):
            informing_tree_classes(5, 4, 0, cycles)


class TestUnicyclicClasses:
    """informing_tree_classes(m, 4, 0, 1): unicyclic schemes leaving everyone 4-informed."""

    def test_class_counts(self):
        assert [len(informing_tree_classes(m, 4, 0, 1)) for m in range(2, 9)] == [
            0, 0, 1, 2, 16, 78, 427]

    @pytest.mark.parametrize("m", range(4, 9))
    def test_schemes_have_one_call_inside_a_component(self, m):
        for calls in informing_tree_classes(m, 4, 0, 1):
            assert len(calls) == m
            comp = list(range(m))  # each person's component, by its smallest member
            inside = 0
            for a, b in calls:
                if comp[a] == comp[b]:
                    inside += 1
                else:
                    old, new = max(comp[a], comp[b]), min(comp[a], comp[b])
                    comp = [new if c == old else c for c in comp]
            assert inside == 1 and set(comp) == {0}, calls
            comps = classify_components(full_graph(Schedule(m, calls)))
            assert comps == [(frozenset(range(m)), ComponentKind.UNICYCLIC)]
            assert _meets(_final_state(m, calls), 4, 0)

    @pytest.mark.parametrize("m", range(4, 9))
    def test_keys_distinct(self, m):
        keys = [canonical_key(_final_state(m, calls), m)
                for calls in informing_tree_classes(m, 4, 0, 1)]
        assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("m,limit", [(4, None), (5, None), (6, 400), (7, 400), (8, 400)])
    def test_every_labeled_scheme_is_in_a_class(self, m, limit):
        """Exhaustive against the labeled enumerator for m <= 5; above it, ``limit``
        seeded draws of a Pruefer sequence, then the extra pair, then a shuffle."""
        keys = {canonical_key(_final_state(m, calls), m)
                for calls in informing_tree_classes(m, 4, 0, 1)}
        if limit is None:
            schemes = [s.calls for s in enumerate_unicyclic_schemes(m).schedules]
        else:
            rng, pairs = random.Random(0), oracle._pair_tables(m)[0]
            schemes = []
            for _ in range(limit):
                edges = oracle.prufer_decode(tuple(rng.randrange(m) for _ in range(m - 2)), m)
                edges.append(pairs[rng.randrange(len(pairs))])
                rng.shuffle(edges)
                schemes.append(edges)
        met = 0
        for calls in schemes:
            state = _final_state(m, calls)
            if _meets(state, 4, 0):
                met += 1
                assert canonical_key(state, m) in keys, calls
        assert met > 0
