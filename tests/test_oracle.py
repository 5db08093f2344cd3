"""Search engine soundness, canonicalization and the scheme enumerators."""
from __future__ import annotations

import gc
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
# Band-regime refutations, find passes and partial goals; (8,6) keys one
# state inexactly.
_PINNED_STATS = ("memo_hits", "memo_stores", "memo_refused", "lb_prunes", "unkeyed",
                 "orbit_cuts", "sleep_cuts", "canon_inexact", "find_nodes")
_PINNED = {
    (8, 6, None): (10,
        [(0, 2), (1, 2), (2, 3), (4, 5), (2, 4), (3, 5), (0, 2), (1, 2), (2, 6), (2, 7)],
        9, 40559,
        (337, 633, 0, 37236, 2353, 3250, 28420, 1, 0),
        [(6, 10, 0, 3, 0, 7, 0, 73, 0, 0),
         (7, 54, 2, 10, 0, 42, 0, 177, 36, 0),
         (8, 725, 23, 58, 0, 632, 12, 525, 578, 0),
         (9, 39770, 312, 562, 0, 36555, 2341, 2475, 27806, 1)]),
    (9, 6, None): (10,
        [(0, 1), (1, 2), (3, 4), (1, 3), (2, 4), (1, 5), (2, 6), (3, 7), (4, 8), (0, 1)],
        9, 3647,
        (174, 154, 0, 3219, 100, 1775, 3043, 0, 0),
        [(7, 10, 0, 3, 0, 7, 0, 97, 0, 0),
         (8, 54, 2, 10, 0, 42, 0, 248, 45, 0),
         (9, 3583, 172, 141, 0, 3170, 100, 1430, 2998, 0)]),
    (10, 5, None): (10,
        [(0, 1), (2, 3), (0, 2), (1, 3), (0, 4), (1, 5), (2, 6), (3, 7), (0, 8), (0, 9)],
        9, 7376,
        (220, 320, 0, 6690, 146, 5612, 6831, 0, 0),
        [(7, 10, 0, 3, 0, 7, 0, 124, 0, 0),
         (8, 174, 3, 21, 0, 150, 0, 549, 190, 0),
         (9, 7192, 217, 296, 0, 6533, 146, 4939, 6641, 0)]),
    (6, 3, None): (5,
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5)],
        4, 190,
        (0, 2, 0, 167, 15, 26, 24, 0, 139),
        [(4, 51, 0, 2, 0, 45, 4, 26, 6, 0),
         (5, 139, 0, 0, 0, 122, 11, 0, 18, 0)]),
    (7, 4, None): (7,
        [(0, 1), (0, 2), (0, 1), (0, 3), (0, 4), (1, 5), (2, 6)],
        6, 744,
        (0, 9, 0, 677, 50, 125, 240, 0, 82),
        [(5, 4, 0, 2, 0, 2, 0, 38, 0, 0),
         (6, 658, 0, 7, 0, 605, 46, 86, 225, 0),
         (7, 82, 0, 0, 0, 70, 4, 1, 15, 0)]),
    (8, 6, 5): (7,
        [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 1), (4, 6)],
        6, 121,
        (2, 18, 0, 93, 0, 343, 45, 0, 57),
        [(5, 10, 0, 3, 0, 7, 0, 73, 0, 0),
         (6, 54, 2, 10, 0, 42, 0, 177, 36, 0),
         (7, 57, 0, 5, 0, 44, 0, 93, 9, 0)]),
    (10, 6, 7): (9,
        [(0, 1), (0, 2), (0, 3), (0, 4), (0, 1), (0, 5), (0, 2), (1, 6), (4, 7)],
        8, 31325,
        (31, 113, 0, 29933, 1238, 2600, 21782, 0, 15300),
        [(6, 10, 0, 3, 0, 7, 0, 124, 0, 0),
         (7, 54, 2, 10, 0, 42, 0, 329, 54, 0),
         (8, 15961, 23, 58, 0, 15255, 625, 1264, 11162, 0),
         (9, 15300, 6, 42, 0, 14629, 613, 883, 10566, 0)]),
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

    def test_stats_counted_per_search(self):
        r = min_calls_bruteforce(6, 6)
        assert set(r.stats) == {"memo_hits", "memo_stores", "memo_refused", "lb_prunes",
                                "unkeyed", "orbit_cuts", "sleep_cuts", "canon_inexact",
                                "find_nodes", "passes"}
        for name in ("memo_hits", "lb_prunes", "unkeyed", "orbit_cuts", "sleep_cuts"):
            assert r.stats[name] > 0, name
        assert r.stats["memo_refused"] == r.stats["canon_inexact"] == r.stats["find_nodes"] == 0
        # the doubling schedule settled the search: every node was refuted
        assert (r.stats["memo_hits"] + r.stats["memo_stores"] + r.stats["memo_refused"]
                + r.stats["lb_prunes"] + r.stats["unkeyed"]) == r.nodes
        assert min_calls_bruteforce(6, 6).stats == r.stats
        _assert_passes_add_up(r, range(5, 8))
        # first regime: the find pass runs, and goals and the nodes on the
        # witness path are neither pruned nor stored
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

    def test_inexact_keys_are_counted(self):
        # one keyed state has more twin-class arrangements than the cap
        r = min_calls_bruteforce(12, 4)
        assert r.min_calls == p_min_calls(12, 4)
        assert r.stats["canon_inexact"] == 1
        # (12,2) meets states past the cap only within the unkeyed plies:
        # four or five disjoint calls, 8!/2^4 and 10!/2^5 arrangements
        r = min_calls_bruteforce(12, 2)
        assert r.min_calls == p_min_calls(12, 2)
        assert r.stats["canon_inexact"] == 0
        for calls, exact in ((3, True), (4, False), (5, False)):
            state = tuple(0b11 << (p & ~1) if p < 2 * calls else 1 << p for p in range(12))
            assert canonical_form(state, 12)[2] is exact, calls

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_reference_search(self, n):
        """The cuts and the doubling certificate keep the answer and add no keyed node.

        A search the find pass settled gives the reference's witness; one
        the doubling schedule settled gives a k-informing witness of the
        same length and visits no more nodes.  The nodes near the leaves
        go without a key, so a find pass may visit more nodes than the
        reference, which keys all of them; the keyed nodes, at most the
        memo's hits, stores and refusals plus those on the witness path,
        are never more.  Up to six persons the plain reference, keyed by
        raw states and expanding no-op calls, gives the same answer and
        witness too.
        """
        for k in range(2, (6 if n == 8 else n) + 1):
            r = min_calls_bruteforce(n, k)
            min_calls, calls, nodes = _reference_search(n, k)
            if r.stats["find_nodes"] == 0:
                assert r.min_calls == min_calls
                assert len(r.witness.calls) == min_calls and is_k_informing(r.witness, k)
                assert r.refuted_depth == min_calls - 1
                assert r.nodes <= nodes
            else:
                assert (r.min_calls, r.witness.calls) == (min_calls, calls)
            keyed = r.stats["memo_hits"] + r.stats["memo_stores"] + r.stats["memo_refused"]
            assert keyed + len(r.witness.calls) <= nodes
            if n <= 6:
                assert _reference_search(n, k, plain=True)[:2] == (min_calls, calls)

    @pytest.mark.parametrize("n,k,goal", list(_PINNED))
    def test_results_pinned(self, n, k, goal):
        """Answer, witness, refuted depth, nodes and every counter, per pass too.

        The values were recorded from the search that visited every call of
        a node in pair order, before bound-cut calls were counted by class
        mask, so they show that the counting is exact.
        """
        min_calls, calls, refuted, nodes, totals, passes = _PINNED[n, k, goal]
        stats = dict(zip(_PINNED_STATS, totals))
        stats["passes"] = [dict(zip(("depth", "nodes", *_PINNED_STATS[:-1]), p)) for p in passes]
        r = min_calls_bruteforce(n, k, goal=goal)
        assert (r.status, r.min_calls, r.witness.calls, r.refuted_depth, r.nodes, r.stats) == (
            FOUND, min_calls, tuple(calls), refuted, nodes, stats)

    @pytest.mark.parametrize("n,k", [(9, 6), (10, 6), (10, 7)])
    def test_doubling_certificate_settles_the_frontier(self, n, k):
        """Only refutations run: the find pass here took most of the search."""
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


def _reference_refine_colors(state: tuple[int, ...], n: int) -> list[int]:
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
        sigs = []
        for p in range(n):
            known = []
            x = state[p]
            while x:
                known.append(colors[(x & -x).bit_length() - 1])
                x &= x - 1
            knowers = [colors[q] for q in range(n) if (state[q] >> p) & 1]
            sigs.append((colors[p], tuple(sorted(known)), tuple(sorted(knowers))))
        ranking = {s: r for r, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if len(set(new)) == len(set(colors)):
            return new
        colors = new


def _reference_key(state: tuple[int, ...], n: int) -> tuple[int, ...]:
    colors = _reference_refine_colors(state, n)
    groups: dict[int, list[int]] = {}
    for p in range(n):
        groups.setdefault(colors[p], []).append(p)
    ordered = [groups[c] for c in sorted(groups)]
    best = None
    for pieces in itertools.product(*(itertools.permutations(g) for g in ordered)):
        perm = [p for piece in pieces for p in piece]
        inverse = [0] * n
        for pos, p in enumerate(perm):
            inverse[p] = pos
        cand = _apply_person_permutation(state, inverse)
        if best is None or cand < best:
            best = cand
    return best


def _twin_arrangements(state: tuple[int, ...], n: int) -> int:
    """Twin-class arrangements that canonical_key has to try for this state."""
    known = [[g for g in range(n) if (state[p] >> g) & 1] for p in range(n)]
    knowers = [[q for q in range(n) if (state[q] >> g) & 1] for g in range(n)]
    col = [sum(1 << q for q in knowers[g]) for g in range(n)]
    colors = oracle._refine_colors(known, knowers)
    count = 1
    for c in set(colors):
        cell = [p for p in range(n) if colors[p] == c]
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
            known = [[g for g in range(n) if (state[p] >> g) & 1] for p in range(n)]
            knowers = [[q for q in range(n) if (state[q] >> g) & 1] for g in range(n)]
            colors = oracle._refine_colors(known, knowers)
            assert colors == _reference_refine_colors(state, n), state
            sizes = {colors.count(c) for c in colors}
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
        assert stream.exhaustive
        assert stream.expected_count == count
        assert len(schemes) == count
        assert len({tuple(s.calls) for s in schemes}) == count

    def test_every_scheme_is_a_spanning_tree(self):
        for s in enumerate_tree_schemes(4).schedules:
            comps = classify_components(full_graph(s))
            assert comps == [(frozenset(range(4)), ComponentKind.TREE)]

    def test_sampling_for_large_n(self):
        stream = enumerate_tree_schemes(7, limit=50, seed=42)
        schemes = list(stream.schedules)
        assert not stream.exhaustive
        assert len(schemes) == 50
        for s in schemes:
            comps = classify_components(full_graph(s))
            assert comps == [(frozenset(range(7)), ComponentKind.TREE)]

    def test_sampling_is_seed_deterministic(self):
        a = [s.calls for s in enumerate_tree_schemes(8, limit=20, seed=5).schedules]
        b = [s.calls for s in enumerate_tree_schemes(8, limit=20, seed=5).schedules]
        assert a == b

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            enumerate_tree_schemes(1)
        with pytest.raises(ValidationError):
            enumerate_tree_schemes(9)


class TestUnicyclicEnumeration:
    def test_all_schemes_unicyclic_spanning(self):
        seen_degenerate = False
        for s in enumerate_unicyclic_schemes(3).schedules:
            comps = classify_components(full_graph(s))
            assert comps == [(frozenset(range(3)), ComponentKind.UNICYCLIC)]
            if len(set(s.calls)) < len(s.calls):
                seen_degenerate = True
        assert seen_degenerate  # doubled-edge case is covered

    def test_sampled_schemes_unicyclic(self):
        for s in enumerate_unicyclic_schemes(6, limit=40, seed=1).schedules:
            comps = classify_components(full_graph(s))
            assert comps == [(frozenset(range(6)), ComponentKind.UNICYCLIC)]


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
