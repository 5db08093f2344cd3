"""Acceptance criteria, one test per criterion, exact tolerances, plus a
per-schedule reference for criterion 7's prefix walk.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion.
"""
from __future__ import annotations

import itertools
import time

from partialgossip import (
    LemmaParams,
    SearchConfig,
    Schedule,
    awareness,
    check_lemma,
    is_spanning_tree,
    max_feasible_blocks,
    max_informing_level,
    min_calls_bruteforce,
    minimal_informing_tree,
    p_min_calls,
    simulate,
    synth_doubling,
    synth_multiblock,
    synth_tree_variant,
    t_value,
)
from partialgossip.core import run_calls
from partialgossip.lemmas import LEMMA_IDS
from partialgossip.oracle import FOUND, informing_tree_classes


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


def test_criterion_1_formula_oracle_agreement():
    start = time.monotonic()
    for n in range(2, 7):
        for k in range(2, n + 1):
            result = min_calls_bruteforce(n, k, SearchConfig(time_budget=60))
            assert result.status == FOUND, (n, k)
            assert result.min_calls == p_min_calls(n, k), (n, k)
    small_elapsed = time.monotonic() - start
    assert small_elapsed < 60.0

    result = min_calls_bruteforce(7, 3, SearchConfig(time_budget=600))
    assert result.status == FOUND
    assert result.min_calls == 6
    result = min_calls_bruteforce(7, 4, SearchConfig(time_budget=600))
    if result.status == FOUND:
        assert result.min_calls == 7
    else:
        # constrained-hardware downgrade: require an exhaustive refutation of
        # depth 6 plus a 7-call witness from a fresh, smaller run
        assert result.refuted_depth >= 6
        retry = min_calls_bruteforce(7, 4, SearchConfig(time_budget=600, max_depth=7))
        assert retry.status == FOUND
        assert retry.min_calls == 7
    _report("1", f"15 pairs + (7,3)=6, (7,4)=7 in {time.monotonic() - start:.1f}s")


def test_criterion_2_construction_optimality_sweep():
    start = time.monotonic()
    doubling = trees = multis = 0
    for k in range(4, 11):
        for i in range(0, k - 3):
            for n in range(t_value(i, k), t_value(i - 1, k)):
                s = synth_doubling(n, k, i)
                assert len(s.calls) == n + i, ("doubling", n, k, i)
                assert max_informing_level(s) >= k, ("doubling", n, k, i)
                doubling += 1
                if n >= t_value(i, k) + 1:
                    s = synth_tree_variant(n, k, i)
                    assert len(s.calls) == n + i, ("tree", n, k, i)
                    assert max_informing_level(s) >= k, ("tree", n, k, i)
                    trees += 1
                    for blocks in range(2, max_feasible_blocks(n, k, i) + 1):
                        s = synth_multiblock(n, k, i, blocks)
                        assert len(s.calls) == n + i, ("multiblock", n, k, i, blocks)
                        assert max_informing_level(s) >= k, ("multiblock", n, k, i, blocks)
                        multis += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report("2", f"{doubling} doubling, {trees} tree, {multis} multiblock instances in {elapsed:.1f}s")


def test_criterion_3_reference_schedules(
    hub_tree_8,
    hub_tree_8_plus_one,
    wide_exact4_tree_12_plus_two,
    wide_exact4_tree_10_plus_two,
):
    assert awareness(simulate(hub_tree_8)) == [4] * 8
    assert is_spanning_tree(hub_tree_8)
    assert awareness(simulate(hub_tree_8_plus_one)) == [5] * 8
    assert awareness(simulate(wide_exact4_tree_12_plus_two)) == [6] * 12
    assert awareness(simulate(wide_exact4_tree_10_plus_two)) == [6] * 10
    _report("3", "8-person tree exact 4 -> 5 with one call; both wide trees exact 6 with two")


def test_criterion_4_threshold_sequence_properties():
    for k in range(4, 31):
        values = [t_value(i, k) for i in range(-1, k - 3)]
        assert all(x > y for x, y in zip(values, values[1:])), k
        for i in range(0, k - 3):
            assert 2 * t_value(i, k) - i > t_value(i - 1, k), (i, k)
        assert t_value(-1, k) == (1 << (k - 1)) - 1, k
        assert t_value(k - 4, k) == k, k
    for n in range(4, 21):
        assert p_min_calls(n, n) == 2 * n - 4, n
    _report("4", "decrease, 2t_i - i > t_{i-1}, endpoints, P(n,n)=2n-4 for 4 <= k <= 30")


# (instances_checked, generated) of each suite at the default LemmaParams; a
# speed-up that changes which instances are checked shows here
_DEFAULT_COUNTS = {
    "L1a": (1258, 1258), "L1b": (1254, 1254), "L1c": (524, 524), "L2": (67162, 67162),
    "L3": (2, 707), "L4a": (191, 4807), "L4b": (261, 7113), "L5a": (9410, 75058),
    "L5b": (8446, 73838), "L6s1": (154, 154),
}


def test_criterion_5_lemma_suites():
    start = time.monotonic()
    checked = {}
    for lemma_id in LEMMA_IDS:
        report = check_lemma(lemma_id, LemmaParams())
        assert report.violations == [], lemma_id
        assert report.instances_checked > 0, lemma_id
        assert (report.instances_checked, report.generated) == _DEFAULT_COUNTS[lemma_id]
        checked[lemma_id] = report.instances_checked
        control = check_lemma(lemma_id, LemmaParams(bound_slack=1))
        assert len(control.violations) >= 1, lemma_id
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    total = sum(checked.values())
    _report("5", f"10 suites, {total} instances, all controls fired, {elapsed:.0f}s")


def test_criterion_6_minimal_tree_witnesses():
    # the isomorph-free tree classes for k = 2, 3, 4; the recursive doubling
    # pattern for k = 4
    for k in (2, 3, 4):
        n = 1 << (k - 1)
        classes = informing_tree_classes(n, k, 0)
        assert classes, k
        for calls in classes:
            s = Schedule(n, calls)
            assert is_spanning_tree(s), (k, calls)
            assert max_informing_level(s) >= k, (k, calls)
    s = minimal_informing_tree(4)
    assert s.n == 8
    assert is_spanning_tree(s)
    assert max_informing_level(s) == 4
    _report("6", "k-informing tree classes on exactly 2^(k-1) vertices for k in {2,3,4}")


def _check_block_swaps(max_n: int, max_calls: int, facts: set | None = None) -> tuple[int, int]:
    """Assert that every legal adjacent block swap, in every schedule on
    2 <= n <= max_n persons with at most max_calls calls, leaves the state
    after the two blocks (hence the final state) bit-identical.

    The assertion depends only on the schedule up to the end of the second
    block, so the schedules are walked as a prefix tree, holding the state
    after each call of the prefix, and each prefix checks only the swaps
    that end at its last call: each distinct swap is checked once.  Both
    blocks and the one-call extensions run through ``run_calls``.  Each
    swap is added to ``facts``, if given, as (n, prefix, split, m): block 1
    is prefix[split:split + m] and block 2 the rest of the prefix.  Returns
    the number of swaps and of prefixes walked.
    """
    swaps = prefixes = 0
    for n in range(2, max_n + 1):
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        masks = {p: (1 << p[0]) | (1 << p[1]) for p in pairs}
        stack = [((), ([1 << v for v in range(n)],))]
        while stack:
            seq, states = stack.pop()
            e = len(seq)
            prefixes += 1
            om2 = 0
            for l in range(1, e):  # block 2 = seq[e-l:e]
                om2 |= masks[seq[e - l]]
                if om2.bit_count() >= n - 1:
                    break  # block 2 only grows with l, and no call misses n - 1 of n persons
                om1 = 0
                for m in range(1, e - l + 1):  # block 1 = seq[split:e-l]
                    split = e - l - m
                    om1 |= masks[seq[split]]
                    if om1 & om2:
                        break  # block 1 only grows with m
                    mid = run_calls(list(states[split]), seq[e - l:])
                    assert run_calls(mid, seq[split:e - l]) == states[e], (n, seq, split, m)
                    swaps += 1
                    if facts is not None:
                        facts.add((n, seq, split, m))
            if e < max_calls:
                stack.extend((seq + (p,), states + (run_calls(list(states[e]), (p,)),))
                             for p in pairs)
    return swaps, prefixes


def test_criterion_7_block_swaps_preserve_outcome():
    """Every legal adjacent block swap, over every schedule with n <= 5 and
    at most 6 calls, leaves the state after the two blocks (hence the final
    state) bit-identical.
    """
    start = time.monotonic()
    swaps, prefixes = _check_block_swaps(5, 6)
    elapsed = time.monotonic() - start
    _report("7", f"{swaps} distinct swaps over {prefixes} prefixes in {elapsed:.0f}s")


def test_criterion_7_walk_matches_per_schedule_reference():
    """The prefix walk checks exactly the swaps that a per-schedule scan finds,
    counted once per (n, prefix up to the second block's end, split, m)."""
    expected = set()
    for n in range(2, 5):
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        masks = {p: (1 << p[0]) | (1 << p[1]) for p in pairs}
        for length in range(2, 6):
            for seq in itertools.product(pairs, repeat=length):
                for split in range(length - 1):
                    om1 = 0
                    for m in range(1, length - split):
                        om1 |= masks[seq[split + m - 1]]
                        om2 = 0
                        for l in range(1, length - split - m + 1):
                            om2 |= masks[seq[split + m + l - 1]]
                            if om1 & om2:
                                break  # no larger l can be disjoint either
                            expected.add((n, seq[: split + m + l], split, m))
    facts = set()
    assert _check_block_swaps(4, 5, facts)[0] == len(facts) == len(expected) == 2220
    assert facts == expected
