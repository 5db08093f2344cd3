"""Acceptance criteria, one test per criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion.
"""
from __future__ import annotations

import itertools
import time

from partialgossip import (
    LemmaParams,
    SearchConfig,
    awareness,
    apply_preliminary,
    check_lemma,
    enumerate_tree_schemes,
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
from partialgossip.lemmas import LEMMA_IDS
from partialgossip.oracle import FOUND


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
    assert awareness(apply_preliminary(hub_tree_8_plus_one)) == [5] * 8
    assert awareness(apply_preliminary(wide_exact4_tree_12_plus_two)) == [6] * 12
    assert awareness(apply_preliminary(wide_exact4_tree_10_plus_two)) == [6] * 10
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
    # enumeration for k = 2, 3; the recursive doubling pattern for k = 4
    for k in (2, 3):
        n = 1 << (k - 1)
        found = any(
            max_informing_level(s) >= k for s in enumerate_tree_schemes(n).schedules
        )
        assert found, k
    s = minimal_informing_tree(4)
    assert s.n == 8
    assert is_spanning_tree(s)
    assert max_informing_level(s) == 4
    _report("6", "k-informing trees on exactly 2^(k-1) vertices for k in {2,3,4}")


def test_criterion_7_block_swaps_preserve_outcome():
    """Every legal adjacent block swap, over every schedule with n <= 5 and
    at most 6 calls, leaves the state after the two blocks (hence the final
    state) bit-identical.
    """
    start = time.monotonic()
    schedules_seen = 0
    swaps_checked = 0
    for n in range(2, 6):
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        masks = {p: (1 << p[0]) | (1 << p[1]) for p in pairs}
        init = tuple(1 << v for v in range(n))
        for length in range(2, 7):
            for seq in itertools.product(pairs, repeat=length):
                schedules_seen += 1
                states = [init]
                know = list(init)
                for a, b in seq:
                    u = know[a] | know[b]
                    know[a] = u
                    know[b] = u
                    states.append(tuple(know))
                for split in range(length - 1):
                    om1 = 0
                    for m in range(1, length - split):
                        om1 |= masks[seq[split + m - 1]]
                        om2 = 0
                        for l in range(1, length - split - m + 1):
                            om2 |= masks[seq[split + m + l - 1]]
                            if om1 & om2:
                                break  # no larger l can be disjoint either
                            mid = list(states[split])
                            for a, b in seq[split + m : split + m + l]:
                                u = mid[a] | mid[b]
                                mid[a] = u
                                mid[b] = u
                            for a, b in seq[split : split + m]:
                                u = mid[a] | mid[b]
                                mid[a] = u
                                mid[b] = u
                            swaps_checked += 1
                            assert tuple(mid) == states[split + m + l], (n, seq, split, m, l)
    elapsed = time.monotonic() - start
    _report("7", f"{swaps_checked} swaps over {schedules_seen} schedules in {elapsed:.0f}s")
