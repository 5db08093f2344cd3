"""Lemma suites: zero violations on valid ranges, controls that must fail."""
from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter

import pytest

from partialgossip import (
    Schedule,
    ValidationError,
    awareness,
    canonical_key,
    check_lemma,
    enumerate_tree_schemes,
    lemma1b_bound,
    LemmaParams,
    simulate,
)
from partialgossip import lemmas, minimal_informing_tree
from partialgossip.core import run_calls
from partialgossip.oracle import TIMEOUT, SearchResult, _pair_tables, informing_tree_classes
from partialgossip.lemmas import LEMMA_IDS

# small ranges so the whole file stays fast; the acceptance suite runs the
# documented defaults
FAST = dict(max_sampled_n=5, samples=40, max_prelim=2)


def _aw(n, pairs):
    """Final awareness by the plain call-merge loop, a reference that holds
    every row (the suites read ``core._sweep``)."""
    return [x.bit_count() for x in run_calls([1 << p for p in range(n)], pairs)]


@pytest.mark.parametrize("lemma_id", LEMMA_IDS)
def test_no_violations_on_valid_instances(lemma_id):
    report = check_lemma(lemma_id, LemmaParams(**FAST))
    assert report.instances_checked > 0
    assert report.generated >= report.instances_checked
    assert report.undecided == 0  # no search ran out of budget
    assert report.rejected == report.generated - report.instances_checked
    assert report.elapsed > 0
    if lemma_id != "L2":
        assert sum(report.coverage.values()) == report.instances_checked
    assert report.violations == []


# instances_checked, generated and coverage of each suite at FAST
_FAST_COUNTS = {
    "L1a": (1258, 1258, {
        (2, 2, 0): 1, (3, 2, 0): 1, (4, 2, 0): 3, (4, 3, 0): 1, (5, 2, 0): 9, (5, 3, 0): 2,
        (6, 2, 0): 40, (6, 3, 0): 9, (7, 2, 0): 175, (7, 3, 0): 29, (8, 2, 0): 862,
        (8, 3, 0): 121, (8, 4, 0): 1, (16, 5, 0): 1, (32, 6, 0): 1, (64, 7, 0): 1,
        (128, 8, 0): 1}),
    "L1b": (1254, 1254, {
        (2, 2, 0): 1, (3, 3, 0): 1, (4, 2, 0): 1, (4, 3, 0): 3, (5, 2, 0): 3, (5, 3, 0): 7,
        (5, 4, 0): 1, (6, 2, 0): 18, (6, 3, 0): 27, (6, 4, 0): 4, (7, 2, 0): 86,
        (7, 3, 0): 101, (7, 4, 0): 17, (8, 2, 0): 481, (8, 3, 0): 436, (8, 4, 0): 67}),
    "L1c": (3, 3, {(4, 4, 0): 1, (5, 4, 0): 2}),
    "L2": (66802, 66802, {}),
    "L3": (2, 267, {(4, 4, 1): 1, (8, 5, 1): 1}),
    "L4a": (190, 3067, {
        (8, 4, 0): 1, (8, 5, 1): 1, (9, 4, 0): 4, (9, 5, 1): 12, (9, 6, 2): 1,
        (10, 4, 0): 25, (10, 5, 1): 130, (10, 6, 2): 16}),
    "L4b": (258, 4068, {
        (8, 4, 0): 1, (8, 5, 1): 1, (9, 4, 0): 4, (9, 5, 1): 14, (9, 6, 2): 1,
        (10, 4, 0): 25, (10, 5, 1): 138, (10, 6, 2): 16, (11, 5, 1): 43, (11, 6, 2): 12,
        (12, 6, 2): 3}),
    "L5a": (8340, 43232, {
        (5, 4, 0): 1, (5, 5, 1): 1, (6, 4, 0): 4, (6, 5, 1): 19, (6, 6, 2): 16,
        (7, 4, 0): 17, (7, 5, 1): 126, (7, 6, 2): 117, (8, 4, 0): 67, (8, 5, 1): 675,
        (8, 6, 2): 478, (9, 4, 0): 256, (9, 5, 0): 1, (9, 5, 1): 3334, (9, 6, 1): 1,
        (9, 6, 2): 1858, (10, 5, 1): 727, (10, 6, 1): 3, (10, 6, 2): 639}),
    "L5b": (8, 23, {(4, 4, 0): 1, (5, 4, 0): 2, (5, 5, 1): 5}),
    "L6s1": (154, 154, {
        (4, 4, 0): 3, (5, 4, 0): 4, (5, 5, 0): 4, (5, 5, 1): 4, (6, 4, 0): 5, (6, 5, 0): 5,
        (6, 5, 1): 5, (6, 6, 0): 5, (6, 6, 1): 5, (6, 6, 2): 5, (7, 5, 0): 6, (7, 5, 1): 6,
        (7, 6, 0): 6, (7, 6, 1): 6, (7, 6, 2): 6, (8, 5, 0): 7, (8, 6, 0): 7, (8, 6, 1): 7,
        (8, 6, 2): 7, (9, 5, 0): 8, (9, 6, 0): 8, (9, 6, 1): 8, (10, 5, 0): 9, (10, 6, 0): 9,
        (10, 6, 1): 9}),
}


@pytest.mark.parametrize("lemma_id", LEMMA_IDS)
def test_counts_pinned_at_fast(lemma_id):
    report = check_lemma(lemma_id, LemmaParams(**FAST))
    assert (report.instances_checked, report.generated, dict(report.coverage)) == (
        _FAST_COUNTS[lemma_id]
    )


@pytest.mark.parametrize("lemma_id", LEMMA_IDS)
def test_negative_control_detects_falsified_bound(lemma_id):
    report = check_lemma(lemma_id, LemmaParams(**FAST, bound_slack=1))
    assert len(report.violations) >= 1


def test_unknown_lemma_id_rejected():
    with pytest.raises(ValidationError):
        check_lemma("L99")


@pytest.mark.parametrize("lemma_id,top", [
    ("L4a", 0), ("L4a", 5), ("L4a", 7), ("L4b", 6), ("L5a", 4), ("L5a", 12), ("L4b", 12),
    ("L1a", 1), ("L1b", 11), ("L3", 3), ("L3", 11), ("L6s1", 3), ("L6s1", 13),
])
def test_tree_class_suites_reject_ranges_without_instances(lemma_id, top):
    """Too few persons would check nothing and report ok; too many do not run."""
    with pytest.raises(ValidationError):
        check_lemma(lemma_id, LemmaParams(max_exhaustive_n=top))


@pytest.mark.parametrize("lemma_id,top", [
    ("L4a", 8), ("L4b", 8), ("L5a", 5), ("L1a", 2), ("L1b", 2), ("L3", 4), ("L6s1", 4),
])
def test_tree_class_suites_check_instances_at_smallest_range(lemma_id, top):
    report = check_lemma(lemma_id, LemmaParams(max_exhaustive_n=top))
    assert report.instances_checked > 0 and report.ok


@pytest.mark.parametrize("lemma_id", LEMMA_IDS)
def test_every_accepted_low_range_checks_an_instance(lemma_id):
    """At the low ends of the ranges a suite either rejects its parameters or
    checks at least one instance: it never reports ok on nothing."""
    top = lemmas._SIZES.get(lemma_id, (None,))[0]
    for max_prelim, max_sampled_n, samples in itertools.product(range(3), range(2, 6), range(2)):
        params = LemmaParams(max_exhaustive_n=top, max_sampled_n=max_sampled_n,
                             samples=samples, max_prelim=max_prelim)
        empty = ((lemma_id, max_prelim) == ("L3", 0)
                 or (lemma_id in ("L1c", "L5b") and max_sampled_n < 4))
        try:
            report = check_lemma(lemma_id, params)
        except ValidationError:
            assert empty, params
            continue
        assert not empty and report.instances_checked > 0, params


@pytest.mark.parametrize("top", [1, lemmas.MAX_SAMPLED_N + 1, 10**9])
def test_max_sampled_n_bounded(top):
    with pytest.raises(ValidationError):
        check_lemma("L2", LemmaParams(max_sampled_n=top))


@pytest.mark.parametrize("max_prelim", [-1, lemmas.MAX_PRELIM + 1, 10**9])
def test_max_prelim_bounded(monkeypatch, max_prelim):
    def must_not_run(*args):
        raise AssertionError("an out-of-range max_prelim reached the suite")

    monkeypatch.setattr(lemmas, "run_calls", must_not_run)
    with pytest.raises(ValidationError):
        check_lemma("L4a", LemmaParams(max_prelim=max_prelim))


@pytest.mark.parametrize("lemma_id,kwargs", [
    ("L2", {"samples": -1}), ("L4a", {"max_prelim": -1}), ("L2", {"max_sampled_n": 1}),
    ("L1c", {"max_sampled_n": 3}), ("L5b", {"max_sampled_n": 3}),
    ("L3", {"max_exhaustive_n": 3}), ("L3", {"max_prelim": 0}), ("L1a", {"bound_slack": -1}),
])
def test_params_validated_before_the_suite_runs(monkeypatch, lemma_id, kwargs):
    monkeypatch.setitem(lemmas._CHECKERS, lemma_id, None)  # calling it would fail otherwise
    with pytest.raises(ValidationError):
        check_lemma(lemma_id, LemmaParams(**kwargs))


def test_report_and_params_records():
    a = lemmas.LemmaReport("L1a", 3, [], 5, elapsed=1.5)
    b = lemmas.LemmaReport("L1a", 3, [], 5, elapsed=0.25)
    assert a == b and repr(a).endswith("rejected=0, undecided=0, elapsed=1.5)")
    assert a.coverage == Counter() and a.coverage is not b.coverage  # a new Counter each
    a.coverage[(8, 4, 0)] += 1
    assert a != b and b.coverage == Counter()
    v = lemmas.Violation({"n": 7}, 8, 7)
    assert v == lemmas.Violation({"n": 7}, 8, 7) and v.observed_n == 7
    with pytest.raises(AttributeError):
        v.observed_n = 8
    assert LemmaParams(seed=1) == LemmaParams(None, 8, 400, 3, 1, 0) != LemmaParams()
    assert repr(LemmaParams()) == ("LemmaParams(max_exhaustive_n=None, max_sampled_n=8, "
                                   "samples=400, max_prelim=3, seed=0, bound_slack=0)")


@pytest.mark.parametrize("lemma_id", ["L3", "L4a"])
def test_largest_max_prelim_runs(lemma_id):
    report = check_lemma(lemma_id, LemmaParams(max_prelim=lemmas.MAX_PRELIM))
    assert report.ok and report.instances_checked > 0


def test_l3_lists_every_two_call_lift(monkeypatch, wide_exact4_tree_10):
    """Four of the 630 disjoint call pairs on 10 persons lift this exact 4-informing tree to 6.

    L3 tries every pair, so it checks the lift wherever its tree source
    yields the tree; the source is narrowed to that tree, since listing
    every class on 10 persons takes seconds.
    """
    tree = wide_exact4_tree_10
    monkeypatch.setattr(lemmas, "_exact_k_trees", lambda params: iter([(10, 4, tree.calls)]))
    report = check_lemma("L3", LemmaParams())
    assert report.coverage[10, 6, 2] == 4
    assert report.ok


def test_largest_max_sampled_n_runs():
    report = check_lemma("L2", LemmaParams(max_sampled_n=lemmas.MAX_SAMPLED_N, samples=20))
    assert report.ok and report.instances_checked > 0


def test_report_json_shape():
    report = check_lemma("L1a", LemmaParams(max_sampled_n=4, samples=5))
    doc = report.to_json_dict()
    assert doc["lemma"] == "L1a"
    assert doc["checked"] == report.instances_checked
    assert doc["violations"] == []
    neg = check_lemma("L1a", LemmaParams(max_sampled_n=4, samples=5, bound_slack=1))
    entry = neg.to_json_dict()["violations"][0]
    assert set(entry) == {"instance", "expected_bound", "observed_n"}


def test_single_preliminary_gain_on_minimal_tree_is_exactly_one(hub_tree_8):
    """Some single preliminary call attains the +1 bound even on a minimal tree."""
    base = awareness(simulate(hub_tree_8))
    gains = []
    for a in range(8):
        for b in range(a + 1, 8):
            lifted = awareness(simulate(
                Schedule(8, [(a, b), *hub_tree_8.calls], prelim=1)))
            gains.append(max(y - x for x, y in zip(base, lifted)))
    assert max(gains) == 1


def test_mixed_awareness_bound_attained_at_five_not_four():
    """lemma1b_bound(4, 2) = 5: a witness tree exists on 5 vertices, none on 4."""
    assert lemma1b_bound(4, 2) == 5

    def witnesses(n):
        for s in enumerate_tree_schemes(n).schedules:
            aw = awareness(simulate(s))
            weakest = aw.index(min(aw))
            others = [a for p, a in enumerate(aw) if p != weakest]
            if aw[weakest] >= 2 and min(others) >= 4:
                yield s

    assert next(witnesses(5), None) is not None
    assert next(witnesses(4), None) is None


def test_two_preliminary_lift_needs_nine_vertices(
    hub_tree_8, wide_exact4_tree_12_plus_two, wide_exact4_tree_10_plus_two
):
    """A +2 lift of an exact 4-informing tree implies n >= 2^3 + 1 = 9.

    The 12- and 10-vertex trees clear the bound; the minimal 8-vertex tree
    cannot be lifted by 2 by any preliminary pair.
    """
    for aug in (wide_exact4_tree_12_plus_two, wide_exact4_tree_10_plus_two):
        assert min(awareness(simulate(aug))) == 6
        assert aug.n >= 9
    pairs = [(a, b) for a in range(8) for b in range(a + 1, 8)]
    for prelim in itertools.combinations(pairs, 2):
        lifted = awareness(simulate(
            Schedule(8, [*prelim, *hub_tree_8.calls], prelim=len(prelim))))
        assert min(lifted) < 6


@pytest.mark.parametrize("max_prelim,expected", [(0, 121 + 1555), (1, 121 * 3 + 1555 * 6)])
def test_l2_box_respects_max_prelim(max_prelim, expected):
    """The exhaustive L2 box uses exactly max_prelim preliminary calls here.

    A slack of max_prelim + 1 makes every instance a violation, so the
    reports list the whole box: 121 (n = 3) and 1,555 (n = 4) base
    schedules of up to 4 calls, times the preliminary lists.
    """
    report = check_lemma("L2", LemmaParams(max_sampled_n=4, max_prelim=max_prelim,
                                           bound_slack=max_prelim + 1))
    assert report.instances_checked == expected
    assert len(report.violations) == expected
    assert {len(v.instance["preliminary"]) for v in report.violations} == {max_prelim}


@pytest.mark.parametrize("samples", [1, 37])
def test_l2_draws_samples_in_all(samples):
    """L2 draws ``samples`` random instances in total, not per sampled size."""
    box = check_lemma("L2", LemmaParams(max_prelim=1, samples=0))
    report = check_lemma("L2", LemmaParams(max_prelim=1, samples=samples))
    assert report.generated == box.generated + samples


@functools.cache
def _reference_all_matchings(n, size):
    """Disjoint-edge unions by filtering every combination of pairs."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    found = []
    for combo in itertools.combinations(pairs, size):
        used = set()
        ok = True
        for a, b in combo:
            if a in used or b in used:
                ok = False
                break
            used.update((a, b))
        if ok:
            found.append(combo)
    return tuple(found)


def _reference_matchings(n, size, rng, cap=48):
    """The untabled enumeration, kept as the reference for _list_source's matchings."""
    found = [list(combo) for combo in _reference_all_matchings(n, size)]
    if len(found) <= cap:
        yield from found
    else:
        for idx in rng.sample(range(len(found)), cap):
            yield found[idx]


def _reference_list_source(params):
    """lemmas._list_source written out over the reference matchings."""
    streams = functools.cache(lambda o, size: random.Random(f"{params.seed}:{o}:{size}"))

    def lists(n, o, size, cap=48):
        rng = streams(o, size)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        drawn = (list(_reference_matchings(n, size, rng, cap)),
                 [[pairs[rng.randrange(len(pairs))] for _ in range(size)]
                  for _ in range(10 if size >= 2 and len(pairs) >= 2 else 0)])
        return tuple([bytes(pairs.index(p) for p in prelim) for prelim in group
                      if len({v for p in prelim for v in p if v >= n - o}) == o]
                     for group in drawn)

    return lists


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_cached_matchings_match_reference(seed):
    for kwargs in ({}, {"cap": math.inf}):
        ours = lemmas._list_source(LemmaParams(seed=seed))
        ref = _reference_list_source(LemmaParams(seed=seed))
        for _ in range(2):  # the second round reads the cached tables, the streams go on
            for n in range(1, 13):
                for o in range(0, 3):
                    for size in range(0, 4):
                        assert ours(n, o, size, **kwargs) == ref(n, o, size, **kwargs), (
                            kwargs, n, o, size)


def _table_listing(n, size):
    """The matchings of lemmas._matching_table(n, size) as tuples of pairs."""
    if not size:
        return ((),)
    table, pairs = lemmas._matching_table(n, size), _pair_tables(n)[0]
    return tuple(tuple(pairs[j] for j in table[i : i + size]) for i in range(0, len(table), size))


def test_all_matchings_match_reference():
    for n in range(0, 11):
        for size in range(0, 5):
            assert _table_listing(n, size) == _reference_all_matchings(n, size), (n, size)


def test_all_matchings_cost_follows_output(monkeypatch):
    """Only tables with entries are built; filtering combinations takes seconds on (10, 6).

    Each build is counted with the length of its table: (10, 6) builds
    itself alone, empty, and (10, 5) only the tables its 945 entries are
    read from.
    """
    builds = []
    build = lemmas._matching_table.__wrapped__

    @functools.cache
    def counting(n, size):
        table = build(n, size)
        builds.append((n, size, len(table)))
        return table

    monkeypatch.setattr(lemmas, "_matching_table", counting)
    assert counting(10, 6) == b""
    assert builds == [(10, 6, 0)]
    builds.clear()
    assert len(counting(10, 5)) == 945 * 5
    assert builds[-1] == (10, 5, 945 * 5)
    assert all(length > 0 for n, size, length in builds)


def test_all_matchings_count():
    for n in range(1, 11):
        for s in range(0, 4):
            expected = (
                math.factorial(n) // (2**s * math.factorial(s) * math.factorial(n - 2 * s))
                if 2 * s <= n else 0
            )
            assert len(_table_listing(n, s)) == expected, (n, s)


@pytest.mark.parametrize("bound_slack", [0, 1])
@pytest.mark.parametrize("lemma_id", ["L3", "L4a", "L4b", "L5a", "L5b"])
def test_suites_unchanged_by_matching_cache(monkeypatch, lemma_id, bound_slack):
    params = LemmaParams(**FAST, bound_slack=bound_slack)
    ours = check_lemma(lemma_id, params)
    monkeypatch.setattr(lemmas, "_list_source", _reference_list_source)
    _same_report(ours, check_lemma(lemma_id, params))


# the suites that draw preliminary calls through _list_source, the only
# reader of the matching tables; the other five never read one
@pytest.mark.parametrize("lemma_id", ["L3", "L4a", "L4b", "L5a", "L5b"])
def test_suites_unchanged_by_tabled_matching_count(monkeypatch, lemma_id):
    params = LemmaParams(**FAST)
    ours = check_lemma(lemma_id, params)
    # every read rebuilds its table, and the tables below it, from scratch
    monkeypatch.setattr(lemmas, "_matching_table", lemmas._matching_table.__wrapped__)
    ref = check_lemma(lemma_id, params)
    assert ours.to_json_dict() == ref.to_json_dict()
    assert (ours.generated, ours.coverage) == (ref.generated, ref.coverage)


def _reference_check_l2(params, lemma_id="L2"):
    """L2 as it was before each base was simulated once: two simulations per candidate."""
    rng = random.Random(params.seed)

    def judge(n, base, prelim):
        before = _aw(n, base)
        after = _aw(n, list(prelim) + list(base))
        allowed = len(prelim) - params.bound_slack
        gain = max(b - a for a, b in zip(before, after))
        return None, gain > allowed and lemmas.Violation(
            lemmas._describe(n, base, prelim, max_gain=gain), allowed, gain)

    ells = range(1, min(2, params.max_prelim) + 1) if params.max_prelim else (0,)
    for n in (3, 4):
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        for length in range(0, 5):
            for base in itertools.product(pairs, repeat=length):
                for ell in ells:
                    for prelim in itertools.product(pairs, repeat=ell):
                        yield judge(n, base, prelim)
    if params.max_sampled_n >= 5 and params.max_prelim >= 1:
        for _ in range(params.samples):
            n = rng.randrange(5, params.max_sampled_n + 1)
            pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
            base = [pairs[rng.randrange(len(pairs))] for _ in range(rng.randrange(0, 9))]
            ell = rng.randrange(1, params.max_prelim + 1)
            prelim = [pairs[rng.randrange(len(pairs))] for _ in range(ell)]
            yield judge(n, base, prelim)


def _reference_lists(params):
    """The lists of _reference_list_source, matchings and then dense ones, as pair lists."""
    source = _reference_list_source(params)

    def lists(n, o, size, cap=48):
        pairs = _pair_tables(n)[0]
        return [[pairs[j] for j in x] for drawn in source(n, o, size, cap) for x in drawn]

    return lists


def _reference_check_tree_prelim(params, lemma_id):
    """L3, L4a, L4b, L5a and L5b as they were before each matching was judged
    by crossing counts: the preliminary list and the base concatenated and
    run by _aw, the lists drawn by _reference_list_source."""
    lists = _reference_lists(params)
    if lemma_id == "L3":
        for n, k, base in lemmas._exact_k_trees(params):
            for ell in range(1, params.max_prelim + 1):
                for prelim in lists(n, 0, ell, cap=math.inf):
                    if min(_aw(n, list(prelim) + list(base))) < k + ell:
                        yield None
                        continue
                    bound = (1 << (k - 1)) + ell - 1 + params.bound_slack
                    yield (n, k + ell, ell), n < bound and lemmas.Violation(
                        lemmas._describe(n, base, prelim, k=k, ell=ell), bound, n)
        return
    outsiders, spare, cycles = lemmas._TREE_PRELIM[lemma_id]
    for m, tree in lemmas._tree_classes(params, lemma_id, 4, spare, cycles):
        for o in range(0, outsiders + 1):
            for i in range(o, min(params.max_prelim, m + o - 4) + 1):
                for prelim in lists(m + o, o, i):
                    k = sorted(_aw(m + o, list(prelim) + list(tree))[:m])[spare]
                    if k < 4 or i > k - 4 or m + o < k:
                        yield None
                        continue
                    bound = lemmas.t_value(i - 1 + spare + cycles, k) + params.bound_slack
                    yield (m + o, k, i), m + o < bound and lemmas.Violation(
                        lemmas._describe(m, tree, prelim, k=k, i=i), bound, m + o)


def _same_report(ours, ref):
    assert ours.to_json_dict() == ref.to_json_dict()
    assert (ours.generated, ours.rejected, ours.undecided, ours.coverage) == (
        ref.generated, ref.rejected, ref.undecided, ref.coverage)


def _check_against_reference(lemma_id, reference, params):
    ours = check_lemma(lemma_id, params)
    _same_report(ours, lemmas._report(lemma_id, reference(params, lemma_id)))
    return ours


_REFERENCES = [
    ("L2", _reference_check_l2),
    *[(lid, _reference_check_tree_prelim) for lid in ("L3", "L4a", "L4b", "L5a", "L5b")],
]


@pytest.mark.parametrize("bound_slack", [0, 1])
@pytest.mark.parametrize("lemma_id,reference", _REFERENCES)
def test_shared_simulation_matches_reference(lemma_id, reference, bound_slack):
    params = LemmaParams(**FAST, bound_slack=bound_slack)
    ours = _check_against_reference(lemma_id, reference, params)
    assert ours.ok == (bound_slack == 0)


# fewer tree persons where the reference would filter millions of
# combinations of five pairs (66 pairs on 12 persons)
_SMALLER = {
    "L4a": dict(max_exhaustive_n=9), "L4b": dict(max_exhaustive_n=8),
    "L5a": dict(max_exhaustive_n=7),
}


@pytest.mark.parametrize("lemma_id,reference,max_prelim", [
    ("L2", _reference_check_l2, 0), ("L2", _reference_check_l2, 1),
    *[(lid, _reference_check_tree_prelim, p)
      for lid in ("L3", "L4a", "L4b", "L5a", "L5b") for p in (0, 5)],
])
def test_shared_simulation_matches_reference_at_max_prelim(lemma_id, reference, max_prelim):
    """FAST itself has max_prelim 2; here no list, a single call, or five calls."""
    ranges = _SMALLER.get(lemma_id, {}) if max_prelim == 5 else {}
    params = LemmaParams(**{**FAST, "max_prelim": max_prelim, **ranges})
    if (lemma_id, max_prelim) == ("L3", 0):  # L3 lifts by >= 1 call: nothing to check
        with pytest.raises(ValidationError, match="L3 needs max_prelim >= 1"):
            check_lemma(lemma_id, params)
        return
    ours = _check_against_reference(lemma_id, reference, params)
    assert ours.instances_checked > 0
    if max_prelim == 5:
        assert any(i > 0 for n, k, i in ours.coverage)


def _most_informed(n: int, k: int, length: int) -> list[int]:
    """Most persons k-informed after each number of calls up to ``length``.

    Every call sequence of each length is extended by every call; sequences
    that end in the same state are merged, since the rest depends on the
    state alone.
    """
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    layer = {tuple(1 << p for p in range(n))}
    most = []
    for _ in range(length + 1):
        most.append(max(sum(x.bit_count() >= k for x in state) for state in layer))
        layer = {
            state[:a] + (state[a] | state[b],) + state[a + 1 : b] + (state[a] | state[b],)
            + state[b + 1 :]
            for state in layer for a, b in pairs
        }
    return most


@pytest.mark.parametrize("bound_slack", [0, 1])
def test_l6s1_facts_match_every_call_sequence(bound_slack):
    """Each fact "m persons k-informed take more than m + i - 1 + slack calls" on n <= 5.

    A fact fails when some sequence of that many calls leaves m persons
    k-informed; the violation is then a shortest such sequence.
    """
    report = check_lemma("L6s1", LemmaParams(max_exhaustive_n=5, bound_slack=bound_slack))
    tuples = [(4, 4, 0), (5, 4, 0), (5, 5, 0), (5, 5, 1)]
    assert dict(report.coverage) == {(n, k, i): n - 1 for n, k, i in tuples}
    assert report.instances_checked == report.generated == 15
    want = []
    for n, k, i in tuples:
        most = _most_informed(n, k, n + i - 1 + bound_slack)
        for m in range(2, n + 1):
            if most[m + i - 1 + bound_slack] >= m:
                shortest = min(d for d, informed in enumerate(most) if informed >= m)
                want.append((n, k, i, shortest - i))
    got = []
    for v in report.violations:
        inst = v.instance
        n, k, i, j = inst["n"], inst["k"], inst["i"], inst["j"]
        got.append((n, k, i, j))
        assert len(inst["calls"]) == i + j
        informed = sum(a >= k for a in awareness(simulate(Schedule(n, inst["calls"]))))
        assert inst["informed"] == v.observed_n == informed > v.expected_bound == j - bound_slack
    assert sorted(got) == sorted(want)
    assert bool(want) == (bound_slack == 1)


@pytest.mark.parametrize("refuted", [0, 4])
def test_l6s1_proves_nothing_past_a_timed_out_search(monkeypatch, refuted):
    """A search cut by its budget decides only the facts its refuted depth covers;
    the rest are counted as undecided, not as hypothesis misses."""
    def timed_out(n, k, cfg=None, goal=None):
        return SearchResult(TIMEOUT, None, None, refuted, 0, 0.0)

    monkeypatch.setattr(lemmas, "min_calls_bruteforce", timed_out)
    report = check_lemma("L6s1", LemmaParams())
    assert report.violations == []
    assert report.generated == 154
    # FAST changes nothing L6s1 reads (its i stay at most k - 4 = 2), so its
    # pinned coverage is that of the defaults
    proved = sum(  # the m in [2, n] with m + i - 1 <= refuted
        max(0, min(n, refuted - i + 1) - 1) for n, k, i in _FAST_COUNTS["L6s1"][2]
    )
    assert report.instances_checked == sum(report.coverage.values()) == proved
    assert (proved > 0) == (refuted > 0)
    assert (report.undecided, report.rejected) == (154 - proved, 0)


@pytest.mark.parametrize("top", [9, lemmas.MAX_SAMPLED_N])
@pytest.mark.parametrize("lemma_id", ["L1c", "L5b"])
def test_unicyclic_suites_stop_at_enumerator_limit(lemma_id, top):
    """Unicyclic schemes are enumerated on at most 8 persons; a larger range reports as 8."""
    def at(max_sampled_n):
        return check_lemma(lemma_id, LemmaParams(max_sampled_n=max_sampled_n))

    ours, ref = at(top), at(8)
    _same_report(ours, ref)
    assert ours.instances_checked > 0


@pytest.mark.parametrize("lemma_id", ["L1c", "L5b"])
@pytest.mark.parametrize("top", [2, 3])
def test_unicyclic_suites_reject_ranges_without_instances(lemma_id, top):
    """No unicyclic scheme on fewer than 4 persons leaves everyone 4-informed."""
    with pytest.raises(ValidationError):
        check_lemma(lemma_id, LemmaParams(max_sampled_n=top))


# the suites that draw preliminary lists, each with a range small enough to
# run ten times
_PRELIM_RANGES = {
    "L3": {}, "L4a": {}, "L4b": dict(max_exhaustive_n=9), "L5a": dict(max_exhaustive_n=7),
    "L5b": dict(max_sampled_n=7),
}


@pytest.mark.parametrize("lemma_id", sorted(_PRELIM_RANGES))
def test_coverage_monotone_in_max_prelim(lemma_id):
    """One more preliminary call allowed adds instances and moves none.

    Each (outsiders, size) draws its lists from its own seeded stream.
    """
    def coverage(max_prelim):
        params = LemmaParams(max_prelim=max_prelim, **_PRELIM_RANGES[lemma_id])
        return check_lemma(lemma_id, params).coverage

    low = 1 if lemma_id == "L3" else 0  # L3 lifts by >= 1 call
    before = coverage(low)
    for p in range(low, 9):
        after = coverage(p + 1)
        assert all(after[key] >= c for key, c in before.items()), (lemma_id, p)
        before = after
    assert any(i > 0 for n, k, i in before)


@pytest.mark.parametrize("lemma_id,shift", [("L4a", 0), ("L4b", 0), ("L5a", 1), ("L5b", 1)])
def test_prelim_suites_bound_index(lemma_id, shift):
    """L4a and L4b assert n >= t_{i-1}(k), L5a and L5b n >= t_i(k).

    A slack no instance can meet reports every checked instance with its
    bound.
    """
    report = check_lemma(lemma_id, LemmaParams(**FAST, bound_slack=10**6))
    assert len(report.violations) == report.instances_checked > 0
    for v in report.violations:
        i, k = v.instance["i"], v.instance["k"]
        assert v.expected_bound == lemmas.t_value(i - 1 + shift, k) + 10**6


def _tree_class(instance):
    """Relabeling class of the tree's own final state in a reported instance."""
    m = instance["n"]
    return canonical_key(tuple(run_calls([1 << p for p in range(m)], instance["calls"])), m)


@pytest.mark.parametrize("params", [LemmaParams(), LemmaParams(**FAST)], ids=["default", "fast"])
@pytest.mark.parametrize("lemma_id", ["L4a", "L4b", "L5a"])
def test_tree_suites_cover_k_at_least_four(lemma_id, params):
    """At least 20 instances at k >= 4, from at least 20 tree classes.

    A slack no instance can meet turns every checked instance into a
    reported violation, which names its tree.
    """
    params.bound_slack = 10**6
    report = check_lemma(lemma_id, params)
    at_four = sum(c for (n, k, i), c in report.coverage.items() if k >= 4)
    assert at_four == report.instances_checked >= 20
    assert len(report.violations) == report.instances_checked
    assert len({_tree_class(v.instance) for v in report.violations}) >= 20


@pytest.mark.parametrize("params", [LemmaParams(), LemmaParams(**FAST)], ids=["default", "fast"])
@pytest.mark.parametrize("lemma_id", ["L1a", "L1b"])
def test_tree_suites_check_every_class_up_to_eight(lemma_id, params):
    """One instance per final-state class of trees on 2 to 8 persons (L1a
    adds the minimal informing trees of k = 5..8 on 16 to 128 persons)."""
    params.bound_slack = 10**6
    report = check_lemma(lemma_id, params)
    classes = sum(len(informing_tree_classes(m, 1, 0)) for m in range(2, 9))
    sharp = 4 if lemma_id == "L1a" else 0
    assert report.instances_checked == len(report.violations) == classes + sharp
    assert classes == 1_254
    assert len({_tree_class(v.instance) for v in report.violations}) == classes + sharp


@pytest.mark.parametrize("top,first", [(2, 3), (3, 3), (4, 4), (7, 4), (8, 5), (10, 5)])
def test_l1a_minimal_trees_start_past_the_classes(top, first):
    """L1a adds minimal_informing_tree(k) for each k whose 2^(k-1) persons
    exceed max_exhaustive_n, up to SHARP_TREE_K; the bound holds with
    equality on each, so one unit of slack fires on every one."""
    report = check_lemma("L1a", LemmaParams(max_exhaustive_n=top, bound_slack=1))
    past = {v.instance["k"]: v for v in report.violations if v.instance["n"] > top}
    assert sorted(past) == list(range(first, lemmas.SHARP_TREE_K + 1))
    for k, v in past.items():
        assert v.observed_n == 1 << (k - 1) == v.expected_bound - 1
        assert v.instance["calls"] == [list(c) for c in minimal_informing_tree(k).calls]
    assert check_lemma("L1a", LemmaParams(max_exhaustive_n=top)).ok


def test_l1c_checks_every_unicyclic_class_up_to_eight():
    """One instance per class of unicyclic schemes leaving everyone 4-informed, k = 5 included."""
    report = check_lemma("L1c", LemmaParams(bound_slack=10**6))
    classes = sum(len(informing_tree_classes(m, 4, 0, 1)) for m in range(4, 9))
    assert report.instances_checked == report.generated == len(report.violations) == classes
    assert len({_tree_class(v.instance) for v in report.violations}) == classes == 524
    assert report.coverage[(8, 5, 0)] == 1


def test_exact_trees_include_minimal_informing_trees():
    found = {
        canonical_key(tuple(run_calls([1 << p for p in range(n)], pairs)), n)
        for n, k, pairs in lemmas._exact_k_trees(LemmaParams())
    }
    for k in (3, 4):
        s = minimal_informing_tree(k)
        assert canonical_key(simulate(s).know, s.n) in found


@pytest.mark.parametrize("cycles,spare,top", [(0, 0, 8), (0, 1, 7), (1, 0, 7)])
def test_crossing_counts_equal_simulation(cycles, spare, top):
    """After a matching, then a scheme, the lanes of _crossings are the awareness.

    Every class of informing_tree_classes(m, 4, spare, cycles) with m <= top
    (the one class of trees with spare 0 needs 8 persons), every matching of
    at most 3 calls on m + o persons, o <= 2.
    """
    tried = 0
    for m in range(2, top + 1):
        for scheme in informing_tree_classes(m, 4, spare, cycles):
            own = run_calls([1 << p for p in range(m)], scheme)
            for n in range(m, m + 3):
                base, cross = lemmas._crossings(own, n)
                pairs = _pair_tables(n)[0]
                for size in range(0, 4):
                    for matching in _reference_all_matchings(n, size):
                        lanes = base + sum(cross[pairs.index(p)] for p in matching)
                        final = run_calls(run_calls([1 << p for p in range(n)], matching),
                                          scheme)
                        assert [lanes >> 5 * v & 31 for v in range(m)] == [
                            x.bit_count() for x in final[:m]], (scheme, n, matching)
                        assert lanes >> 5 * m == 0
                        tried += 1
    assert tried > 0


@pytest.mark.parametrize("spare", [0, 1])
def test_prelim_outcomes_exact_at_every_goal(spare):
    """The lane bias 16 - goal is exact for every goal from 1 to 16 on 13
    persons, the most a suite uses: 13 + 16 - goal < 32 keeps the lanes apart.

    A path's persons end knowing 2 to 13 gossips, so every goal splits them.
    """
    n, path = 13, [(v, v + 1) for v in range(12)]
    pairs = _pair_tables(n)[0]
    for least in range(1, 17):
        ells = range(0, min(2, 16 - least) + 1)
        got = list(lemmas._prelim_outcomes(lemmas._list_source(LemmaParams()), path, n, n,
                                           ells, least, spare, math.inf))
        want, lists = [], lemmas._list_source(LemmaParams())
        for ell in ells:
            for x in itertools.chain(*lists(n, 0, ell, cap=math.inf)):
                prelim = [pairs[j] for j in x]
                k = sorted(_aw(n, prelim + path))[spare]
                want.append((ell, prelim, k) if k >= least + ell else (ell, None, None))
        assert got == want, least


def test_l5b_checks_each_unicyclic_class_once():
    """Without preliminary calls L5b checks one instance per class that L1c lists."""
    report = check_lemma("L5b", LemmaParams(max_prelim=0, bound_slack=10**6))
    classes = sum(len(informing_tree_classes(m, 4, 0, 1)) for m in range(4, 9))
    assert report.instances_checked == len(report.violations) == classes == 524
    assert len({_tree_class(v.instance) for v in report.violations}) == classes


def test_l5b_reaches_three_preliminary_calls_and_its_control_fires():
    """At the defaults L5b checks k up to 7 with i = 3 on 8 persons and finds
    nothing; one unit of slack fires on tight tuples with i >= 1 and k >= 5."""
    report = check_lemma("L5b", LemmaParams())
    assert report.ok and report.instances_checked >= 8_000
    assert report.coverage[(8, 7, 3)] > 0
    control = check_lemma("L5b", LemmaParams(bound_slack=1))
    fired = {(v.observed_n, v.instance["k"], v.instance["i"]) for v in control.violations}
    assert {(5, 5, 1), (6, 6, 2), (7, 7, 3)} <= fired
    assert len(control.violations) == 304
