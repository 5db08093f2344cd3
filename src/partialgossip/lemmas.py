"""Empirical verification harnesses for the structural lower-bound lemmas.

Each suite enumerates candidate communication schemes (exhaustively on
small sizes, by seeded sampling beyond) and yields one outcome per
candidate: None when it misses the lemma's hypotheses, else the checked
instance's coverage key and a violation of the lemma's conclusion or
nothing.  One loop, _report, turns any suite's outcomes into its
LemmaReport, so violations are reported instead of raised.  The harness
can be pointed at a deliberately falsified bound (``bound_slack``) to prove
it is able to fail.

L4a, L4b and L5a are one statement with a moving bound index: a tree plus
i preliminary calls has n >= t_{i-1+spare}(k), with k the (spare+1)-th
smallest awareness on the tree's own persons.  One checker runs all three
from the table _TREE_PRELIM of (outsiders, spare): L4a (0, 0), L4b (2, 0)
and L5a (1, 1).  L5b asserts the same bound on a unicyclic scheme, its one
cycle taking the place of the spare person.

Documented instance ranges (defaults in LemmaParams):

* tree schemes for L1a, L1b and the exact-tree filter of L3: every class of
  tree schemes on m persons, m in {2, ..., 8}, up to joint relabeling of the
  final state (1,254 classes; 49, 204 and 984 of them for m = 6, 7, 8).
  Their outcome depends only on that class (see _tree_classes);
* tree schemes for L4a, L4b and L5a: every class of tree schemes on m
  persons, up to joint relabeling of the final state, that leaves everyone
  (L4a, L4b: m in {2, ..., 10}) or everyone but one person (L5a: m in
  {2, ..., 9}) knowing at least 4 gossips; no other tree can meet their
  hypotheses (see _check_tree_prelim).  That is 1, 4 and 25 classes
  for m = 8, 9, 10 and 1, 4, 17, 67 and 257 for m = 5, ..., 9, and none
  below;
* the six tree suites take their largest m from ``max_exhaustive_n``,
  within _SIZES (L1a, L1b: 2..10; L3: 4..10; L4a, L4b: 8..11; L5a:
  5..11); ``max_sampled_n`` and ``samples`` do not apply to them;
* unicyclic schemes: exhaustive for n <= 4, sampled for n in {5, ...,
  min(max_sampled_n, 8)}, the enumerator's limit;
* preliminary-call counts: up to ``max_prelim`` (default 3, at most
  MAX_PRELIM = 9).  Unions of disjoint edges (single calls included) are
  listed in full for L3's exact trees, and elsewhere while a given
  (n, size) has at most 48 of them; above that, 48 are sampled per tree.
  Denser preliminary lists are sampled: 10 per call, 5 in L5b;
* L2: an exhaustive box over n in {3, 4}, up to 4 base calls and
  ell <= min(2, max_prelim) preliminary calls (only ell = 0 when
  max_prelim is 0), plus ``samples`` random instances on 5..max_sampled_n
  persons when max_sampled_n >= 5 and max_prelim >= 1.  The box simulates
  each base once for all its preliminary lists.  L5b rejects unsimulated
  every candidate of a scheme whose own minimum awareness is below 4, by
  the L2 argument of _check_tree_prelim; every report is as if each
  candidate were simulated;
* L6s1: every (n, k, i) with k in {4, 5, 6}, i <= min(k - 4, max_prelim)
  and n <= t_{i-1}(k) - 1, on k to ``max_exhaustive_n`` persons (default
  10: 25 tuples).  Its candidates are facts, 154 by default, each decided
  by an exhaustive search (_check_l6s1), so nothing is sampled.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field

from .core import ValidationError, run_calls
from .formulas import lemma1b_bound, t_value
from .oracle import (SCHEME_SIZE_LIMIT, SearchConfig, enumerate_unicyclic_schemes,
                     informing_tree_classes, min_calls_bruteforce)

LEMMA_IDS = (
    "L1a", "L1b", "L1c", "L2", "L3", "L4a", "L4b", "L5a", "L5b", "L6s1",
)

# max_exhaustive_n of the suites that read it, their largest tree size (L6s1:
# persons): (smallest, largest, default).  Below the smallest no instance
# meets a suite's hypotheses, so it would check nothing and still report ok:
# L3 needs an exact k-informing tree with 3 <= k < n (4 persons), a tree
# leaving everyone 4-informed has at least 2^3 persons (L1a), one leaving all
# but one person 4-informed at least 5, and L6s1 n >= k >= 4.  The largest
# caps the cost: informing_tree_classes(10, 1, 0) takes about 6 s, L6s1 19 s.
_SIZES = {
    "L1a": (2, 10, 8), "L1b": (2, 10, 8), "L3": (4, 10, 8),
    "L4a": (8, 11, 10), "L4b": (8, 11, 10), "L5a": (5, 11, 9),
    "L6s1": (4, 12, 10),
}

# largest max_sampled_n accepted: L2 builds every pair of an n-person
# universe for each sample, and the scheme enumerators stop at 8
MAX_SAMPLED_N = 30

# largest max_prelim accepted: no suite but L2 can check more preliminary
# calls.  L3 needs ell <= n - 3 and the others i <= k - 4 <= n - 4, and the
# largest universe is 11 tree persons plus 2 outsiders (L4b).  Above it the
# suites only draw lists they cannot check, at a cost that grows with
# max_prelim.
MAX_PRELIM = 9


@dataclass(frozen=True)
class Violation:
    instance: dict
    expected_bound: int
    observed_n: int


@dataclass
class LemmaReport:
    lemma_id: str
    instances_checked: int
    violations: list[Violation]
    # candidates evaluated before the hypothesis filter; not part of the JSON
    generated: int = 0
    # checked instances per (n, k, i): persons, the k the instance was
    # checked at and its preliminary calls (0 without any); empty for L2,
    # whose hypothesis names no k; not part of the JSON
    coverage: Counter = field(default_factory=Counter)
    # candidates that missed the hypotheses:
    # generated - instances_checked - undecided
    rejected: int = 0
    # candidates a budget-cut search left neither proved nor refuted (L6s1)
    undecided: int = 0
    # seconds the suite took to generate and judge its candidates
    elapsed: float = field(default=0.0, compare=False)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "lemma": self.lemma_id,
            "checked": self.instances_checked,
            "violations": [
                {
                    "instance": v.instance,
                    "expected_bound": v.expected_bound,
                    "observed_n": v.observed_n,
                }
                for v in self.violations
            ],
        }


@dataclass
class LemmaParams:
    """Instance-generation ranges; defaults are the documented ranges.

    L1a, L1b, L3, L4a, L4b and L5a enumerate tree classes on up to
    ``max_exhaustive_n`` persons, and L6s1 searches instances of up to that
    many persons; all seven ignore ``max_sampled_n`` and ``samples``.
    ``max_sampled_n`` is at most MAX_SAMPLED_N and ``max_prelim`` at most
    MAX_PRELIM.
    """

    max_exhaustive_n: int | None = None  # per-lemma default when None
    max_sampled_n: int = 8
    samples: int = 400
    max_prelim: int = 3
    seed: int = 0
    bound_slack: int = 0  # tighten the asserted inequality by this much

    def rng(self) -> random.Random:
        return random.Random(self.seed)


def check_lemma(lemma_id: str, params: LemmaParams | None = None) -> LemmaReport:
    """Run one lemma suite over its documented ranges."""
    if lemma_id not in LEMMA_IDS:
        raise ValidationError(f"unknown lemma id {lemma_id!r}; valid: {', '.join(LEMMA_IDS)}")
    params = params or LemmaParams()
    if params.samples < 0:
        raise ValidationError(f"samples must be >= 0, got {params.samples}")
    if not 0 <= params.max_prelim <= MAX_PRELIM:
        raise ValidationError(
            f"max_prelim must be in [0, {MAX_PRELIM}], got {params.max_prelim}"
        )
    if not 2 <= params.max_sampled_n <= MAX_SAMPLED_N:
        raise ValidationError(
            f"max_sampled_n must be in [2, {MAX_SAMPLED_N}], got {params.max_sampled_n}"
        )
    top = params.max_exhaustive_n
    if lemma_id in _SIZES and top is not None:
        low, high, _ = _SIZES[lemma_id]
        if not low <= top <= high:
            raise ValidationError(
                f"{lemma_id} needs {low} <= max_exhaustive_n <= {high}, got {top}"
            )
    return _report(lemma_id, _CHECKERS[lemma_id](params))


# ---------------------------------------------------------------------------
# shared machinery
# ---------------------------------------------------------------------------

def _aw(n: int, pairs) -> list[int]:
    return [x.bit_count() for x in run_calls([1 << p for p in range(n)], pairs)]


def _tree_classes(params: LemmaParams, lemma_id: str, k: int = 1, spare: int = 0):
    """(m, pairs): one scheme per class of ``informing_tree_classes(m, k, spare)``.

    m runs from 2 to the suite's ``max_exhaustive_n`` (default in
    _SIZES).  A class is a tree's final state up to joint relabeling of
    persons and gossips; with k = 1 every tree is in one.  L1a and L1b read
    only the awareness profile, and L3 the outcome of preliminary calls run
    before the tree, which relabels with the final state (see
    _check_tree_prelim), so one member per class checks them all.
    """
    for m in range(2, (params.max_exhaustive_n or _SIZES[lemma_id][2]) + 1):
        for pairs in informing_tree_classes(m, k, spare):
            yield m, pairs


def _unicyclic_schemes(params: LemmaParams, exhaustive_to: int = 4):
    """(n, pairs) for unicyclic schemes on 2 to min(max_sampled_n, 8) persons."""
    for n in range(2, min(params.max_sampled_n, SCHEME_SIZE_LIMIT) + 1):
        limit = None if n <= exhaustive_to else params.samples
        stream = enumerate_unicyclic_schemes(n, limit=limit, seed=params.seed)
        for s in stream.schedules:
            yield n, s.calls


@functools.lru_cache(maxsize=None)
def _matching_count(n: int, size: int) -> int:
    """How many unions of ``size`` disjoint edges n persons have.

    Tabled: ``_matching_at`` asks for the same few values at every level of
    every unranking.
    """
    if 2 * size > n:
        return 0
    return math.factorial(n) // (
        2**size * math.factorial(size) * math.factorial(n - 2 * size)
    )


def _matching_at(n: int, size: int, idx: int) -> tuple:
    """The idx-th union of ``size`` disjoint edges on n persons.

    Matchings are ordered as ``itertools.combinations`` orders them over the
    sorted pairs.  The pairs of a matching have distinct smaller ends, and a
    matching whose first pair is (a, b) uses only persons above a apart
    from b in its other pairs.  Each (a, b) thus heads a block of
    ``_matching_count(persons above a - 1, size - 1)`` matchings.  Skipping
    whole blocks and recursing on the persons left unranks idx.
    """
    free = list(range(n))
    out = []
    for left in range(size, 0, -1):
        x = 0
        while True:
            rest = len(free) - x - 2  # persons above free[x], apart from its partner
            block = _matching_count(rest, left - 1)
            if idx < (rest + 1) * block:
                break
            idx -= (rest + 1) * block
            x += 1
        y = x + 1 + idx // block
        idx %= block
        out.append((free[x], free[y]))
        free = free[x + 1 : y] + free[y + 1 :]
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _all_matchings(n: int, size: int) -> tuple:
    """Every union of ``size`` disjoint edges on n persons, as tuples of pairs.

    The order is that of ``itertools.combinations`` over the sorted pairs,
    listed by unranking each index in turn, so the cost follows the output.
    """
    return tuple(_matching_at(n, size, i) for i in range(_matching_count(n, size)))


def _drawn_matchings(n: int, size: int, rng: random.Random, cap: float = 48):
    """Indices, in the order of ``_all_matchings``, of the matchings _matchings yields.

    All of them while there are at most ``cap``, else ``cap`` drawn by one
    ``rng.sample`` over the whole index range, so the seeded stream, and
    hence every suite's instances, match an enumeration that lists every
    matching and samples from the list.
    """
    count = _matching_count(n, size)
    return range(count) if count <= cap else rng.sample(range(count), cap)


def _matchings(n: int, size: int, rng: random.Random, cap: float = 48):
    """Preliminary graphs that are unions of ``size`` disjoint edges.

    Exhaustive while there are at most ``cap`` of them, else ``cap`` sampled
    by index (_drawn_matchings), so larger sets are never listed.
    """
    drawn = _drawn_matchings(n, size, rng, cap)
    if isinstance(drawn, range):
        yield from map(list, _all_matchings(n, size))
    else:
        for idx in drawn:
            yield list(_matching_at(n, size, idx))


def _prelim_lists(n: int, size: int, rng: random.Random, general_samples: int = 10,
                  cap: float = 48, build: bool = True):
    """Preliminary call lists: disjoint-edge matchings first, then denser samples.

    ``cap`` is _matchings's: with ``math.inf`` every matching is listed.
    Without ``build`` each list is drawn but not built: it comes out as
    None, and the seeded stream moves on exactly as if it had been built.
    """
    if size == 0:
        yield [] if build else None
        return
    if build:
        yield from _matchings(n, size, rng, cap)
    else:
        yield from itertools.repeat(None, len(_drawn_matchings(n, size, rng, cap)))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    if size >= 2 and len(pairs) >= 2:
        for _ in range(general_samples):
            drawn = [rng.randrange(len(pairs)) for _ in range(size)]
            yield [pairs[j] for j in drawn] if build else None


def _describe(n: int, pairs, prelim=None, **extra) -> dict:
    d = {"n": n, "calls": [list(p) for p in pairs]}
    if prelim is not None:
        d["preliminary"] = [list(p) for p in prelim]
    d.update(extra)
    return d


# ---------------------------------------------------------------------------
# the ten suites
# ---------------------------------------------------------------------------

# the outcome of a candidate that a search cut by its budget left undecided
_UNDECIDED = object()


def _report(lemma_id: str, outcomes) -> LemmaReport:
    """The report of a suite, from one outcome per candidate it generated.

    An outcome is None for a candidate that misses the lemma's hypotheses,
    _UNDECIDED for one its search could not decide, else (coverage key, a
    Violation or a falsy value).  L2's key is None, which leaves its
    coverage empty.
    """
    start = time.perf_counter()
    generated = checked = undecided = 0
    violations = []
    coverage = Counter()
    for outcome in outcomes:
        generated += 1
        if outcome is None:
            continue
        if outcome is _UNDECIDED:
            undecided += 1
            continue
        key, violation = outcome
        checked += 1
        if key is not None:
            coverage[key] += 1
        if violation:
            violations.append(violation)
    return LemmaReport(lemma_id, checked, violations, generated, coverage,
                       generated - checked - undecided, undecided,
                       time.perf_counter() - start)


def _check_l1a(params: LemmaParams):
    """k-informing tree on n persons implies n >= 2^(k-1)."""
    for n, pairs in _tree_classes(params, "L1a"):
        kmax = min(_aw(n, pairs))
        bound = (1 << (kmax - 1)) + params.bound_slack
        yield (n, kmax, 0), n < bound and Violation(_describe(n, pairs, k=kmax), bound, n)


def _check_l1b(params: LemmaParams):
    """Tree with one kp-informed person and the rest k-informed: size bound."""
    for n, pairs in _tree_classes(params, "L1b"):
        aw = _aw(n, pairs)
        kp = min(aw)
        weakest = aw.index(kp)
        k = min(a for p, a in enumerate(aw) if p != weakest)
        bound = lemma1b_bound(k, kp) + params.bound_slack
        yield (n, k, 0), n < bound and Violation(_describe(n, pairs, k=k, kp=kp), bound, n)


def _check_l1c(params: LemmaParams):
    """Unicyclic k-informing scheme (k >= 4) has at least 2^(k-2) vertices."""
    for n, pairs in _unicyclic_schemes(params):
        kmax = min(_aw(n, pairs))
        if kmax < 4:
            yield None
            continue
        bound = (1 << (kmax - 2)) + params.bound_slack
        yield (n, kmax, 0), n < bound and Violation(_describe(n, pairs, k=kmax), bound, n)


def _check_l2(params: LemmaParams):
    """Appending ell preliminary calls raises nobody's awareness by more than ell."""
    rng = params.rng()

    def judge(n: int, base, before, prelim):
        after = _aw(n, list(prelim) + list(base))
        allowed = len(prelim) - params.bound_slack
        gain = max(b - a for a, b in zip(before, after))
        return None, gain > allowed and Violation(
            _describe(n, base, prelim, max_gain=gain), allowed, gain
        )

    # exhaustive small box: every schedule and every preliminary list of up
    # to min(2, max_prelim) calls; with max_prelim = 0 only the empty list
    ells = range(1, min(2, params.max_prelim) + 1) if params.max_prelim else (0,)
    for n, max_len in ((3, 4), (4, 4)):
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        for length in range(0, max_len + 1):
            for base in itertools.product(pairs, repeat=length):
                before = _aw(n, base)
                for ell in ells:
                    for prelim in itertools.product(pairs, repeat=ell):
                        yield judge(n, base, before, prelim)
    # sampled larger instances; they need n >= 5 and at least one preliminary call
    if params.max_sampled_n >= 5 and params.max_prelim >= 1:
        for _ in range(params.samples):
            n = rng.randrange(5, params.max_sampled_n + 1)
            pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
            base = [pairs[rng.randrange(len(pairs))] for _ in range(rng.randrange(0, 9))]
            ell = rng.randrange(1, params.max_prelim + 1)
            prelim = [pairs[rng.randrange(len(pairs))] for _ in range(ell)]
            yield judge(n, base, _aw(n, base), prelim)


def _exact_k_trees(params: LemmaParams):
    """Exact k-informing trees (k >= 3, n > k), one per final-state class."""
    for n, pairs in _tree_classes(params, "L3"):
        aw = _aw(n, pairs)
        k = aw[0]
        if k >= 3 and n > k and all(a == k for a in aw):
            yield n, k, pairs


def _check_l3(params: LemmaParams):
    """Exact k-informing tree lifted to all (k+ell)-informed: n >= 2^(k-1)+ell-1.

    Every disjoint-edge matching is tried: few exact trees exist, and a
    sample misses the rare lifting pairs (two calls lift a 10-person exact
    4-informing tree to 6).
    """
    rng = params.rng()
    for n, k, base in _exact_k_trees(params):
        for ell in range(1, params.max_prelim + 1):
            for prelim in _prelim_lists(n, ell, rng, cap=math.inf):
                if min(_aw(n, list(prelim) + list(base))) < k + ell:
                    yield None  # hypothesis not satisfied
                    continue
                bound = (1 << (k - 1)) + ell - 1 + params.bound_slack
                yield (n, k + ell, ell), n < bound and Violation(
                    _describe(n, base, prelim, k=k, ell=ell), bound, n
                )


def _judge_prelim_bound(params: LemmaParams, n: int, k: int, shift: int, m: int, base, prelim):
    """Outcome of n >= t_{i-1+shift}(k), where i preliminary calls precede ``base``.

    The hypotheses are k >= 4, i <= k - 4 and n >= k.  A violation names the
    instance as ``m`` persons running ``prelim`` then ``base``.
    """
    i = len(prelim)
    if k < 4 or i > k - 4 or n < k:
        return None
    bound = t_value(i - 1 + shift, k) + params.bound_slack
    return (n, k, i), n < bound and Violation(_describe(m, base, prelim, k=k, i=i), bound, n)


# (outsiders, spare) of the tree suites with preliminary calls
_TREE_PRELIM = {"L4a": (0, 0), "L4b": (2, 0), "L5a": (1, 1)}


def _check_tree_prelim(params: LemmaParams, lemma_id: str):
    """Tree plus i preliminary calls: n >= t_{i-1+spare}(k).

    k is the (spare+1)-th smallest awareness on the tree's own persons, so
    L5a (spare 1) lets one of them stay below k.  L4a keeps every
    preliminary call inside the tree; L4b and L5a let them touch outsiders,
    counted in n.  The trees are one scheme per class of ``informing_tree_classes(m, 4,
    spare)`` (_tree_classes).  No tree outside those classes can meet the
    hypotheses, and no class member would add a different instance:

    1. The tree's calls run after the preliminary calls, so person v ends
       with the OR of P[u] over the gossips u in T[v], where P is the state
       after the preliminary calls and T the tree's own final state.  The
       outcome therefore depends only on T, and relabeling T jointly with
       the preliminary calls relabels the outcome.
    2. i preliminary calls raise nobody's awareness by more than i (the L2
       component argument).  So a tree whose own minimum awareness (with
       ``spare`` = 1, its second smallest) is below 4 can never end with
       k >= 4 + i.

    The tree lives on persons [0, m); preliminary calls may touch up to
    ``outsiders`` extra persons and must use exactly o of them, so outsider
    counts are not re-checked.  n counts the tree's persons plus the o
    outsiders.
    """
    outsiders, spare = _TREE_PRELIM[lemma_id]
    rng = params.rng()
    for m, tree in _tree_classes(params, lemma_id, 4, spare):
        with_prelims = (
            (m + o, prelim)
            for o in range(0, outsiders + 1)
            for ell in range(max(1, o), params.max_prelim + 1)
            for prelim in _prelim_lists(m + o, ell, rng)
            if len({v for p in prelim for v in p if v >= m}) == o
        )
        for n, prelim in itertools.chain(with_prelims, [(m, [])]):  # then i = 0
            k = sorted(_aw(n, list(prelim) + list(tree))[:m])[spare]
            yield _judge_prelim_bound(params, n, k, spare, m, tree, prelim)


def _check_l5b(params: LemmaParams):
    """Unicyclic scheme whose vertices all end k-informed after i prelims: n >= t_i(k).

    That is the tree suites' bound with one cycle in place of one spare person.
    A scheme whose own minimum awareness is below 4 can never end with
    k >= 4 + i (point 2 of _check_tree_prelim), so its candidates are
    rejected unsimulated; like those with i > m - 4, they are still drawn
    but never built, which keeps the seeded stream and ``generated`` as if
    each were judged.
    """
    rng = params.rng()
    for m, pairs in _unicyclic_schemes(params):
        low = min(_aw(m, pairs)) < 4
        for i in range(0, params.max_prelim + 1):
            judged = not low and i <= m - 4  # i > m - 4 >= k - 4 fails
            for prelim in _prelim_lists(m, i, rng, general_samples=5, build=judged):
                if not judged:
                    yield None
                    continue
                k = min(_aw(m, list(prelim) + list(pairs)))
                yield _judge_prelim_bound(params, m, k, 1, m, pairs, prelim)


def _check_l6s1(params: LemmaParams):
    """With n <= t_{i-1}(k)-1, any i+j calls leave at most j persons k-informed.

    Put another way, m = j+1 persons k-informed take at least m+i calls, for
    j = 1, ..., n-1.  One search for m persons per (n, k, m), as deep as the
    largest i needs, decides that fact for every i: it fails when the search
    finds a schedule of at most m + i - 1 + bound_slack calls, and holds once
    the search refuted that depth.  A timed-out search leaves the facts past
    its refuted depth undecided, counted as such, never as proved.
    """
    slack, top = params.bound_slack, params.max_exhaustive_n or _SIZES["L6s1"][2]
    for k in (4, 5, 6):
        for n in range(k, min(top, t_value(-1, k) - 1) + 1):  # i = 0 is always a band
            bands = [i for i in range(0, min(k - 4, params.max_prelim) + 1)
                     if n <= t_value(i - 1, k) - 1]
            for m in range(2, n + 1):
                cfg = SearchConfig(max_depth=max(0, m + bands[-1] - 1 + slack))
                result = min_calls_bruteforce(n, k, cfg, goal=m)
                for i in bands:
                    depth = m + i - 1 + slack
                    if result.min_calls is not None and result.min_calls <= depth:
                        calls, j = result.witness.calls, result.min_calls - i
                        informed = sum(1 for a in _aw(n, calls) if a >= k)
                        yield (n, k, i), Violation(_describe(
                            n, calls, k=k, i=i, j=j, informed=informed), j - slack, informed)
                    else:
                        yield ((n, k, i), None) if result.refuted_depth >= depth else _UNDECIDED


_CHECKERS = {
    "L1a": _check_l1a,
    "L1b": _check_l1b,
    "L1c": _check_l1c,
    "L2": _check_l2,
    "L3": _check_l3,
    **{lid: functools.partial(_check_tree_prelim, lemma_id=lid) for lid in _TREE_PRELIM},
    "L5b": _check_l5b,
    "L6s1": _check_l6s1,
}
