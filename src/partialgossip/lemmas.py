"""Empirical verification harnesses for the structural lower-bound lemmas.

Each suite enumerates candidate communication schemes (isomorph-free
classes of trees and unicyclic schemes, or L2's call sequences) and yields
one outcome per candidate: None when it misses the lemma's hypotheses,
else the checked instance's coverage key and a violation of the lemma's
conclusion or nothing.  One loop, _report, turns any suite's outcomes into
its LemmaReport, so violations are reported instead of raised.  The
harness can be pointed at a deliberately falsified bound (``bound_slack``)
to prove it is able to fail.

L1a and L1c are one statement: a k-informing scheme with c cycles has at
least 2^(k-1-c) persons, c = 0 for trees and 1 for unicyclic schemes.  One
checker runs both from the table _SIZE_BOUND.  L4a, L4b, L5a and L5b are
one statement with a moving bound index: a scheme plus i preliminary calls
has n >= t_{i-1+spare+cycles}(k), with k the (spare+1)-th smallest
awareness on the scheme's own persons.  One checker runs all four from the
table _TREE_PRELIM of (outsiders, spare, cycles): the trees of L4a (0, 0,
0), L4b (2, 0, 0) and L5a (1, 1, 0), and the unicyclic schemes of L5b (0,
0, 1), whose one cycle takes the place of L5a's spare person.

Documented instance ranges (defaults in LemmaParams):

* tree schemes for L1a, L1b and the exact-tree filter of L3: every class of
  tree schemes on m persons, m in {2, ..., 8}, up to joint relabeling of the
  final state (1,254 classes; 49, 204 and 984 of them for m = 6, 7, 8).
  Their outcome depends only on that class (see _tree_classes).  L1a adds
  the minimal informing tree of each k past them up to SHARP_TREE_K = 8;
* tree schemes for L4a, L4b and L5a: every class of tree schemes on m
  persons, up to joint relabeling of the final state, that leaves everyone
  (L4a, L4b: m <= 10) or everyone but one person (L5a: m <= 9) knowing at
  least 4 gossips; no other tree can meet their hypotheses (see
  _check_tree_prelim).  That is 1, 4 and 25 classes for m = 8, 9, 10 and
  1, 4, 17, 67 and 257 for m = 5, ..., 9, and none below;
* the six tree suites take their largest m from ``max_exhaustive_n``,
  within _SIZES (L1a, L1b: 2..10; L3: 4..10; L4a, L4b: 8..11; L5a:
  5..11); ``max_sampled_n`` and ``samples`` do not apply to them;
* unicyclic schemes for L1c and L5b: every class of unicyclic schemes on
  m in {4, ..., min(max_sampled_n, SCHEME_SIZE_LIMIT = 8)} persons
  (max_sampled_n >= 4), up to joint relabeling of the final state, that
  leaves everyone knowing at least 4 gossips (1, 2, 16, 78 and 427 for
  m = 4, ..., 8); no other unicyclic scheme can meet their hypotheses;
* preliminary-call counts: up to ``max_prelim`` (default 3, at most
  MAX_PRELIM = 9), and in L4a, L4b, L5a and L5b at most n - 4 on n
  persons.  One source, _list_source, draws every preliminary list.
  Unions of disjoint edges (single calls included) are listed in full
  for L3's exact trees, and elsewhere while a given (n, size) has at most
  48 of them; above that, 48 are sampled per scheme.  They are read from
  one table per (n, size) (_matching_table) and judged without a
  simulation (_prelim_outcomes).  Denser lists are sampled, 10 per scheme
  and size, and simulated.  The lists of each (outsiders, size) come from
  their own seeded stream, so a larger ``max_prelim`` adds instances and
  moves none.  L3 lifts by at least one call, so it needs max_prelim >= 1;
* L2: an exhaustive box over n in {3, 4}, up to 4 base calls and
  ell <= min(2, max_prelim) preliminary calls (only ell = 0 when
  max_prelim is 0), plus ``samples`` random instances on 5..max_sampled_n
  persons when max_sampled_n >= 5 and max_prelim >= 1.  The box judges
  each (base final state, preliminary list) once;
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
from typing import NamedTuple

from .constructions import minimal_informing_tree
from .core import ValidationError, _Record, run_calls
from .formulas import lemma1b_bound, t_value
from .oracle import SearchConfig, _pair_tables, informing_tree_classes, min_calls_bruteforce

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
# universe for each sample
MAX_SAMPLED_N = 30

# largest size of the unicyclic scheme classes that L1c and L5b check (see
# _check_size_bound)
SCHEME_SIZE_LIMIT = 8

# largest max_prelim accepted: no suite but L2 can check more preliminary
# calls.  L3 needs ell <= n - 3 and the others i <= k - 4 <= n - 4, and the
# largest universe is 11 tree persons plus 2 outsiders (L4b).  Above it L3
# would only draw lists it cannot check, at a cost that grows with
# max_prelim; the other suites draw none past n - 4.
MAX_PRELIM = 9


class Violation(NamedTuple):
    instance: dict
    expected_bound: int
    observed_n: int


class LemmaReport(_Record):
    __slots__ = ("lemma_id", "instances_checked", "violations", "generated", "coverage",
                 "rejected", "undecided", "elapsed")

    def __init__(
        self,
        lemma_id: str,
        instances_checked: int,
        violations: list[Violation],
        # candidates evaluated before the hypothesis filter; not part of the JSON
        generated: int = 0,
        # checked instances per (n, k, i): persons, the k the instance was
        # checked at and its preliminary calls (0 without any); empty for L2,
        # whose hypothesis names no k; not part of the JSON.  None: a new Counter
        coverage: Counter | None = None,
        # candidates that missed the hypotheses:
        # generated - instances_checked - undecided
        rejected: int = 0,
        # candidates a budget-cut search left neither proved nor refuted (L6s1)
        undecided: int = 0,
        # seconds the suite took to generate and judge its candidates; not
        # compared by ==
        elapsed: float = 0.0,
    ):
        self.lemma_id = lemma_id
        self.instances_checked = instances_checked
        self.violations = violations
        self.generated = generated
        self.coverage = Counter() if coverage is None else coverage
        self.rejected = rejected
        self.undecided = undecided
        self.elapsed = elapsed

    def _key(self) -> tuple:  # every slot but the last, elapsed
        return super()._key()[:-1]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "lemma": self.lemma_id,
            "checked": self.instances_checked,
            "violations": [v._asdict() for v in self.violations],
        }


class LemmaParams(_Record):
    """Instance-generation ranges; defaults are the documented ranges.

    L1a, L1b, L3, L4a, L4b and L5a enumerate tree classes on up to
    ``max_exhaustive_n`` persons, and L6s1 searches instances of up to that
    many persons.  L1c and L5b list the unicyclic scheme classes on 4 to
    min(``max_sampled_n``, SCHEME_SIZE_LIMIT) persons, and L2 draws
    ``samples`` random instances on 5 to ``max_sampled_n``.  ``seed`` seeds
    L2 and the preliminary lists of L3, L4a, L4b, L5a and L5b.
    ``max_sampled_n`` is at most MAX_SAMPLED_N, ``max_prelim`` MAX_PRELIM.
    """

    __slots__ = ("max_exhaustive_n", "max_sampled_n", "samples", "max_prelim", "seed",
                 "bound_slack")

    def __init__(
        self,
        max_exhaustive_n: int | None = None,  # per-lemma default when None
        max_sampled_n: int = 8,
        samples: int = 400,
        max_prelim: int = 3,
        seed: int = 0,
        bound_slack: int = 0,  # tighten the asserted inequality by this much, >= 0
    ):
        self.max_exhaustive_n = max_exhaustive_n
        self.max_sampled_n = max_sampled_n
        self.samples = samples
        self.max_prelim = max_prelim
        self.seed = seed
        self.bound_slack = bound_slack


def check_lemma(lemma_id: str, params: LemmaParams | None = None) -> LemmaReport:
    """Run one lemma suite over its documented ranges."""
    if lemma_id not in LEMMA_IDS:
        raise ValidationError(f"unknown lemma id {lemma_id!r}; valid: {', '.join(LEMMA_IDS)}")
    params = params or LemmaParams()
    for name in ("samples", "bound_slack"):  # a negative slack loosens every bound
        if getattr(params, name) < 0:
            raise ValidationError(f"{name} must be >= 0, got {getattr(params, name)}")
    if not 0 <= params.max_prelim <= MAX_PRELIM:
        raise ValidationError(f"max_prelim must be in [0, {MAX_PRELIM}], got {params.max_prelim}")
    if lemma_id == "L3" and params.max_prelim < 1:
        # L3 lifts an exact tree by ell >= 1 preliminary calls
        raise ValidationError(f"L3 needs max_prelim >= 1, got {params.max_prelim}")
    if not 2 <= params.max_sampled_n <= MAX_SAMPLED_N:
        raise ValidationError(
            f"max_sampled_n must be in [2, {MAX_SAMPLED_N}], got {params.max_sampled_n}"
        )
    if lemma_id in ("L1c", "L5b") and params.max_sampled_n < 4:
        # no unicyclic scheme on fewer than 4 persons leaves everyone 4-informed
        raise ValidationError(f"{lemma_id} needs max_sampled_n >= 4, got {params.max_sampled_n}")
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


def _tree_classes(params: LemmaParams, lemma_id: str, k: int = 1, spare: int = 0,
                  cycles: int = 0):
    """(m, pairs): one scheme per class of ``informing_tree_classes(m, k, spare, cycles)``.

    m runs from 2 to the suite's ``max_exhaustive_n`` (default in _SIZES)
    for trees, and from 4 to min(``max_sampled_n``, SCHEME_SIZE_LIMIT) for
    unicyclic schemes (``cycles`` = 1).  A class is a scheme's final state
    up to joint relabeling of persons and gossips; with k = 1 every tree is
    in one.  L1a, L1b and L1c read only the awareness profile, and the
    other suites the outcome of preliminary calls run before the scheme,
    which relabels with the final state (see _check_tree_prelim), so one
    member per class checks them all.
    """
    if cycles:
        sizes = range(4, min(params.max_sampled_n, SCHEME_SIZE_LIMIT) + 1)
    else:
        sizes = range(2, (params.max_exhaustive_n or _SIZES[lemma_id][2]) + 1)
    for m in sizes:
        for pairs in informing_tree_classes(m, k, spare, cycles):
            yield m, pairs


@functools.cache
def _matching_table(n: int, size: int) -> bytes:
    """Every union of ``size`` disjoint edges on n <= 23 persons, ``size`` bytes each.

    A byte is an index into the pairs of _pair_tables(n), and the matchings
    come in the order of ``itertools.combinations`` over the sorted pairs.
    The pairs of a matching have distinct smaller ends, and a matching
    whose first pair is (a, b) is completed by a matching of size - 1 on
    the n - a - 2 persons above a apart from b.  So each (a, b) heads a
    block read from the (n - a - 2, size - 1) table, relabeled by one
    ``bytes.translate``, and only tables with entries are built: the cost
    follows the output.  Size 0 is the empty table; its one matching is
    the empty list.
    """
    if size <= 1:
        return bytes(range(len(_pair_tables(n)[0]))) if size else b""
    index = {p: j for j, p in enumerate(_pair_tables(n)[0])}
    out = bytearray()
    for a in range(n - 2 * size + 1):
        rest = _matching_table(n - a - 2, size - 1)
        count = len(rest) // (size - 1)
        for b in range(a + 1, n):
            free = [p for p in range(a + 1, n) if p != b]
            relabel = bytes(index[free[x], free[y]] for x, y in _pair_tables(n - a - 2)[0])
            moved = rest.translate(relabel.ljust(256, b"\0"))
            block = bytearray(count * size)
            block[::size] = bytes((index[a, b],)) * count
            for j in range(1, size):
                block[j::size] = moved[j - 1 :: size - 1]
            out += block
    return bytes(out)


def _list_source(params: LemmaParams):
    """``lists(n, o, size, cap)``: the preliminary call lists a suite tries.

    Each list is ``size`` indices into _pair_tables(n)[0], as bytes; they
    come as (matchings, dense).  The matchings, unions of disjoint edges,
    are read from _matching_table: every one while there are at most
    ``cap`` of them, else ``cap`` drawn by one ``rng.sample`` over their
    indices.  The dense lists, from two calls up, are 10 drawn call by
    call.  Only the lists that touch all ``o`` outsiders, the last o
    persons, are returned.  Each (o, size) draws from its own seeded stream.
    """
    streams = functools.cache(lambda o, size: random.Random(f"{params.seed}:{o}:{size}"))

    def lists(n: int, o: int, size: int, cap: float = 48):
        rng, pairs = streams(o, size), _pair_tables(n)[0]
        matchings, dense = [b""], []  # size 0: the empty list
        if size:
            table = _matching_table(n, size)
            count = len(table) // size
            picks = range(count) if count <= cap else rng.sample(range(count), cap)
            matchings = [table[i * size : (i + 1) * size] for i in picks]
        if size >= 2 and len(pairs) >= 2:
            dense = [bytes([rng.randrange(len(pairs)) for _ in range(size)]) for _ in range(10)]
        if o:
            def touching(x):
                return len({v for j in x for v in pairs[j] if v >= n - o}) == o

            matchings, dense = list(filter(touching, matchings)), list(filter(touching, dense))
        return matchings, dense

    return lists


def _crossings(own: list[int], n: int) -> tuple[int, list[int]]:
    """(base, cross): awareness after a matching on n persons, then a scheme, as 5-bit lanes.

    ``own`` is the scheme's own final state T on its persons [0, m).  A
    matching's calls share no person, so (point 1 of _check_tree_prelim)
    person v ends knowing |T[v]| gossips plus one per call with exactly one
    end in T[v]: lane v of base plus cross[j] for each pair j of the matching.
    """
    spread = [sum(1 << 5 * v for v, x in enumerate(own) if x >> a & 1) for a in range(n)]
    return (sum(x.bit_count() << 5 * v for v, x in enumerate(own)),
            [spread[a] ^ spread[b] for a, b in _pair_tables(n)[0]])


def _prelim_outcomes(lists, scheme, m: int, n: int, ells, least: int, spare: int = 0,
                     cap: float = 48):
    """(ell, prelim, k) per list of ``lists(n, n - m, ell, cap)`` run before ``scheme``.

    k is the (spare+1)-th smallest awareness on the scheme's persons [0, m)
    of n; k and prelim are None when k < least + ell.  Dense lists are
    simulated and matchings judged by _crossings.  A lane holds at most n
    gossips; with 0 <= 16 - goal and n + 16 - goal < 32 the bias 16 - goal
    sets its top bit exactly when it reaches the goal, and no lane borrows
    or carries.  Only the lists that pass are decoded.
    """
    pairs, shifts = _pair_tables(n)[0], range(0, 5 * m, 5)
    base, cross = _crossings(run_calls([1 << p for p in range(m)], scheme), n)
    ones = sum(1 << s for s in shifts)
    for ell in ells:
        goal = least + ell
        bias, top = (16 - goal) * ones, ones << 4
        matchings, dense = lists(n, n - m, ell, cap=cap)
        for x in matchings:
            lanes = sum(map(cross.__getitem__, x), base)
            if ((lanes + bias) & top).bit_count() < m - spare:
                yield ell, None, None
            else:
                k = sorted([lanes >> s & 31 for s in shifts])[spare]
                yield ell, [pairs[j] for j in x], k
        for x in dense:
            prelim = [pairs[j] for j in x]
            final = run_calls(run_calls([1 << p for p in range(n)], prelim), scheme)
            k = sorted([row.bit_count() for row in final[:m]])[spare]
            yield (ell, prelim, k) if k >= goal else (ell, None, None)


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


# (least k, cycles) of the scheme classes that L1a and L1c check
_SIZE_BOUND = {"L1a": (1, 0), "L1c": (4, 1)}
SHARP_TREE_K = 8  # largest k of the minimal informing trees L1a adds to its classes


def _check_size_bound(params: LemmaParams, lemma_id: str):
    """k-informing scheme with c cycles on n persons implies n >= 2^(k-1-c).

    L1a checks every tree class (c = 0), then minimal_informing_tree(k),
    which meets the bound with equality, for the k past its classes up to
    SHARP_TREE_K.  L1c (c = 1) checks every class of unicyclic schemes
    leaving everyone 4-informed: no other meets k >= 4.  The 2,105 classes
    of m = 9 would take about 2.4 s more, so SCHEME_SIZE_LIMIT stops at 8.
    """
    least, cycles = _SIZE_BOUND[lemma_id]
    schemes = _tree_classes(params, lemma_id, least, 0, cycles)
    if not cycles:
        past = (params.max_exhaustive_n or _SIZES[lemma_id][2]).bit_length() + 1
        sharp = map(minimal_informing_tree, range(past, SHARP_TREE_K + 1))
        schemes = itertools.chain(schemes, ((s.n, s.calls) for s in sharp))
    for n, pairs in schemes:
        k = min(_aw(n, pairs))
        bound = (1 << (k - 1 - cycles)) + params.bound_slack
        yield (n, k, 0), n < bound and Violation(_describe(n, pairs, k=k), bound, n)


def _check_l1b(params: LemmaParams):
    """Tree with one kp-informed person and the rest k-informed: size bound."""
    for n, pairs in _tree_classes(params, "L1b"):
        aw = _aw(n, pairs)
        kp = min(aw)
        weakest = aw.index(kp)
        k = min(a for p, a in enumerate(aw) if p != weakest)
        bound = lemma1b_bound(k, kp) + params.bound_slack
        yield (n, k, 0), n < bound and Violation(_describe(n, pairs, k=k, kp=kp), bound, n)


def _check_l2(params: LemmaParams):
    """Appending ell preliminary calls raises nobody's awareness by more than ell.

    The gain depends only on the base's final state and the preliminary
    list (point 1 of _check_tree_prelim), so the box judges each such pair
    once, on the first base that reaches the state.  Every candidate still
    yields its outcome, and a violation names its own base.
    """
    rng = random.Random(params.seed)

    def gain_of(ident, base, before, prelim):
        after = run_calls(run_calls(ident.copy(), prelim), base)
        return max(b.bit_count() - a for a, b in zip(before, after))

    def judge(n: int, base, prelim, gain):
        allowed = len(prelim) - params.bound_slack
        return None, gain > allowed and Violation(
            _describe(n, base, prelim, max_gain=gain), allowed, gain
        )

    # exhaustive small box: every schedule and every preliminary list of up
    # to min(2, max_prelim) calls; with max_prelim = 0 only the empty list
    ells = range(1, min(2, params.max_prelim) + 1) if params.max_prelim else (0,)
    for n, max_len in ((3, 4), (4, 4)):
        ident = [1 << p for p in range(n)]
        pairs = _pair_tables(n)[0]
        prelims = [prelim for ell in ells for prelim in itertools.product(pairs, repeat=ell)]
        gains = {}  # base final state -> the gain of each preliminary list
        for length in range(0, max_len + 1):
            for base in itertools.product(pairs, repeat=length):
                final = tuple(run_calls(ident.copy(), base))
                if final not in gains:
                    before = [x.bit_count() for x in final]
                    gains[final] = [gain_of(ident, base, before, p) for p in prelims]
                for prelim, gain in zip(prelims, gains[final]):
                    yield judge(n, base, prelim, gain)
    # sampled larger instances; they need n >= 5 and at least one preliminary call
    if params.max_sampled_n >= 5 and params.max_prelim >= 1:
        for _ in range(params.samples):
            n = rng.randrange(5, params.max_sampled_n + 1)
            pairs = _pair_tables(n)[0]
            base = [pairs[rng.randrange(len(pairs))] for _ in range(rng.randrange(0, 9))]
            ell = rng.randrange(1, params.max_prelim + 1)
            prelim = [pairs[rng.randrange(len(pairs))] for _ in range(ell)]
            ident = [1 << p for p in range(n)]
            before = [x.bit_count() for x in run_calls(ident.copy(), base)]
            yield judge(n, base, prelim, gain_of(ident, base, before, prelim))


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
    lists = _list_source(params)
    for n, k, base in _exact_k_trees(params):
        ells = range(1, params.max_prelim + 1)
        for ell, prelim, lifted in _prelim_outcomes(lists, base, n, n, ells, k, cap=math.inf):
            if lifted is None:
                yield None  # hypothesis not satisfied
                continue
            bound = (1 << (k - 1)) + ell - 1 + params.bound_slack
            yield (n, k + ell, ell), n < bound and Violation(
                _describe(n, base, prelim, k=k, ell=ell), bound, n)


# (outsiders, spare, cycles) of the scheme suites with preliminary calls
_TREE_PRELIM = {"L4a": (0, 0, 0), "L4b": (2, 0, 0), "L5a": (1, 1, 0), "L5b": (0, 0, 1)}


def _check_tree_prelim(params: LemmaParams, lemma_id: str):
    """Tree or unicyclic scheme plus i preliminary calls: n >= t_{i-1+spare+cycles}(k).

    k is the (spare+1)-th smallest awareness on the scheme's own persons, so
    L5a (spare 1) lets one of them stay below k, and L5b's cycle moves the
    bound index as that spare person does.  L4a and L5b keep every
    preliminary call inside the scheme; L4b and L5a let them touch
    outsiders, counted in n.  The schemes are one per class of
    ``informing_tree_classes(m, 4, spare, cycles)`` (_tree_classes).  No
    scheme outside those classes can meet the hypotheses, and no class
    member would add a different instance:

    1. The scheme's calls run after the preliminary calls, so person v ends
       with the OR of P[u] over the gossips u in T[v], where P is the state
       after the preliminary calls and T the scheme's own final state.  The
       outcome therefore depends only on T, and relabeling T jointly with
       the preliminary calls relabels the outcome.
    2. i preliminary calls raise nobody's awareness by more than i (the L2
       component argument).  So a scheme whose own minimum awareness (with
       ``spare`` = 1, its second smallest) is below 4 can never end with
       k >= 4 + i.
    3. The hypotheses i <= k - 4 and k <= n leave at most n - 4
       preliminary calls, so no longer list is drawn.

    The scheme lives on persons [0, m); preliminary calls may touch up to
    ``outsiders`` extra persons and must use exactly o of them, so outsider
    counts are not re-checked.  n counts the scheme's persons plus the o
    outsiders.
    """
    outsiders, spare, cycles = _TREE_PRELIM[lemma_id]
    lists = _list_source(params)
    for m, tree in _tree_classes(params, lemma_id, 4, spare, cycles):
        for n in range(m, m + outsiders + 1):
            # o = i = 0: the scheme alone; i <= k - 4 <= n - 4 (point 3)
            ells = range(n - m, min(params.max_prelim, n - 4) + 1)
            for i, prelim, k in _prelim_outcomes(lists, tree, m, n, ells, 4, spare):
                if k is None or n < k:  # else k >= 4 + i
                    yield None
                    continue
                bound = t_value(i - 1 + spare + cycles, k) + params.bound_slack
                yield (n, k, i), n < bound and Violation(
                    _describe(m, tree, prelim, k=k, i=i), bound, n)


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
    **{lid: functools.partial(_check_size_bound, lemma_id=lid) for lid in _SIZE_BOUND},
    "L1b": _check_l1b,
    "L2": _check_l2,
    "L3": _check_l3,
    **{lid: functools.partial(_check_tree_prelim, lemma_id=lid) for lid in _TREE_PRELIM},
    "L6s1": _check_l6s1,
}
