"""Ground-truth engines: exhaustive minimum-call search and scheme enumerators.

The searcher answers "what is the true minimum number of calls so that
``goal`` of the n persons (by default all) know at least k gossips" by
iterative-deepening DFS over raw knowledge states.  Soundness levers, each
relying on a goal invariant under relabeling that no extra call undoes:

* no-op pruning: a call between two persons with identical knowledge can be
  deleted from any sequence without changing the outcome, so no minimal
  sequence contains one;
* symmetry: persons are interchangeable only under a joint relabeling that
  permutes person indices and gossip bits together.  States equal under
  such a relabeling have identical reachable awareness profiles, so failure
  depths are memoized per canonical form.  The form is the smallest
  relabeling that keeps refined color cells in order.  Twins (two persons
  whose transposition is an automorphism of the state) are interchangeable
  without changing the relabeled state, so only arrangements of twin
  classes are tried; a state with more than _CANON_PERM_CAP arrangements
  gets one deterministic relabeling instead (counted as canon_inexact);
* an admissible lower bound on remaining calls (each call informs at most
  two of the persons the goal misses, and the maximum awareness can at
  most double per call).  A child's bound follows from its parent's counts
  and the two merged rows, so it is tested before the child state is built;
* orbit cuts (McKay, *Isomorph-free exhaustive generation*, J. Algorithms
  26, 1998): any permutation inside a twin class is an automorphism of the
  state, so two calls whose participants lie in the same unordered pair of
  twin classes give isomorphic children.  The twin partition comes from
  the canonical form's cells: color refinement is invariant under
  automorphisms, so twins share a color.  Only the first such call at a
  node is expanded; the others inherit its refutation, whether it was
  explored, cut by the bound or asleep;
* sleep sets (Godefroid, *Partial-Order Methods for the Verification of
  Concurrent Systems*, LNCS 1032, 1996): calls with no common participant
  commute.  A child skips the calls in its sleep set: its parent's sleep
  set plus the siblings refuted before it (explored, cut by the bound or
  orbit-cut), keeping those that share no participant with the child's
  call.  If state s refutes call t with r calls left and c commutes with
  t, then s.c.t = s.t.c cannot finish within r - 2 either.  Calls skipped
  as no-ops never join a sleep set;
* no keys near the leaves: a node with at most _UNKEYED_PLIES calls left
  gets no canonical form, so it has no memo lookup or store and no orbit
  cut, while its sleep set and the bound still apply.  There a key costs
  more than the memo and the orbit cut save.  Both only skip calls that
  provably cannot finish, so exploring those calls instead changes neither
  the answer nor the first call sequence found.

Every child cut by these levers provably cannot finish within the calls
left, so a memo entry stays a fact about its state alone.

Cost levers that change no answer, witness or counter:

* bound cuts counted by class mask: once someone knows k gossips a child's
  bound is ceil(child_below / 2), and a call lowers the count below k by 0,
  1 or 2.  So a node's slack says by the class of a call alone (between two
  persons below k, touching one, or any) whether it can pass the bound.  A
  node visits only the calls of that class that are neither no-ops, asleep
  nor orbit-cut, and counts the rest by popcount of their masks, as a
  visit in pair order would have counted them;
* refinement only of shared color cells: a person alone in its cell keeps
  its place in the order, so a round computes signatures only for the
  persons that share a cell;
* a bounded table of canonical forms per search (_FORM_CACHE): iterative
  deepening enters each keyed state again in the next pass, one ply deeper.

In the band regime the full goal skips the find pass (a partial goal gets
no candidate).  ``synth_doubling`` builds a candidate of n+i calls; if
simulation shows it is k-informing, the passes below its length are refuted
exhaustively and the candidate is the witness.  An extra call never removes
knowledge, so that proves the minimum; the closed form only picks the
candidate.  A candidate that is missing, fails the simulation or exceeds
``max_depth``, or a shallower pass that finds a schedule, leaves the search
as it would be without it, so a wrong formula can cost time but never give
a wrong number.  Without the candidate the search returns the first
feasible call sequence in pair order: the same witness as a search without
the cuts.

Exceeding the time budget yields a Timeout-style result carrying how far
the refutation got; it never yields a wrong number.
"""
from __future__ import annotations

import functools
import heapq
import itertools
import math
import random
import time
from dataclasses import dataclass, field
from typing import Iterator

from .constructions import synth_doubling
from .core import Schedule, ValidationError, is_k_informing, simulate
from .formulas import REGIME_BAND, classify_regime

FOUND = "found"
TIMEOUT = "timeout"
DEPTH_EXHAUSTED = "depth-exhausted"

# Nodes with at most this many calls left get no canonical form, memo entry
# or orbit cut (see the module docstring).  Median CPU seconds of five fresh
# processes per cut-off of 1, 2 and 3 plies, with bound-cut calls counted by
# class mask (2-vCPU VM, Python 3.11.7): the perfbench oracle_search
# instances 0.28/0.26/0.27, (12,4) 1.26/0.83/1.14, (11,6) 1.00/0.81/0.54.
# Three plies quadruple (12,4)'s nodes, whose find pass then loses.
_UNKEYED_PLIES = 2

# How many keyed states a search keeps the canonical form of, the first it
# meets: the shallow ones recur in every later pass.  The perfbench
# oracle_search instances' 4,239 canonical forms become 2,787 (no repeat
# left), (11,6)'s 13,470 become 11,070, for a few hundred bytes an entry.
_FORM_CACHE = 2048

# States whose color cells admit more twin-class arrangements than this are
# keyed by a single deterministic relabeling instead of the true minimum;
# that only costs memo hits, never correctness (any relabeling of a state
# identifies its equivalence class member).
_CANON_PERM_CAP = 1024


@dataclass
class SearchConfig:
    max_depth: int = 64
    time_budget: float = 600.0  # seconds
    memo_limit: int = 4_000_000  # about 390 bytes an entry at (10,7): 1.6 GB when full

    def __post_init__(self):
        if self.max_depth < 0:
            raise ValidationError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.memo_limit < 0:
            raise ValidationError(f"memo_limit must be >= 0, got {self.memo_limit}")
        if not self.time_budget > 0:  # also rejects NaN, which never times out
            raise ValidationError(f"time_budget must be > 0, got {self.time_budget}")


@dataclass
class SearchResult:
    status: str                 # FOUND | TIMEOUT | DEPTH_EXHAUSTED
    min_calls: int | None       # exact minimum when status == FOUND
    witness: Schedule | None    # a schedule attaining the minimum
    refuted_depth: int          # no schedule with <= this many calls exists (proven)
    nodes: int
    elapsed: float
    # per-search counters: memo_hits (states cut by the memo), memo_stores
    # (refuted states memoized), memo_refused (refuted states not memoized
    # because the memo held memo_limit entries), lb_prunes (states cut by
    # the lower bound), unkeyed (refuted states left without a key within
    # _UNKEYED_PLIES of the depth), orbit_cuts (calls skipped as isomorphic
    # to an earlier sibling), sleep_cuts (calls skipped by the sleep set),
    # canon_inexact (memo keys that fell back past _CANON_PERM_CAP),
    # find_nodes (nodes of the pass that found the witness; 0 when the
    # doubling schedule is it) and passes (one dict per depth searched: the
    # depth, then that pass's share of the nodes and of the counters before
    # find_nodes)
    stats: dict[str, int | list[dict[str, int]]] = field(default_factory=dict)

    @property
    def timed_out(self) -> bool:
        return self.status == TIMEOUT


class _BudgetExceeded(Exception):
    pass


# ---------------------------------------------------------------------------
# canonical forms under joint person/gossip relabeling
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1 << 16)  # every row of up to 16 persons
def _bits(x: int) -> tuple[int, ...]:
    """Indices of the set bits of x, ascending.

    Tabled: the rows and columns of searched states repeat across states.
    The table is bounded, since it outlives the search, and holds tuples,
    since every caller shares its results.
    """
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return tuple(out)


def _refine_colors(
    known: list[tuple[int, ...]], knowers: list[tuple[int, ...]]
) -> list[int]:
    """Partition persons by iterated structural signatures.

    ``known[p]`` lists the gossips p knows and ``knowers[p]`` the persons who
    know p's gossip.  The signature of p starts as how much p knows and how
    widely p's gossip is known, then (iterated) adds the colors of the
    gossips p knows and of the persons who know p.  Signatures are converted
    to ranks by sorting, so the resulting color vector is invariant under
    joint relabeling.  A round ranks persons by their old color first, so a
    cell only splits and a person alone in its cell keeps its place in the
    order: only persons in cells of two or more get a signature.  Refinement
    stops once a round splits no cell or every cell is a single person.
    """
    n = len(known)
    width = n.bit_length()  # fits n, the most a signature counts of anything
    # (len(known[p]), len(knowers[p])) as one integer, in the same order
    sigs = [len(known[p]) << width | len(knowers[p]) for p in range(n)]
    ranking = {s: r for r, s in enumerate(sorted(set(sigs)))}
    colors = [ranking[s] for s in sigs]
    cells: list[list[int]] = [[] for _ in ranking]
    for p, c in enumerate(colors):
        cells[c].append(p)
    while len(cells) < n:
        # a multiset of colors as one integer: equal exactly when the sorted
        # color tuples are, which then order the cells that do split
        weight = [1 << (width * c) for c in colors].__getitem__
        split: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                split.append(cell)
                continue
            groups: dict[tuple[int, int], list[int]] = {}
            for p in cell:
                sig = (sum(map(weight, known[p])), sum(map(weight, knowers[p])))
                groups.setdefault(sig, []).append(p)
            if len(groups) == 1:
                split.append(cell)
                continue
            color = colors.__getitem__
            order = sorted(
                (tuple(sorted(map(color, known[group[0]]))),
                 tuple(sorted(map(color, knowers[group[0]]))), group)
                for group in groups.values()
            )
            split.extend(group for _, _, group in order)
        if len(split) == len(cells):
            break
        cells = split
        for c, cell in enumerate(cells):
            for p in cell:
                colors[p] = c
    return colors


def _twin_classes(cell: list[int], state: tuple[int, ...], col: list[int]) -> list[list[int]]:
    """Split a color cell, or any set of persons, into classes of twins.

    p and q are twins iff the transposition (p q) is an automorphism of the
    state: every other person knows both gossips or neither (the column
    test), and p's row with bits p and q swapped is q's row.  Twinhood is an
    equivalence relation, so comparing with each class's first member is
    enough.
    """
    classes: list[list[int]] = []
    for p in cell:
        row = state[p]
        for cls in classes:
            q = cls[0]
            pq = (1 << p) | (1 << q)
            if (col[p] ^ col[q]) & ~pq:
                continue
            swapped = row ^ pq if ((row >> p) ^ (row >> q)) & 1 else row
            if swapped == state[q]:
                cls.append(p)
                break
        else:
            classes.append([p])
    return classes


def _placements(
    classes: list[list[int]], positions: list[int]
) -> Iterator[list[tuple[int, int]]]:
    """Every way to give each twin class its own subset of the positions.

    Yields (person, position) pairs; members of a class take their subset in
    ascending order, since the order among twins does not change the key.
    """
    first, rest = classes[0], classes[1:]
    if not rest:
        yield list(zip(first, positions))
        return
    for chosen in itertools.combinations(positions, len(first)):
        left = [x for x in positions if x not in chosen]
        head = list(zip(first, chosen))
        for tail in _placements(rest, left):
            yield head + tail


def _relabel(known: list[tuple[int, ...]], perm: list[int]) -> tuple[int, ...]:
    """Apply person permutation perm (old -> new) to indices and gossip bits."""
    bit = [1 << q for q in perm]
    out = [0] * len(perm)
    for p, gs in enumerate(known):
        y = 0
        for g in gs:
            y |= bit[g]
        out[perm[p]] = y
    return tuple(out)


def canonical_form(state: tuple[int, ...], n: int) -> tuple[tuple[int, ...], list[int], bool]:
    """The canonical key, the twin map and whether the key is exact.

    The key is the lexicographic minimum over all relabelings that map each
    refined color cell onto its block of positions.  Relabelings that differ
    only by permuting twins give the same state, so only the arrangements of
    twin classes within each cell are tried.  The key is exact whenever
    there are at most _CANON_PERM_CAP such arrangements; beyond that a
    single deterministic relabeling is used.  ``rep[p]`` is the first member
    of p's twin class: twins share a color, so splitting every cell, also
    past the cap, gives the whole twin partition.
    """
    known = [_bits(row) for row in state]
    col = [0] * n  # col[g]: the persons who know gossip g, as a bitmask
    for p, gs in enumerate(known):
        bit = 1 << p
        for g in gs:
            col[g] |= bit
    knowers = [_bits(c) for c in col]
    colors = _refine_colors(known, knowers)
    cells: list[list[int]] = [[] for _ in range(max(colors, default=-1) + 1)]
    for p in range(n):
        cells[colors[p]].append(p)
    perm = [0] * n
    rep = list(range(n))
    free = []  # (twin classes, positions) of cells with more than one class
    arrangements = 1
    pos = 0
    for cell in cells:
        start = pos
        for p in cell:
            perm[p] = pos
            pos += 1
        if pos - start == 1:
            continue
        classes = _twin_classes(cell, state, col)
        for cls in classes:
            for p in cls[1:]:
                rep[p] = cls[0]
        if len(classes) > 1:
            free.append((classes, list(range(start, pos))))
            count = math.factorial(len(cell))
            for cls in classes:
                count //= math.factorial(len(cls))
            arrangements *= count
    if not free:  # one arrangement: the cells in order
        return _relabel(known, perm), rep, True
    if arrangements > _CANON_PERM_CAP:
        return _relabel(known, perm), rep, False
    best: tuple[int, ...] | None = None
    for choice in itertools.product(*(_placements(c, ps) for c, ps in free)):
        for placement in choice:
            for p, q in placement:
                perm[p] = q
        cand = _relabel(known, perm)
        if best is None or cand < best:
            best = cand
    return best, rep, True  # type: ignore[return-value]


def canonical_key(state: tuple[int, ...], n: int) -> tuple[int, ...]:
    """A representative of the state's joint-relabeling equivalence class."""
    return canonical_form(state, n)[0]


@functools.lru_cache(maxsize=64)  # one entry per n <= 64
def _pair_tables(n: int) -> tuple[list[tuple[int, int]], list[int]]:
    """The calls of n persons in pair order, and the bits of those each person takes part in.

    ``pairs[j]`` is the j-th pair (a, b), a < b, in lexicographic order, and
    bit j of ``touches[p]`` is set when p is a or b; ``touches[a] &
    touches[b]`` is the bit of pair (a, b).  Every caller shares the
    tables, so none may change them.
    """
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    touches = [0] * n
    for j, (a, b) in enumerate(pairs):
        touches[a] |= 1 << j
        touches[b] |= 1 << j
    return pairs, touches


def _orbit_duplicates(rep: list[int]) -> int:
    """Bitmask of the pair indices whose twin classes repeat an earlier pair's.

    ``rep`` maps every person to the first member of its twin class.  Each
    such call gives a child isomorphic to the first call's with the same
    unordered (twin class, twin class) pair.  In pair order the first call
    of two classes is between their first members, and the first call inside
    a class is between its first two, so the duplicates are the calls that
    touch a later member, apart from each class's call of its first two.
    """
    touches = _pair_tables(len(rep))[1]
    dup = keep = 0
    seen = set()
    for p, r in enumerate(rep):
        if r != p:
            dup |= touches[p]
            if r not in seen:
                seen.add(r)
                keep |= touches[r] & touches[p]
    return dup & ~keep


# ---------------------------------------------------------------------------
# minimum-call search
# ---------------------------------------------------------------------------

def _lower_bound(state: tuple[int, ...], k: int, spare: int = 0) -> int:
    """Admissible bound on calls still needed to leave at most ``spare`` persons below k."""
    counts = [x.bit_count() for x in state]
    return _bound(sum(1 for c in counts if c < k) - spare, max(counts), k)


def _bound(below: int, best: int, k: int) -> int:
    """_lower_bound of a state ``below`` persons short of its goal, at top awareness ``best``."""
    if below <= 0:
        return 0
    if best >= k:
        return (below + 1) // 2
    # nobody informed yet: the maximum awareness at most doubles per call
    rounds = 0
    reach = best
    while reach < k:
        reach *= 2
        rounds += 1
    return rounds + max(0, (below - 2 + 1) // 2)


def _doubling_certificate(n: int, k: int) -> Schedule | None:
    """The band-regime doubling schedule on n persons, if simulation shows it k-informing.

    The search uses it only once its length is a depth it may try, so a
    candidate longer than ``max_depth`` is never returned.
    """
    regime = classify_regime(n, k)
    if regime.kind != REGIME_BAND:
        return None
    try:
        cand = synth_doubling(n, k, regime.i)
    except ValidationError:
        return None
    return cand if cand.n == n and is_k_informing(cand, k) else None


def min_calls_bruteforce(n: int, k: int, cfg: SearchConfig | None = None,
                         goal: int | None = None) -> SearchResult:
    """Exact minimum length of a call sequence making ``goal`` (default n) persons k-informed.

    Iterative deepening: depth d is only reported once every depth < d has
    been exhaustively refuted, so a FOUND result is the true minimum.  Only
    with the full goal, at the length of a k-informing doubling schedule the
    search stops and returns that schedule instead of running the find pass.
    """
    if not 2 <= k <= n:
        raise ValidationError(f"need 2 <= k <= n, got n={n}, k={k}")
    if n > 64:
        raise ValidationError(f"search supports n <= 64, got n={n}")
    goal = n if goal is None else goal
    if not 1 <= goal <= n:
        raise ValidationError(f"need 1 <= goal <= n, got goal={goal}, n={n}")
    spare = n - goal  # persons that may stay below k
    cfg = cfg or SearchConfig()
    certificate = _doubling_certificate(n, k) if spare == 0 else None
    deadline = time.monotonic() + cfg.time_budget
    start_time = time.monotonic()
    pairs, touches = _pair_tables(n)
    every = (1 << len(pairs)) - 1
    # commute[j]: the calls sharing no participant with call j
    commute = [every & ~(touches[a] | touches[b]) for a, b in pairs]
    initial = tuple(1 << p for p in range(n))
    memo: dict[tuple[int, ...], int] = {}
    # keyed state -> (canonical key, orbit-duplicate mask, exact)
    forms: dict[tuple[int, ...], tuple[tuple[int, ...], int, bool]] = {}
    nodes = memo_hits = memo_stores = memo_refused = lb_prunes = orbit_cuts = sleep_cuts = 0
    unkeyed = canon_inexact = find_nodes = 0
    passes: list[dict[str, int]] = []
    next_clock_check = 4096

    def counters() -> dict[str, int]:
        """The nodes and the counters that every pass reports."""
        return {"nodes": nodes, "memo_hits": memo_hits, "memo_stores": memo_stores,
                "memo_refused": memo_refused, "lb_prunes": lb_prunes, "unkeyed": unkeyed,
                "orbit_cuts": orbit_cuts, "sleep_cuts": sleep_cuts,
                "canon_inexact": canon_inexact}

    def dfs(state: tuple[int, ...], remaining: int, sleep: int, below: int,
            best: int) -> list[tuple[int, int]] | None:
        """Suffix of calls completing the goal within ``remaining``, or None.

        ``below`` is how many persons the goal still misses and ``best`` the
        top awareness.  The caller has checked that the state's lower bound
        is at most ``remaining``.  A child whose bound exceeds what is left
        is cut before it is built; it still counts as one node and one
        lower-bound prune, as if it had been entered.  ``sleep`` holds the
        pair indices of calls known not to finish within ``remaining - 1``
        from this state; they are skipped.

        Calls are taken in pair order, but only those that can pass the
        bound are visited.  Once someone knows k gossips, ``slack = 2 *
        (remaining - 1) - below`` (at least -2) decides that by the call's
        class: at -2 only a call between two persons below k can pass, at
        -1 only one that touches such a person, at 0 or more every call.
        The no-op, asleep, orbit-cut and class-cut calls are counted by
        popcount of their masks, up to the first call that finishes or all
        of them, which gives the counters of a visit to every call.
        """
        nonlocal nodes, memo_hits, memo_stores, memo_refused, lb_prunes
        nonlocal orbit_cuts, sleep_cuts, unkeyed, canon_inexact, next_clock_check
        nodes += 1
        if nodes >= next_clock_check:
            next_clock_check = nodes + 4096
            if time.monotonic() > deadline:
                raise _BudgetExceeded
        if below <= 0:
            return []
        keyed = remaining > _UNKEYED_PLIES
        if keyed:
            form = forms.get(state)
            if form is None:
                key, rep, exact = canonical_form(state, n)
                form = key, _orbit_duplicates(rep), exact
                if len(forms) < _FORM_CACHE:
                    forms[state] = form
            key, duplicate, exact = form
            canon_inexact += not exact
            if memo.get(key, -1) >= remaining:
                memo_hits += 1
                return None
        else:
            duplicate = 0
        noop = 0  # calls between persons with equal rows
        earlier: dict[int, int] = {}  # row -> the calls of the persons seen with it
        for p, x in enumerate(state):
            calls = earlier.get(x, 0)
            noop |= touches[p] & calls
            earlier[x] = calls | touches[p]
        asleep = sleep & ~noop
        handled = every & ~(noop | sleep)  # explored, bound-cut or orbit-cut
        orbit = handled & duplicate
        expandable = handled & ~duplicate  # explored or bound-cut
        counts = [x.bit_count() for x in state]
        informed = best >= k
        slack = 2 * (remaining - 1) - below
        eligible = expandable
        if informed and slack < 0:
            # at -1 a call must touch a person below k, at -2 it must touch
            # nobody informed
            touching = 0
            for p, c in enumerate(counts):
                if (c < k) == (slack == -1):
                    touching |= touches[p]
            eligible &= touching if slack == -1 else ~touching
        visited = every  # the calls a visit in pair order reaches
        found = None
        todo = eligible
        while todo:
            low = todo & -todo
            todo ^= low
            j = low.bit_length() - 1
            a, b = pairs[j]
            u = state[a] | state[b]
            c = u.bit_count()
            if c < k:
                child_below = below
            else:
                child_below = below - (counts[a] < k) - (counts[b] < k)
            child_best = best if best >= c else c
            if informed:
                cut = slack < 0 and c < k
            else:
                cut = _bound(child_below, child_best, k) >= remaining
            if cut:
                nodes += 1
                lb_prunes += 1
                continue
            child = state[:a] + (u,) + state[a + 1 : b] + (u,) + state[b + 1 :]
            tail = dfs(child, remaining - 1, (sleep | (handled & (low - 1))) & commute[j],
                       child_below, child_best)
            if tail is not None:
                visited = low - 1
                found = [(a, b)] + tail
                break
        sleep_cuts += (asleep & visited).bit_count()
        orbit_cuts += (orbit & visited).bit_count()
        pruned = (expandable & ~eligible & visited).bit_count()
        nodes += pruned
        lb_prunes += pruned
        if found is not None:
            return found
        if not keyed:
            unkeyed += 1
        elif len(memo) < cfg.memo_limit:
            memo[key] = remaining
            memo_stores += 1
        else:
            memo_refused += 1
        return None

    def result(status: str, found: list[tuple[int, int]] | None = None) -> SearchResult:
        stats = counters()
        del stats["nodes"]
        return SearchResult(
            status,
            len(found) if found is not None else None,
            Schedule(n, found) if found is not None else None,
            refuted,
            nodes,
            time.monotonic() - start_time,
            stats | {"find_nodes": find_nodes, "passes": passes},
        )

    depth = _lower_bound(initial, k, spare)
    refuted = depth - 1
    try:
        while depth <= cfg.max_depth:
            if certificate is not None and depth == len(certificate.calls):
                return result(FOUND, list(certificate.calls))
            before = counters()
            try:
                found = dfs(initial, depth, 0, n - spare, 1)  # everyone knows 1 < k
            finally:  # a pass cut by the budget reports its work too
                passes.append({"depth": depth} | {
                    name: now - before[name] for name, now in counters().items()})
            if found is not None:
                find_nodes = passes[-1]["nodes"]
                return result(FOUND, found)
            refuted = depth
            depth += 1
    except _BudgetExceeded:
        return result(TIMEOUT)
    finally:
        # dfs reaches itself through its closure; breaking that cycle frees
        # the memo on return instead of at the next cyclic collection
        dfs = None  # type: ignore[assignment]
    return result(DEPTH_EXHAUSTED)


def max_informing_level(s: Schedule) -> int:
    """Largest k for which the schedule is k-informing (min final awareness)."""
    return min(simulate(s).awareness())


# ---------------------------------------------------------------------------
# scheme enumerators
# ---------------------------------------------------------------------------

@dataclass
class SchemeStream:
    """An enumeration of schedules plus metadata about its coverage."""

    n: int
    exhaustive: bool
    expected_count: int | None
    schedules: Iterator[Schedule] = field(repr=False)


def prufer_decode(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    """Edge list of the labeled tree with this Pruefer sequence (len n-2)."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    leaf_heap = sorted(p for p in range(n) if degree[p] == 1)
    heapq.heapify(leaf_heap)
    for x in seq:
        leaf = heapq.heappop(leaf_heap)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaf_heap, x)
    u = heapq.heappop(leaf_heap)
    v = heapq.heappop(leaf_heap)
    edges.append((min(u, v), max(u, v)))
    return edges


def labeled_trees(n: int) -> Iterator[list[tuple[int, int]]]:
    """All n^(n-2) labeled trees on n vertices."""
    if n == 1:
        yield []
        return
    if n == 2:
        yield [(0, 1)]
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield prufer_decode(seq, n)


EXHAUSTIVE_TREE_LIMIT = 6  # all trees x all call orders up to here
SCHEME_SIZE_LIMIT = 8  # largest n of the tree and unicyclic scheme enumerators


def enumerate_tree_schemes(n: int, limit: int | None = None, seed: int = 0) -> SchemeStream:
    """Schedules whose communication graph is a spanning tree on n vertices.

    Exhaustive (every labeled tree times every chronological edge order) for
    n <= 6; uniformly sampled, ``limit`` schemes, for n in {7, 8}.
    """
    if not 2 <= n <= SCHEME_SIZE_LIMIT:
        raise ValidationError(
            f"tree enumeration supports 2 <= n <= {SCHEME_SIZE_LIMIT}, got n={n}"
        )
    if n <= EXHAUSTIVE_TREE_LIMIT and limit is None:
        expected = n ** (n - 2) * math.factorial(n - 1)

        def gen_all() -> Iterator[Schedule]:
            for edges in labeled_trees(n):
                for order in itertools.permutations(edges):
                    yield Schedule(n, order)

        return SchemeStream(n, True, expected, gen_all())
    count = limit if limit is not None else 1000
    rng = random.Random(seed)

    def gen_sampled() -> Iterator[Schedule]:
        for _ in range(count):
            seq = tuple(rng.randrange(n) for _ in range(n - 2))
            edges = prufer_decode(seq, n)
            rng.shuffle(edges)
            yield Schedule(n, edges)

    return SchemeStream(n, False, count, gen_sampled())


INFORMING_TREE_CLASS_LIMIT = 11  # m = 11, k = 4 takes about a second


@functools.lru_cache(maxsize=None)
def informing_tree_classes(m: int, k: int, spare: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """One call list per class of m-person tree schemes leaving <= ``spare`` persons below k.

    A person is below k while knowing fewer than k gossips.  Two schemes
    are in one class when their final states are equal under a joint
    relabeling of persons and gossips.  The enumeration is isomorph-free in
    the manner of McKay (*Isomorph-free exhaustive generation*, J.
    Algorithms 26, 1998): it grows the schemes one call at a time, each call
    joining two different components (the state determines the components,
    and a relabeled state has relabeled extensions), and keeps one state
    per canonical key in every layer.  A state is dropped once more
    persons are below k, beyond ``spare``, than the calls still to come can
    reach, two per call.  Of the calls whose participants lie in the same
    pair of twin classes only the first is tried: the others give
    isomorphic children, whose keys ``setdefault`` would drop.  The twin
    classes are those ``canonical_form`` split its color cells into when it
    keyed the state; color refinement is invariant under automorphisms, so
    twins share a cell.  Each class is listed once as long as the key is
    exact on its states (it is for every class tested); an inexact key
    could only list a class twice, never omit one.
    """
    if not 1 <= m <= INFORMING_TREE_CLASS_LIMIT:
        raise ValidationError(
            f"tree classes are enumerated for 1 <= m <= {INFORMING_TREE_CLASS_LIMIT}, got m={m}"
        )
    if k < 1 or spare < 0:
        raise ValidationError(f"need k >= 1 and spare >= 0, got k={k}, spare={spare}")

    def hopeless(state: tuple[int, ...], calls_left: int) -> bool:
        below = sum(1 for x in state if x.bit_count() < k)
        return below - spare > 2 * calls_left

    initial = tuple(1 << p for p in range(m))
    if hopeless(initial, m - 1):
        return ()
    pairs = _pair_tables(m)[0]
    key, rep, _ = canonical_form(initial, m)
    layer = {key: (initial, (), rep)}
    for calls_left in range(m - 2, -1, -1):
        grown: dict[tuple[int, ...], tuple] = {}
        for state, calls, rep in layer.values():
            comp = [1 << p for p in range(m)]  # comp[p]: p's component, as a bitmask
            for a, b in calls:
                joined = comp[a] | comp[b]
                for p in _bits(joined):
                    comp[p] = joined
            duplicate = _orbit_duplicates(rep)
            for j, (a, b) in enumerate(pairs):
                if comp[a] >> b & 1 or duplicate >> j & 1:
                    continue
                u = state[a] | state[b]
                child = state[:a] + (u,) + state[a + 1 : b] + (u,) + state[b + 1 :]
                if hopeless(child, calls_left):
                    continue
                key, child_rep, _ = canonical_form(child, m)
                grown.setdefault(key, (child, calls + ((a, b),), child_rep))
        layer = grown
    return tuple(calls for _, calls, _ in layer.values())


def enumerate_unicyclic_schemes(n: int, limit: int | None = None, seed: int = 0) -> SchemeStream:
    """Schedules whose graph is connected and spanning with exactly n edges.

    Built as spanning tree plus one extra pair (possibly duplicating a tree
    edge, the degenerate two-fold cycle).  Exhaustive over edge orders for
    n <= 5, sampled for larger n.
    """
    if not 2 <= n <= SCHEME_SIZE_LIMIT:
        raise ValidationError(
            f"unicyclic enumeration supports 2 <= n <= {SCHEME_SIZE_LIMIT}, got n={n}"
        )
    all_pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    if n <= 5 and limit is None:

        def gen_all() -> Iterator[Schedule]:
            for edges in labeled_trees(n):
                for extra in all_pairs:
                    for order in itertools.permutations(edges + [extra]):
                        yield Schedule(n, order)

        return SchemeStream(n, True, None, gen_all())
    count = limit if limit is not None else 1000
    rng = random.Random(seed)

    def gen_sampled() -> Iterator[Schedule]:
        for _ in range(count):
            seq = tuple(rng.randrange(n) for _ in range(n - 2)) if n > 2 else ()
            edges = prufer_decode(seq, n) if n > 2 else [(0, 1)]
            edges.append(all_pairs[rng.randrange(len(all_pairs))])
            rng.shuffle(edges)
            yield Schedule(n, edges)

    return SchemeStream(n, False, count, gen_sampled())
