"""Ground-truth engines: exhaustive minimum-call search and scheme enumerators.

The searcher answers "what is the true minimum number of calls so that all
n persons know at least k gossips" by iterative-deepening DFS over raw
knowledge states.  Soundness levers:

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
  two persons, and the maximum awareness can at most double per call).  A
  child's bound follows from its parent's counts and the two merged rows,
  so it is tested before the child state is built;
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

In the band regime the find pass is skipped.  ``synth_doubling`` builds a
candidate of n+i calls; if simulation shows it is k-informing, the passes
below its length are refuted exhaustively and the candidate is the
witness.  An extra call never removes knowledge, so that proves the
minimum; the closed form only picks the candidate.  A candidate that is
missing, fails the simulation or exceeds ``max_depth``, or a shallower
pass that finds a schedule, leaves the search as it would be without it,
so a wrong formula can cost time but never give a wrong number.  Without
the candidate the search returns the first feasible call sequence in pair
order: the same witness as a search without the cuts.

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
# processes per cut-off of 0, 1, 2 and 3 plies (2-vCPU VM, Python 3.11.7):
# the perfbench oracle_search instances 0.69/0.60/0.50/0.58, (12,4)
# 2.36/2.39/2.07/2.98, (11,6) 1.53/2.12/1.57/1.37.  Three plies quadruple
# (12,4)'s nodes, whose find pass then loses.
_UNKEYED_PLIES = 2

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
    joint relabeling.  Refinement stops once a round splits no cell or every
    cell is a single person.
    """
    n = len(known)
    sigs: list = [(len(known[p]), len(knowers[p])) for p in range(n)]
    ranking = {s: r for r, s in enumerate(sorted(set(sigs)))}
    colors = [ranking[s] for s in sigs]
    cells = len(ranking)
    while cells < n:
        color = colors.__getitem__
        sigs = [
            (colors[p], tuple(sorted(map(color, known[p]))), tuple(sorted(map(color, knowers[p]))))
            for p in range(n)
        ]
        ranking = {s: r for r, s in enumerate(sorted(set(sigs)))}
        if len(ranking) == cells:
            break
        colors = [ranking[s] for s in sigs]
        cells = len(ranking)
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
        positions = list(range(pos, pos + len(cell)))
        for p, q in zip(cell, positions):
            perm[p] = q
        pos += len(cell)
        if len(cell) == 1:
            continue
        classes = _twin_classes(cell, state, col)
        for cls in classes:
            for p in cls[1:]:
                rep[p] = cls[0]
        if len(classes) > 1:
            free.append((classes, positions))
            count = math.factorial(len(cell))
            for cls in classes:
                count //= math.factorial(len(cls))
            arrangements *= count
    if arrangements > _CANON_PERM_CAP:
        return _relabel(known, perm), rep, False
    best: tuple[int, ...] | None = None  # product() of no cells yields perm itself
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


def _orbit_duplicates(rep: list[int], pairs: list[tuple[int, int]]) -> int:
    """Bitmask of the pair indices whose twin classes repeat an earlier pair's.

    ``rep`` maps every person to the first member of its twin class.  Each
    such call gives a child isomorphic to the first call's with the same
    unordered (twin class, twin class) pair.
    """
    if len(set(rep)) == len(rep):
        return 0
    seen = set()
    dup = 0
    for j, (a, b) in enumerate(pairs):
        ra, rb = rep[a], rep[b]
        cls = (ra, rb) if ra <= rb else (rb, ra)
        if cls in seen:
            dup |= 1 << j
        else:
            seen.add(cls)
    return dup


# ---------------------------------------------------------------------------
# minimum-call search
# ---------------------------------------------------------------------------

def _lower_bound(state: tuple[int, ...], k: int) -> int:
    """Admissible bound on calls still needed to make everyone k-informed."""
    counts = [x.bit_count() for x in state]
    return _bound(sum(1 for c in counts if c < k), max(counts), k)


def _bound(below: int, best: int, k: int) -> int:
    """_lower_bound of a state with ``below`` persons under k and maximum awareness ``best``."""
    if below == 0:
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


def min_calls_bruteforce(n: int, k: int, cfg: SearchConfig | None = None) -> SearchResult:
    """Exact minimum length of a call sequence making all n persons k-informed.

    Iterative deepening: depth d is only reported once every depth < d has
    been exhaustively refuted, so a FOUND result is the true minimum.  At
    the length of a k-informing doubling schedule the search stops and
    returns that schedule instead of running the find pass.
    """
    if not 2 <= k <= n:
        raise ValidationError(f"need 2 <= k <= n, got n={n}, k={k}")
    if n > 64:
        raise ValidationError(f"search supports n <= 64, got n={n}")
    cfg = cfg or SearchConfig()
    certificate = _doubling_certificate(n, k)
    deadline = time.monotonic() + cfg.time_budget
    start_time = time.monotonic()
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    # commute[j]: the calls sharing no participant with call j
    touches = [0] * n
    for j, (a, b) in enumerate(pairs):
        touches[a] |= 1 << j
        touches[b] |= 1 << j
    every = (1 << len(pairs)) - 1
    commute = [every & ~(touches[a] | touches[b]) for a, b in pairs]
    initial = tuple(1 << p for p in range(n))
    memo: dict[tuple[int, ...], int] = {}
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

    def dfs(state: tuple[int, ...], remaining: int, sleep: int) -> list[tuple[int, int]] | None:
        """Suffix of calls completing the goal within ``remaining``, or None.

        The caller has checked that the state's lower bound is at most
        ``remaining``.  A child whose bound exceeds what is left is cut in
        the loop, before it is built; it still counts as one node and one
        lower-bound prune, as if it had been entered.  ``sleep`` holds the
        pair indices of calls known not to finish within ``remaining - 1``
        from this state; they are skipped.
        """
        nonlocal nodes, memo_hits, memo_stores, memo_refused, lb_prunes
        nonlocal orbit_cuts, sleep_cuts, unkeyed, canon_inexact, next_clock_check
        nodes += 1
        if nodes >= next_clock_check:
            next_clock_check = nodes + 4096
            if time.monotonic() > deadline:
                raise _BudgetExceeded
        counts = [x.bit_count() for x in state]
        below = sum(1 for c in counts if c < k)
        if below == 0:
            return []
        keyed = remaining > _UNKEYED_PLIES
        if keyed:
            key, rep, exact = canonical_form(state, n)
            canon_inexact += not exact
            if memo.get(key, -1) >= remaining:
                memo_hits += 1
                return None
            duplicate = _orbit_duplicates(rep, pairs)
        else:
            duplicate = 0
        best = max(counts)
        handled = 0  # calls refuted here so far: explored, bound-cut or orbit-cut
        for j, (a, b) in enumerate(pairs):
            sa, sb = state[a], state[b]
            if sa == sb:
                continue
            bit = 1 << j
            if sleep & bit:
                sleep_cuts += 1
                continue
            handled |= bit
            if duplicate & bit:
                orbit_cuts += 1
                continue
            u = sa | sb
            c = u.bit_count()
            child_below = below + 2 * (c < k) - (counts[a] < k) - (counts[b] < k)
            if _bound(child_below, max(best, c), k) >= remaining:
                nodes += 1
                lb_prunes += 1
                continue
            child = state[:a] + (u,) + state[a + 1 : b] + (u,) + state[b + 1 :]
            tail = dfs(child, remaining - 1, (sleep | handled) & commute[j])
            if tail is not None:
                return [(a, b)] + tail
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

    depth = _lower_bound(initial, k)
    refuted = depth - 1
    try:
        while depth <= cfg.max_depth:
            if certificate is not None and depth == len(certificate.calls):
                return result(FOUND, list(certificate.calls))
            before = counters()
            try:
                found = dfs(initial, depth, 0)
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
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
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
            duplicate = _orbit_duplicates(rep, pairs)
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
