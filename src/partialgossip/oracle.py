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
  relabeling that keeps refined color cells in order; the cells split by
  color-multiset signatures and are ordered by them.  Twins (two persons
  whose transposition is an automorphism of the state) are interchangeable
  without changing the relabeled state, so only arrangements of twin
  classes are tried; a state with more than _CANON_PERM_CAP arrangements
  gets one deterministic relabeling instead (counted as canon_inexact);
* an admissible lower bound on remaining calls (each call informs at most
  two of the persons the goal misses, and the maximum awareness can at
  most double per call).  A child's bound follows from its parent's below-k
  mask and the merged row, so it is tested before the child state is built;
* orbit cuts (McKay, *Isomorph-free exhaustive generation*, J. Algorithms
  26, 1998): any permutation inside a twin class is an automorphism of the
  state, so two calls whose participants lie in the same unordered pair of
  twin classes give isomorphic children.  The twin partition comes from
  the cells of equal (row, column) degrees, which twins share.  Only the
  first such call at a node is expanded; the others inherit its
  refutation, whether it was explored, cut by the bound or asleep;
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

Cost levers that change no answer, witness or counter (lazy keys change
only ``keys`` and ``canon_inexact``, which count the keys computed):

* lazy keys, a cheap invariant before the canonical labelling (McKay &
  Piperno, *Practical graph isomorphism II*, J. Symb. Comput. 60, 2014):
  the memo is bucketed by the sorted (row, column) degree pairs, which
  equal keys share.  A keyed node computes only those degrees and its twin
  map.  A bucket that holds one raw state keeps it as is and compares it
  by raw equality; ``canonical_form`` runs only when a bucket already
  holds a different raw state, and then for both, whose keys go to the
  memo.  So the memo hits are those of keying every state;
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
* a bounded table of degree probes and computed keys per search
  (_FORM_CACHE): iterative deepening enters each keyed state again in the
  next pass, one ply deeper;
* no-op masks passed down: a call changes only its two callers' rows, so
  a child's calls between equal rows are its parent's, less those that
  touch a caller, plus the callers' own pair and their calls with each
  third person who already holds the merged row.

The full goal skips the find pass in both regimes (a partial goal gets no
candidate).  The closed form's construction builds a candidate:
``synth_doubling`` of n+i calls in the band regime, ``synth_tree_copies``
of n - floor(n/2^(k-1)) calls in the first.  If simulation shows it is
k-informing, the passes below its length are refuted exhaustively and the
candidate is the witness.  An extra call never removes
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
import itertools
import math
import time
from typing import Iterator

from .constructions import synth_doubling, synth_tree_copies
from .core import Call, Schedule, ValidationError, _Record, is_k_informing
from .formulas import REGIME_BAND, classify_regime

FOUND = "found"
TIMEOUT = "timeout"
DEPTH_EXHAUSTED = "depth-exhausted"

# Nodes with at most this many calls left get no canonical form, memo entry
# or orbit cut (see the module docstring).  Median CPU seconds of five fresh
# processes per cut-off of 2, 3 and 4 plies, with lazy keys and both
# regimes certified (2-vCPU VM, Python 3.11.7): the perfbench oracle_search
# instances 0.23/0.22/0.43, (12,4) 0.24/0.19/0.66, (13,4) 1.62/1.12/3.04,
# (11,6) 0.95/0.57/1.26, (12,5) 1.22/0.88/2.12, (10,7) 0.63/0.43/0.66.
_UNKEYED_PLIES = 3

# How many keyed states a search keeps the degree probe and, once computed,
# the canonical key of, the first it meets: the shallow ones recur in every
# later pass.  On the perfbench oracle_search instances the table turns
# 1,671 probes into 1,144 and 683 keys into 488 (no repeat left); at (11,6)
# 5,724 probes into 3,657 and 3,270 keys into 2,133.  An entry holds a few
# hundred bytes.
_FORM_CACHE = 2048

# States whose color cells admit more twin-class arrangements than this are
# keyed by a single deterministic relabeling instead of the true minimum;
# that only costs memo hits, never correctness (any relabeling of a state
# identifies its equivalence class member).
_CANON_PERM_CAP = 1024


class SearchConfig(_Record):
    __slots__ = ("max_depth", "time_budget", "memo_limit")

    # time_budget is in seconds; a memo entry takes about 410 bytes at (12,6),
    # so the default memo_limit fills 1.7 GB
    def __init__(self, max_depth: int = 64, time_budget: float = 600.0,
                 memo_limit: int = 4_000_000):
        self.max_depth = max_depth
        self.time_budget = time_budget
        self.memo_limit = memo_limit
        if max_depth < 0:
            raise ValidationError(f"max_depth must be >= 0, got {max_depth}")
        if memo_limit < 0:
            raise ValidationError(f"memo_limit must be >= 0, got {memo_limit}")
        if not time_budget > 0:  # also rejects NaN, which never times out
            raise ValidationError(f"time_budget must be > 0, got {time_budget}")


class SearchResult(_Record):
    __slots__ = ("status", "min_calls", "witness", "refuted_depth", "nodes", "elapsed", "stats")

    def __init__(
        self,
        status: str,                 # FOUND | TIMEOUT | DEPTH_EXHAUSTED
        min_calls: int | None,       # exact minimum when status == FOUND
        witness: Schedule | None,    # a schedule attaining the minimum
        refuted_depth: int,          # no schedule with <= this many calls exists (proven)
        nodes: int,
        elapsed: float,
        # per-search counters: memo_hits (states cut by the memo), memo_stores
        # (refuted states memoized), memo_refused (refuted states not memoized
        # because the memo held memo_limit entries), lb_prunes (states cut by
        # the lower bound), unkeyed (refuted states left without a key within
        # _UNKEYED_PLIES of the depth), orbit_cuts (calls skipped as isomorphic
        # to an earlier sibling), sleep_cuts (calls skipped by the sleep set),
        # keys (canonical keys computed: a memo bucket held another raw state),
        # canon_inexact (those of them that fell back past _CANON_PERM_CAP),
        # find_nodes (nodes of the pass that found the witness; 0 when the
        # closed form's schedule is it) and passes (one dict per depth searched: the
        # depth, then that pass's share of the nodes and of the counters before
        # find_nodes).  On TIMEOUT the nodes, lb_prunes, orbit_cuts and
        # sleep_cuts can read lower than a call-by-call visit would count: the
        # class-counted cuts of the nodes the budget interrupted are never added
        stats: dict[str, int | list[dict[str, int]]] | None = None,  # None: a new {}
    ):
        self.status = status
        self.min_calls = min_calls
        self.witness = witness
        self.refuted_depth = refuted_depth
        self.nodes = nodes
        self.elapsed = elapsed
        self.stats = {} if stats is None else stats


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


def _refine_cells(
    known: list[tuple[int, ...]], knowers: list[tuple[int, ...]], cells: list[list[int]]
) -> list[list[int]]:
    """Split ordered color cells of persons by iterated color-multiset signatures.

    ``known[p]`` lists the gossips p knows and ``knowers[p]`` the persons who
    know p's gossip.  The first cells are _degree_probe's, in the order of
    its signatures: how much p knows, then how widely p's gossip is known.
    A person's color is the index of its cell.  Each round gives every
    person in a shared cell the signature (colors of the gossips p knows,
    colors of the persons who know p), both as multisets; it splits the
    cell by signature and orders the parts by signature.  So a cell only
    splits in place, each cell lists its persons in ascending order, and
    the cells and their order are invariant under joint relabeling.  A
    person alone in its cell keeps its place and gets no signature.
    Refinement stops once a round splits no cell or every cell is a single
    person.
    """
    n = len(known)
    width = n.bit_length()  # fits n, the most a signature counts of anything
    while len(cells) < n:
        # a multiset of colors as one integer, the count of color c at bit
        # width * c: equal exactly when the multisets are
        weight = [0] * n
        for c, cell in enumerate(cells):
            for p in cell:
                weight[p] = 1 << (width * c)
        weigh = weight.__getitem__
        split: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                split.append(cell)
                continue
            parts: dict[tuple[int, int], list[int]] = {}
            for p in cell:
                sig = (sum(map(weigh, known[p])), sum(map(weigh, knowers[p])))
                parts.setdefault(sig, []).append(p)
            split.extend(parts[sig] for sig in sorted(parts))
        if len(split) == len(cells):
            break
        cells = split
    return cells


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
    refined color cell onto its block of positions.  _refine_cells splits
    _degree_probe's cells by color-multiset signatures and orders the parts
    by them; ``rep`` is the probe's twin map.  Twins share
    a color, so each cell is a union of twin classes, and only arrangements
    of those classes are tried: permuting twins gives the same state.  The
    key is exact whenever there are at most _CANON_PERM_CAP such
    arrangements; beyond that a single deterministic relabeling is used.
    """
    _, rep, cells, col = _degree_probe(state, n)
    known = [_bits(row) for row in state]
    perm = [0] * n
    free = []  # (twin classes, positions) of cells with more than one class
    arrangements = 1
    pos = 0
    for cell in _refine_cells(known, [_bits(c) for c in col], cells):
        start = pos
        for p in cell:
            perm[p] = pos
            pos += 1
        if pos - start == 1:
            continue
        twins: dict[int, list[int]] = {}  # first member -> class, in ascending order
        for p in cell:
            twins.setdefault(rep[p], []).append(p)
        if len(twins) > 1:
            classes = list(twins.values())
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


def _degree_probe(
    state: tuple[int, ...], n: int
) -> tuple[tuple[int, ...], list[int], list[list[int]], list[int]]:
    """The degree invariant, the twin map, the cells of equal degrees and the columns.

    A person's signature packs how much p knows and how widely p's gossip
    is known into one integer, ordered as that pair; ``col[g]`` is the
    bitmask of the persons who know gossip g.  The invariant is the sorted
    signatures: equal keys give equal invariants.  ``cells`` holds the
    persons of each signature in ascending order, the cells in signature
    order.  Twins share those degrees, so splitting each cell into twin
    classes gives the whole twin partition: ``rep[p]`` is the smallest
    member of p's twin class.  A search node uses the invariant and
    ``rep``; canonical_form all four.
    """
    col = [0] * n
    for p, row in enumerate(state):
        bit = 1 << p
        for g in _bits(row):
            col[g] |= bit
    width = n.bit_length()
    sigs = [row.bit_count() << width | c.bit_count() for row, c in zip(state, col)]
    by_sig: dict[int, list[int]] = {}
    for p, sig in enumerate(sigs):
        by_sig.setdefault(sig, []).append(p)
    cells = [by_sig[sig] for sig in sorted(by_sig)]
    rep = list(range(n))
    if len(cells) < n:
        for cell in cells:
            if len(cell) > 1:
                for cls in _twin_classes(cell, state, col):
                    for p in cls[1:]:
                        rep[p] = cls[0]
    return tuple(sorted(sigs)), rep, cells, col


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
    # nobody informed yet: the maximum awareness at most doubles per call, so
    # it takes the least r with best * 2**r >= k
    return ((k - 1) // best).bit_length() + (below - 1) // 2


def _certificate(n: int, k: int) -> Schedule | None:
    """The closed form's schedule on n persons, if simulation shows it k-informing.

    In the band regime it is the doubling schedule of n+i calls, in the
    first the copies of the minimal informing tree.  The search uses it
    only once its length is a depth it may try, so a candidate longer than
    ``max_depth`` is never returned.
    """
    regime = classify_regime(n, k)
    try:
        if regime.kind == REGIME_BAND:
            cand = synth_doubling(n, k, regime.i)
        else:
            cand = synth_tree_copies(n, k)
    except ValidationError:
        return None
    return cand if cand.n == n and is_k_informing(cand, k) else None


def min_calls_bruteforce(n: int, k: int, cfg: SearchConfig | None = None,
                         goal: int | None = None) -> SearchResult:
    """Exact minimum length of a call sequence making ``goal`` (default n) persons k-informed.

    Iterative deepening: depth d is only reported once every depth < d has
    been exhaustively refuted, so a FOUND result is the true minimum.  Only
    with the full goal, at the length of a k-informing schedule built by the
    closed form's construction, the search stops and returns that schedule
    instead of running the find pass.
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
    certificate = _certificate(n, k) if spare == 0 else None
    deadline = time.monotonic() + cfg.time_budget
    start_time = time.monotonic()
    pairs, touches = _pair_tables(n)
    every = (1 << len(pairs)) - 1
    # commute[j]: the calls sharing no participant with call j
    commute = [every & ~(touches[a] | touches[b]) for a, b in pairs]
    everyone = (1 << n) - 1
    initial = tuple(1 << p for p in range(n))
    # degree invariant -> (the one raw state refuted with it, its depth), or
    # -> () once a second raw state came and its states went to ``memo``
    single: dict[tuple[int, ...], tuple] = {}
    memo: dict[tuple[int, ...], int] = {}  # canonical key -> refuted depth
    entries = 0  # canonical classes refuted: len(memo) plus the single states
    # keyed state -> [degree invariant, orbit-duplicate mask, canonical key or None]
    forms: dict[tuple[int, ...], list] = {}
    nodes = memo_hits = memo_stores = memo_refused = lb_prunes = orbit_cuts = sleep_cuts = 0
    unkeyed = keys = canon_inexact = find_nodes = 0
    passes: list[dict[str, int]] = []
    next_clock_check = 4096

    def counters() -> dict[str, int]:
        """The nodes and the counters that every pass reports."""
        return {"nodes": nodes, "memo_hits": memo_hits, "memo_stores": memo_stores,
                "memo_refused": memo_refused, "lb_prunes": lb_prunes, "unkeyed": unkeyed,
                "orbit_cuts": orbit_cuts, "sleep_cuts": sleep_cuts, "keys": keys,
                "canon_inexact": canon_inexact}

    def key_of(state: tuple[int, ...], form: list | None) -> tuple[int, ...]:
        """The canonical key of a state, from its forms entry when that holds it."""
        nonlocal keys, canon_inexact
        if form is not None and form[2] is not None:
            return form[2]
        key, _, exact = canonical_form(state, n)
        keys += 1
        canon_inexact += not exact
        if form is not None:
            form[2] = key
        return key

    def unsingle(invariant: tuple[int, ...], held: tuple[tuple[int, ...], int]) -> None:
        """Key the invariant's one raw state into ``memo``: a second one came."""
        raw, depth = held
        memo[key_of(raw, forms.get(raw))] = depth
        single[invariant] = ()

    def dfs(state: tuple[int, ...], remaining: int, sleep: int, weak: int,
            best: int, noop: int) -> list[tuple[int, int]] | None:
        """Suffix of calls completing the goal within ``remaining``, or None.

        ``weak`` is the mask of persons who know fewer than k gossips: less
        ``spare``, its popcount is ``below``, how many the goal still misses.
        ``best`` is the top awareness.  The caller has checked that the
        state's lower bound is at most ``remaining``.  A child whose bound
        exceeds what is left is cut before it is built; it still counts as
        one node and one lower-bound prune, as if it had been entered.
        ``sleep`` holds the pair indices of calls known not to finish within
        ``remaining - 1`` from this state; they are skipped, as are those in
        ``noop``, the calls between persons with equal rows.

        Calls are taken in pair order, and every visited child is tested by
        ``_bound``.  The class mask only narrows the visit: once someone
        knows k gossips, ``slack = 2 * (remaining - 1) - below`` (at least
        -2) rules out calls by class alone.  At -2 only a call between two
        persons in ``weak`` can pass, at -1 only one that touches such a
        person, at 0 or more every call.  The no-op, asleep, orbit-cut and
        class-cut calls are counted by popcount of their masks, up to the
        first call that finishes or all of them, which gives the counters of
        a visit to every call.
        """
        nonlocal nodes, memo_hits, memo_stores, memo_refused, lb_prunes
        nonlocal orbit_cuts, sleep_cuts, unkeyed, entries, next_clock_check
        nodes += 1
        if nodes >= next_clock_check:
            next_clock_check = nodes + 4096
            if time.monotonic() > deadline:
                raise _BudgetExceeded
        below = weak.bit_count() - spare
        if below <= 0:
            return []
        keyed = remaining > _UNKEYED_PLIES
        if keyed:
            form = forms.get(state)
            if form is None:
                invariant, rep, _, _ = _degree_probe(state, n)
                form = [invariant, _orbit_duplicates(rep), None]
                if len(forms) < _FORM_CACHE:
                    forms[state] = form
            invariant, duplicate, key = form
            held = single.get(invariant)
            if held is not None:
                if held and held[0] == state:
                    depth = held[1]
                else:
                    if held:  # a second raw state: key both
                        unsingle(invariant, held)
                    key = key_of(state, form)
                    depth = memo.get(key, -1)
                if depth >= remaining:
                    memo_hits += 1
                    return None
        else:
            duplicate = 0
        asleep = sleep & ~noop
        handled = every & ~(noop | sleep)  # explored, bound-cut or orbit-cut
        orbit = handled & duplicate
        expandable = handled & ~duplicate  # explored or bound-cut
        slack = 2 * (remaining - 1) - below
        eligible = expandable
        if best >= k and slack < 0:
            # at -1 a call must touch a person below k, at -2 it must touch
            # nobody informed
            touching = 0
            for p in _bits(weak if slack == -1 else everyone & ~weak):
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
            child_weak = weak if c < k else weak & ~(1 << a | 1 << b)
            child_best = best if best >= c else c
            if _bound(child_weak.bit_count() - spare, child_best, k) >= remaining:
                nodes += 1
                lb_prunes += 1
                continue
            child = state[:a] + (u,) + state[a + 1 : b] + (u,) + state[b + 1 :]
            # only a's and b's rows changed, both to u
            ab = touches[a] | touches[b]
            child_noop = noop & ~ab | low
            if state.count(u) > (state[a] == u) + (state[b] == u):
                for p, x in enumerate(state):
                    if x == u and p != a and p != b:
                        child_noop |= touches[p] & ab
            tail = dfs(child, remaining - 1, (sleep | (handled & (low - 1))) & commute[j],
                       child_weak, child_best, child_noop)
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
        elif entries < cfg.memo_limit:
            # the subtree may have stored or keyed this invariant since
            held = single.get(invariant)
            if held is None or held and held[0] == state:
                entries += held is None
                single[invariant] = state, remaining
            else:
                if held:
                    unsingle(invariant, held)
                if key is None:
                    key = key_of(state, form)
                entries += key not in memo
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
                found = dfs(initial, depth, 0, everyone, 1, 0)  # everyone knows 1 < k
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


# ---------------------------------------------------------------------------
# scheme enumerators
# ---------------------------------------------------------------------------

class SchemeStream(_Record):
    """An enumeration of schedules on n persons."""

    __slots__ = ("n", "schedules")

    def __init__(self, n: int, schedules: Iterator[Schedule]):
        self.n = n
        self.schedules = schedules

    def __repr__(self) -> str:  # the stream itself is left out
        return f"SchemeStream(n={self.n!r})"


def prufer_decode(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    """Edge list of the labeled tree with this Pruefer sequence (len n-2)."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = degree.index(1)  # the smallest leaf
        degree[leaf] = 0
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
    u = degree.index(1)
    edges.append((u, degree.index(1, u + 1)))
    return edges


def labeled_trees(n: int) -> Iterator[list[tuple[int, int]]]:
    """All n^(n-2) labeled trees on n vertices."""
    if n == 1:
        yield []
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield prufer_decode(seq, n)


EXHAUSTIVE_TREE_LIMIT = 6  # largest n + cycles of the labeled scheme enumerators


def _labeled_schemes(n: int, cycles: int) -> SchemeStream:
    """Spanning trees on n vertices plus ``cycles`` (0 or 1) extra pairs, as call orders.

    Every labeled tree, extra pair and chronological order, for 2 <= n and
    n + cycles <= EXHAUSTIVE_TREE_LIMIT: a scheme has at most 5 calls.
    """
    top = EXHAUSTIVE_TREE_LIMIT - cycles
    if not 2 <= n <= top:
        kind = "unicyclic" if cycles else "tree"
        raise ValidationError(f"{kind} enumeration supports 2 <= n <= {top}, got n={n}")
    extras = [(Call(a, b),) for a, b in _pair_tables(n)[0]] if cycles else [()]
    trees = (tuple(Call(a, b) for a, b in edges) for edges in labeled_trees(n))
    schedules = (Schedule(n, order) for tree in trees for extra in extras
                 for order in itertools.permutations(tree + extra))
    return SchemeStream(n, schedules)


def enumerate_tree_schemes(n: int) -> SchemeStream:
    """Schedules whose communication graph is a spanning tree on n vertices.

    Exhaustive, every labeled tree times every chronological edge order, for
    2 <= n <= 6.  The isomorph-free classes of larger trees come from
    informing_tree_classes.
    """
    return _labeled_schemes(n, 0)


def enumerate_unicyclic_schemes(n: int) -> SchemeStream:
    """Schedules whose graph is connected and spanning with exactly n edges.

    A spanning tree plus one extra pair (possibly a tree edge again, the
    degenerate two-fold cycle) in every edge order, for 2 <= n <= 5.  The
    classes of larger ones come from informing_tree_classes, ``cycles`` = 1.
    """
    return _labeled_schemes(n, 1)


INFORMING_TREE_CLASS_LIMIT = 11  # m = 11, k = 4 takes about a second


@functools.lru_cache(maxsize=None)
def informing_tree_classes(m: int, k: int, spare: int,
                           cycles: int = 0) -> tuple[tuple[tuple[int, int], ...], ...]:
    """One call list per class of m-person schemes leaving <= ``spare`` persons below k.

    The schemes are trees (``cycles`` = 0, m - 1 calls) or unicyclic (1, m
    calls, the cycle possibly a repeated call).  A person is below k while
    knowing fewer than k gossips.  Two schemes are in one class when their
    final states are equal under a joint relabeling of persons and gossips.
    The enumeration is isomorph-free in the manner of McKay (*Isomorph-free
    exhaustive generation*, J. Algorithms 26, 1998): it grows the schemes
    one call at a time, each call joining two different components or,
    while the calls left after it can still join every component, two
    persons of one (the state determines the components, and a relabeled
    state has relabeled extensions), and keeps one state per canonical key
    in every layer.  A state is dropped once the search's admissible
    _lower_bound says the calls still to come cannot leave at most
    ``spare`` persons below k.  Of the calls whose participants lie in
    the same pair of twin classes only the first is tried: the others give
    isomorphic children, whose keys ``setdefault`` would drop.  The twin
    classes come from the degree probe that ``canonical_form`` starts from
    when it keys the state: twins share their (row, column) degrees.  Each
    class is listed once as long as the key is exact on its states (it is
    for every class tested); an inexact key could only list a class twice,
    never omit one.
    """
    if not 1 <= m <= INFORMING_TREE_CLASS_LIMIT:
        raise ValidationError(
            f"tree classes are enumerated for 1 <= m <= {INFORMING_TREE_CLASS_LIMIT}, got m={m}"
        )
    if k < 1 or spare < 0:
        raise ValidationError(f"need k >= 1 and spare >= 0, got k={k}, spare={spare}")
    if cycles not in (0, 1):
        raise ValidationError(f"cycles must be 0 or 1, got {cycles}")

    initial = tuple(1 << p for p in range(m))
    if _lower_bound(initial, k, spare) > m - 1 + cycles:
        return ()
    pairs = _pair_tables(m)[0]
    key, rep, _ = canonical_form(initial, m)
    layer = {key: (initial, (), rep)}
    for calls_left in range(m - 2 + cycles, -1, -1):
        grown: dict[tuple[int, ...], tuple] = {}
        for state, calls, rep in layer.values():
            comp = [1 << p for p in range(m)]  # comp[p]: p's component, as a bitmask
            for a, b in calls:
                joined = comp[a] | comp[b]
                for p in _bits(joined):
                    comp[p] = joined
            inside = len(set(comp)) - 1 <= calls_left  # a call inside a component fits
            duplicate = _orbit_duplicates(rep)
            for j, (a, b) in enumerate(pairs):
                if comp[a] >> b & 1 and not inside or duplicate >> j & 1:
                    continue
                u = state[a] | state[b]
                child = state[:a] + (u,) + state[a + 1 : b] + (u,) + state[b + 1 :]
                if _lower_bound(child, k, spare) > calls_left:
                    continue
                key, child_rep, _ = canonical_form(child, m)
                grown.setdefault(key, (child, calls + ((a, b),), child_rep))
        layer = grown
    return tuple(calls for _, calls, _ in layer.values())
