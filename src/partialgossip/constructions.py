"""Deterministic synthesizers emitting provably optimal schedules.

The band-regime builders emit n+i calls, the first-regime one (copies of
the minimal informing tree) n - floor(n/2^(k-1)).  All share the doubling
idea: repeatedly let the first 2^r best-informed members of a block call
the next 2^r members, doubling the count of maximally informed persons per
round.  Person layout is fixed so output is reproducible byte for byte:

    helpers X = {0..i-1},  hub A = i (tree/multi-block variants only),
    doubling blocks next, leftover persons Z last.
"""
from __future__ import annotations

from .core import Schedule, ValidationError
from .formulas import _t_at_most


def _check_base(n: int, k: int, i: int) -> None:
    if k < 4:
        raise ValidationError(f"synthesis requires k >= 4, got k={k}")
    if not 0 <= i <= k - 4:
        raise ValidationError(f"index i={i} out of [0, {k - 4}] for k={k}")
    if n < 1:
        raise ValidationError(f"bad person count n={n}")


def _doubling_rounds(members: list[int], first_round: int, last_round: int) -> list[tuple[int, int]]:
    """Calls y_m -- y_{m+2^r} for r in [first_round, last_round], increasing m."""
    calls = []
    for r in range(first_round, last_round + 1):
        step = 1 << r
        for m in range(step):
            calls.append((members[m], members[m + step]))
    return calls


def synth_doubling(n: int, k: int, i: int) -> Schedule:
    """Doubling scheme: i helper calls into a 2^(k-i-2) block, then a 4-cycle
    plus doubling rounds, then the block leader calls everyone outside.

    Requires t_i(k) <= n; emits exactly n+i calls, all persons >= k-informed.
    """
    _check_base(n, k, i)
    if not _t_at_most(i, k, n):
        raise ValidationError(
            f"doubling scheme needs n >= t_i(k) = i + 2^(k-i-2) = {i} + 2^{k - i - 2}, got n={n}"
        )
    block = 1 << (k - i - 2)
    ys = list(range(i, i + block))  # ys[0] is y_1
    y1 = ys[0]
    calls = [(x, y1) for x in range(i)]
    calls += [(ys[0], ys[1]), (ys[2], ys[3]), (ys[0], ys[2]), (ys[1], ys[3])]
    calls += _doubling_rounds(ys, 2, k - i - 3)
    calls += [(y1, p) for p in range(n) if not i <= p < i + block]
    return Schedule(n, calls)


def synth_tree_variant(n: int, k: int, i: int) -> Schedule:
    """Tree-prefix scheme: helpers call a hub A, A seeds the block leader,
    the block doubles up from 2^0, the leader sweeps the leftovers, and
    finally the leader calls the helpers and A.

    Requires t_i(k)+1 <= n; emits exactly n+i calls whose first n-1 calls
    form a spanning tree.
    """
    _check_base(n, k, i)
    if not _t_at_most(i, k, n - 1):
        raise ValidationError(
            f"tree variant needs n >= t_i(k)+1 = i + 2^(k-i-2) + 1 = {i} + 2^{k - i - 2} + 1,"
            f" got n={n}"
        )
    return _hub_scheme(n, k, i, blocks=1)


def max_feasible_blocks(n: int, k: int, i: int) -> int:
    """Largest block count the multi-block scheme can fit for these parameters."""
    if not _t_at_most(i, k, n - 1):  # hub, helpers and the first block need t_i(k) + 1 persons
        return 0
    best = 0
    used = i + 1
    for j in range(1, k - i):  # block j has 2^(k-i-1-j) members, down to one
        used += 1 << (k - i - 1 - j)
        if used > n:
            break
        best = j
    return best


def multiblock_feasible(n: int, k: int, i: int, blocks: int) -> bool:
    """Explicit feasibility predicate for the multi-block scheme.

    Blocks halve strictly (sizes 2^(k-i-2), 2^(k-i-3), ...); the persons
    used by helpers, hub and blocks must fit in n, which holds for exactly
    the counts up to max_feasible_blocks, and n must stay below t_{i-1}(k)
    so that n+i is the optimal call count for this band.
    """
    return (k >= 4 and 0 <= i <= k - 4 and 1 <= blocks <= max_feasible_blocks(n, k, i)
            and not _t_at_most(i - 1, k, n))


def synth_multiblock(n: int, k: int, i: int, blocks: int | None = None) -> Schedule:
    """Multi-block scheme: like the tree variant, but the hub A seeds several
    strictly halving blocks, each doubled internally to full awareness.

    ``blocks=None`` uses the maximum feasible count; blocks=1 coincides with
    synth_tree_variant.  Emits exactly n+i calls; first n-1 calls are a tree.
    """
    _check_base(n, k, i)
    if blocks is None:
        blocks = max_feasible_blocks(n, k, i)
    if not multiblock_feasible(n, k, i, blocks):
        raise ValidationError(
            f"multi-block scheme infeasible for n={n}, k={k}, i={i}, blocks={blocks}"
        )
    return _hub_scheme(n, k, i, blocks)


def _hub_scheme(n: int, k: int, i: int, blocks: int) -> Schedule:
    hub = i
    calls = [(x, hub) for x in range(i)]
    next_person = i + 1
    y1 = next_person  # leader of the first block, does the closing sweep
    for j in range(1, blocks + 1):
        size = 1 << (k - i - 1 - j)
        members = list(range(next_person, next_person + size))
        next_person += size
        calls.append((hub, members[0]))
        calls += _doubling_rounds(members, 0, k - i - 2 - j)
    calls += [(y1, z) for z in range(next_person, n)]   # sweep leftovers Z
    calls += [(y1, x) for x in range(i)]                # closing: helpers X ...
    calls.append((y1, hub))                             # ... then the hub A
    return Schedule(n, calls)


def synth_tree_copies(n: int, k: int) -> Schedule:
    """First-regime scheme of n - floor(n/2^(k-1)) calls, for n >= 2^(k-1)-1.

    floor(n/2^(k-1)) disjoint copies of minimal_informing_tree(k), then each
    leftover person calls the first copy's first person.  With no whole copy
    (n = 2^(k-1)-1) it is the doubling scheme of n calls for k >= 4 and the
    triangle for k = 3.
    """
    if not 2 <= k <= n:
        raise ValidationError(f"need n >= k >= 2, got n={n}, k={k}")
    if not _t_at_most(-1, k, n):  # n < t_{-1}(k) = 2^(k-1) - 1
        raise ValidationError(f"first regime needs n >= 2^(k-1)-1 = 2^{k - 1} - 1, got n={n}")
    size = 1 << (k - 1)
    copies = n // size
    if not copies:
        return synth_doubling(n, k, 0) if k >= 4 else Schedule(3, [(0, 1), (1, 2), (0, 2)])
    tree = minimal_informing_tree(k).calls
    calls = [(a + c * size, b + c * size) for c in range(copies) for a, b in tree]
    calls += [(0, z) for z in range(copies * size, n)]
    return Schedule(n, calls)


def minimal_informing_tree(k: int) -> Schedule:
    """The smallest tree schedule that leaves everyone exactly k-informed.

    On n = 2^(k-1) persons: round r has person m call person m + 2^r for
    m < 2^r, r = 0 .. k-2.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    n = 1 << (k - 1)
    calls = [(m, m + (1 << r)) for r in range(k - 1) for m in range(1 << r)]
    return Schedule(n, calls)
