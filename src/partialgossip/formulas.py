"""Closed-form machinery: threshold sequence, regime classification, P(n,k).

The threshold sequence t_i(k) = i + 2^(k-i-2), defined for -1 <= i <= k-4,
partitions n >= k into bands.  For n >= t_{-1}(k) = 2^(k-1)-1 the minimum
call count is ceil((2^(k-1)-1) * n / 2^(k-1)); for t_i <= n < t_{i-1} it is
n + i.  The index range of the second regime is empty for k in {2, 3}, so
those k are served entirely by the first formula.

All arithmetic is exact integer arithmetic (Python ints are unbounded, so
no overflow guard is needed); no floating point is used anywhere.
"""
from __future__ import annotations

from typing import NamedTuple

from .core import ValidationError

REGIME_CEIL_FRACTION = 1
REGIME_BAND = 2


class TRegime(NamedTuple):
    """Which P(n,k) regime an (n,k) pair falls in.

    kind is REGIME_CEIL_FRACTION for n >= 2^(k-1)-1 and REGIME_BAND
    otherwise; i is the band index (None in the first regime).
    """

    kind: int
    i: int | None = None


def t_value(i: int, k: int) -> int:
    """Threshold t_i(k) = i + 2^(k-i-2) for -1 <= i <= k-4."""
    if k < 3:
        raise ValidationError(f"t_value requires k >= 3, got k={k}")
    if not -1 <= i <= k - 4:
        raise ValidationError(f"t_value index i={i} out of [-1, {k - 4}] for k={k}")
    return i + (1 << (k - i - 2))


def _t_at_most(i: int, k: int, n: int) -> bool:
    """t_i(k) <= n, for any integer n and i <= k-2.

    That is 2^(k-i-2) <= n - i, decided on bit lengths so a huge k builds
    no huge power of two; n - i < 1 is below every power of two (and the
    bit length of a negative number is that of its absolute value).
    """
    return n - i >= 1 and (n - i).bit_length() > k - i - 2


def classify_regime(n: int, k: int) -> TRegime:
    """Classify (n,k) with n >= k >= 2 into its P(n,k) regime."""
    _check_nk(n, k)
    if _t_at_most(-1, k, n):  # n >= t_{-1}(k) = 2^(k-1) - 1
        return TRegime(REGIME_CEIL_FRACTION)
    # here k >= 4 (for k in {2,3}, n >= k already implies the branch above).
    # t_i(k) decreases in i and t_{k-4}(k) = k <= n, so the band is the
    # smallest i with t_i(k) <= n, found by bisection.
    lo, hi = 0, k - 4
    while lo < hi:
        mid = (lo + hi) // 2
        if _t_at_most(mid, k, n):
            hi = mid
        else:
            lo = mid + 1
    return TRegime(REGIME_BAND, lo)


def p_min_calls(n: int, k: int) -> int:
    """Minimum number of calls after which all n persons know at least k gossips."""
    regime = classify_regime(n, k)
    if regime.kind == REGIME_CEIL_FRACTION:
        num = ((1 << (k - 1)) - 1) * n
        den = 1 << (k - 1)
        return (num + den - 1) // den
    return n + regime.i


def lemma1b_bound(k: int, kp: int) -> int:
    """Minimum tree size when one person ends kp-informed and the rest k-informed.

    Equals (2^(k-2) + 2^(k-3) + ... + 2^(k-kp)) + 1, i.e. the empty sum plus
    one (a single vertex) when kp == 1.
    """
    if kp < 1 or kp > k:
        raise ValidationError(f"need k >= kp >= 1, got k={k}, kp={kp}")
    return (1 << (k - 1)) - (1 << (k - kp)) + 1


def _check_nk(n: int, k: int) -> None:
    if k < 2:
        raise ValidationError(f"k must be >= 2, got {k}")
    if n < k:
        raise ValidationError(f"need n >= k, got n={n} < k={k}")
