"""Threshold sequence, regime classification and the closed form for P(n,k)."""
from __future__ import annotations

import sys

import pytest

from partialgossip import (
    REGIME_BAND,
    REGIME_CEIL_FRACTION,
    TRegime,
    ValidationError,
    classify_regime,
    lemma1b_bound,
    p_min_calls,
    t_value,
)
from partialgossip.formulas import _t_at_most

# frozen from the exhaustive search oracle (see test_acceptance criterion 1)
BRUTE_FORCE_TABLE = {
    (2, 2): 1,
    (3, 2): 2, (3, 3): 3,
    (4, 2): 2, (4, 3): 3, (4, 4): 4,
    (5, 2): 3, (5, 3): 4, (5, 4): 5, (5, 5): 6,
    (6, 2): 3, (6, 3): 5, (6, 4): 6, (6, 5): 7, (6, 6): 8,
    (7, 3): 6, (7, 4): 7,
}


class TestTValue:
    def test_lowest_index_is_power_boundary(self):
        assert t_value(-1, 4) == 7  # 2^(k-1) - 1

    def test_direct_substitution(self):
        assert t_value(4, 9) == 12

    @pytest.mark.parametrize("k", range(4, 21))
    def test_highest_index_equals_k(self, k):
        assert t_value(k - 4, k) == k

    def test_index_out_of_range(self):
        with pytest.raises(ValidationError):
            t_value(-2, 6)
        with pytest.raises(ValidationError):
            t_value(3, 6)

    def test_k_too_small(self):
        with pytest.raises(ValidationError):
            t_value(-1, 2)

    def test_strictly_decreasing(self):
        for k in range(4, 31):
            values = [t_value(i, k) for i in range(-1, k - 3)]
            assert all(x > y for x, y in zip(values, values[1:]))

    def test_doubling_inequality(self):
        # 2 t_i - i > t_{i-1}
        for k in range(4, 31):
            for i in range(0, k - 3):
                assert 2 * t_value(i, k) - i > t_value(i - 1, k)


class TestClassifyRegime:
    def test_band_example(self):
        regime = classify_regime(15, 9)
        assert (regime.kind, regime.i) == (REGIME_BAND, 4)
        assert t_value(4, 9) <= 15 < t_value(3, 9) == 19

    def test_on_boundary_is_first_regime(self):
        regime = classify_regime(8, 4)
        assert regime.kind == REGIME_CEIL_FRACTION
        assert regime.i is None

    @pytest.mark.parametrize("n", range(4, 21))
    def test_full_gossip_is_top_band(self, n):
        regime = classify_regime(n, n)
        assert (regime.kind, regime.i) == (REGIME_BAND, n - 4)

    @pytest.mark.parametrize("k", [2, 3])
    def test_small_k_always_first_regime(self, k):
        for n in range(k, 40):
            assert classify_regime(n, k).kind == REGIME_CEIL_FRACTION

    def test_n_below_k_rejected(self):
        with pytest.raises(ValidationError):
            classify_regime(3, 9)

    def test_every_pair_classifies_uniquely(self):
        # exactly one regime holds for every valid (n, k)
        for k in range(2, 13):
            for n in range(k, 300):
                regime = classify_regime(n, k)
                if regime.kind == REGIME_BAND:
                    assert t_value(regime.i, k) <= n < t_value(regime.i - 1, k)
                else:
                    assert n >= (1 << (k - 1)) - 1

    @pytest.mark.parametrize("k", range(2, 65))
    def test_matches_linear_scan_at_every_boundary(self, k):
        ns = {k, k + 1, (1 << (k - 1)) - 2, (1 << (k - 1)) - 1, 1 << (k - 1)}
        for i in range(-1, k - 3):
            t = t_value(i, k)
            ns.update((t - 1, t, t + 1))
        for n in sorted(x for x in ns if x >= k):
            assert classify_regime(n, k) == _linear_scan_regime(n, k), (n, k)

    def test_huge_k_is_cheap(self):
        """Bisection runs O(log k) lines; the linear scan ran k - 3 steps on 2^k-sized ints."""
        k = 5 * 10**5
        regime, lines = _lines_run(classify_regime, 10**6, k)
        assert regime == TRegime(REGIME_BAND, k - 20)
        assert lines <= 8 * k.bit_length()
        assert p_min_calls(10**6, k) == 10**6 + k - 20


@pytest.mark.parametrize("k", range(3, 12))
def test_threshold_predicate_matches_t_value(k):
    """_t_at_most(i, k, n) is t_i(k) <= n, also where n - i <= 0."""
    for i in range(-1, k - 3):
        t = t_value(i, k)
        for n in range(-t - 2, t + 3):
            assert _t_at_most(i, k, n) is (t <= n), (i, n)


def _lines_run(fn, *args):
    """fn(*args) and the number of lines of fn's own body it ran: a clock-free cost."""
    code = fn.__code__
    lines = 0

    def count(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return count

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: count if frame.f_code is code else None)
    try:
        result = fn(*args)
    finally:
        sys.settrace(previous)
    return result, lines


def _linear_scan_regime(n, k):
    """The band scan classify_regime replaced, kept as its reference."""
    if n >= (1 << (k - 1)) - 1:
        return TRegime(REGIME_CEIL_FRACTION)
    for i in range(0, k - 3):
        if t_value(i, k) <= n < t_value(i - 1, k):
            return TRegime(REGIME_BAND, i)
    raise AssertionError(f"no band for n={n}, k={k}")


class TestPMinCalls:
    def test_band_example(self):
        assert p_min_calls(15, 9) == 19

    @pytest.mark.parametrize("n", range(4, 21))
    def test_full_gossip_classic(self, n):
        assert p_min_calls(n, n) == 2 * n - 4

    def test_matches_brute_force_table(self):
        for (n, k), expected in BRUTE_FORCE_TABLE.items():
            assert p_min_calls(n, k) == expected, (n, k)

    def test_boundary_continuity(self):
        # at n = t_{-1}(k) the fraction formula gives exactly n, joining the
        # i = 0 band value n + 0 from below
        for k in range(4, 16):
            boundary = t_value(-1, k)
            assert p_min_calls(boundary, k) == boundary
            assert p_min_calls(boundary - 1, k) == boundary - 1

    def test_non_decreasing_in_n(self):
        for k in range(2, 13):
            values = [p_min_calls(n, k) for n in range(k, 600)]
            assert all(x <= y for x, y in zip(values, values[1:]))

    def test_monotone_in_k(self):
        # more required knowledge never costs fewer calls
        for k in range(2, 12):
            for n in range(k + 1, 4097):
                assert p_min_calls(n, k) <= p_min_calls(n, k + 1)


class TestLemma1bBound:
    @pytest.mark.parametrize("k", range(1, 12))
    def test_single_vertex_case(self, k):
        assert lemma1b_bound(k, 1) == 1

    @pytest.mark.parametrize("k", range(2, 12))
    def test_equal_levels_match_minimal_tree(self, k):
        assert lemma1b_bound(k, k) == 1 << (k - 1)

    def test_mixed_levels(self):
        assert lemma1b_bound(4, 2) == 5

    def test_kp_above_k_rejected(self):
        with pytest.raises(ValidationError):
            lemma1b_bound(3, 4)


def test_regime_is_a_frozen_value():
    r = classify_regime(2**20, 22)
    assert r == TRegime(REGIME_BAND, r.i) and hash(r) == hash(TRegime(REGIME_BAND, r.i))
    assert repr(TRegime(REGIME_CEIL_FRACTION)) == "TRegime(kind=1, i=None)"
    with pytest.raises(AttributeError):
        r.i = 0
