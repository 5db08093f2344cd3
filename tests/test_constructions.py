"""The schedule synthesizers: exact call counts, informing, structure."""
from __future__ import annotations

import pytest

from partialgossip import (
    Schedule,
    ValidationError,
    awareness,
    classify_components,
    full_graph,
    is_exact_k_informing,
    is_k_informing,
    is_spanning_tree,
    max_feasible_blocks,
    minimal_informing_tree,
    multiblock_feasible,
    p_min_calls,
    simulate,
    synth_doubling,
    synth_multiblock,
    synth_tree_copies,
    synth_tree_variant,
    t_value,
)
from partialgossip.graph import ComponentKind


class TestDoubling:
    def test_band_example(self):
        s = synth_doubling(15, 9, 4)
        assert len(s.calls) == 19
        assert is_k_informing(s, 9)

    def test_smallest_instance_is_the_four_cycle(self):
        s = synth_doubling(4, 4, 0)
        assert [tuple(c) for c in s.calls] == [(0, 1), (2, 3), (0, 2), (1, 3)]
        assert is_exact_k_informing(s, 4)

    def test_matches_formula_optimum(self):
        s = synth_doubling(7, 5, 1)
        assert len(s.calls) == 8 == p_min_calls(7, 5)
        assert is_k_informing(s, 5)

    def test_needs_enough_persons(self):
        with pytest.raises(ValidationError):
            synth_doubling(4, 5, 1)  # t_1(5) = 5 > 4

    def test_parameter_domain(self):
        with pytest.raises(ValidationError):
            synth_doubling(8, 3, 0)
        with pytest.raises(ValidationError):
            synth_doubling(8, 5, 2)  # i > k - 4


class TestTreeVariant:
    def test_band_example_with_tree_prefix(self):
        s = synth_tree_variant(18, 9, 4)
        assert len(s.calls) == 22
        assert is_k_informing(s, 9)
        assert is_spanning_tree(Schedule(18, s.calls[:17]))

    def test_smallest_instance(self):
        s = synth_tree_variant(5, 4, 0)
        assert len(s.calls) == 5
        assert is_k_informing(s, 4)
        assert is_spanning_tree(Schedule(5, s.calls[:4]))

    def test_mid_band_instance(self):
        s = synth_tree_variant(9, 5, 1)
        assert len(s.calls) == 10
        assert is_k_informing(s, 5)

    def test_rejects_exact_band_floor(self):
        with pytest.raises(ValidationError):
            synth_tree_variant(t_value(1, 5), 5, 1)  # needs t_i + 1

    def test_block_with_hub_witnesses_single_uninformed_tree(self):
        # after the first n-1 calls the hub-plus-block subgraph is a tree in
        # which every vertex except the hub already knows k gossips
        n, k, i = 12, 6, 1
        s = synth_tree_variant(n, k, i)
        hub = i
        block = 1 << (k - i - 2)
        members = set(range(i, i + 1 + block))
        prefix = Schedule(n, s.calls[: n - 1])
        sub = full_graph(Schedule(n, [c for c in prefix.calls if members.issuperset(c)]))
        assert classify_components(sub) == [(frozenset(members), ComponentKind.TREE)]
        aw = awareness(simulate(prefix))
        assert all(aw[p] >= k for p in members if p != hub)
        assert aw[hub] < k


class TestMultiblock:
    def test_band_example_two_blocks(self):
        s = synth_multiblock(18, 9, 4, 2)
        assert len(s.calls) == 22
        assert is_k_informing(s, 9)
        assert is_spanning_tree(Schedule(18, s.calls[:17]))

    def test_single_block_degenerates_to_tree_variant(self):
        assert synth_multiblock(18, 9, 4, 1).calls == synth_tree_variant(18, 9, 4).calls

    def test_infeasible_parameterization_rejected(self):
        # at i=0 the first block alone needs 1 + 16 > 14 persons
        assert not multiblock_feasible(14, 6, 0, 2)
        with pytest.raises(ValidationError):
            synth_multiblock(14, 6, 0, 2)

    def test_feasible_parameterization_found_by_predicate(self):
        # the same target sizes fit at i=1: 1 + 1 + 8 + 4 = 14 persons
        assert multiblock_feasible(14, 6, 1, 2)
        s = synth_multiblock(14, 6, 1, 2)
        assert len(s.calls) == 15 == p_min_calls(14, 6)
        assert is_k_informing(s, 6)

    def test_default_blocks_is_maximum_feasible(self):
        assert max_feasible_blocks(18, 9, 4) == 2
        assert synth_multiblock(18, 9, 4).calls == synth_multiblock(18, 9, 4, 2).calls

    def test_blocks_above_capacity_rejected(self):
        with pytest.raises(ValidationError):
            synth_multiblock(18, 9, 4, 5)

    def test_predicate_matches_block_sizes(self):
        """Every k <= 12, -2 <= i < k, n < 600 and -1 <= blocks <= k+1.

        i helpers, the hub and blocks of 2^(k-i-2), ..., 2^(k-i-1-blocks)
        persons fit in n, and n < t_{i-1}(k) = i - 1 + 2^(k-i-1).
        """
        for k in range(1, 13):
            for i in range(-2, k):
                for blocks in range(-1, k + 2):
                    if k >= 4 and 0 <= i <= k - 4 and 1 <= blocks <= k - i - 1:
                        need = i + 1 + sum(2 ** (k - i - 1 - j) for j in range(1, blocks + 1))
                        top = i - 1 + 2 ** (k - i - 1)
                    else:
                        need, top = 1, 0
                    for n in range(600):
                        expect = need <= n < top
                        assert multiblock_feasible(n, k, i, blocks) == expect, (n, k, i, blocks)


class TestHugeK:
    """A huge k is rejected by comparing bit lengths: 2^(k-i-2) is never built."""

    @pytest.mark.parametrize("k", [50_000, 10**9, 10**12])
    @pytest.mark.parametrize("synth", [synth_doubling, synth_tree_variant, synth_multiblock])
    def test_synthesizers_reject(self, synth, k):
        with pytest.raises(ValidationError) as e:
            synth(60_000, k, 3)
        assert len(str(e.value)) < 200

    @pytest.mark.parametrize("k", [50_000, 10**9, 10**12])
    def test_block_counts(self, k):
        assert max_feasible_blocks(60_000, k, 3) == 0
        assert not multiblock_feasible(60_000, k, 3, 1)
        assert not multiblock_feasible(60_000, k, 3, 2)

    def test_message_names_the_threshold(self):
        with pytest.raises(ValidationError, match=r"= 1 \+ 2\^2, got n=4"):
            synth_doubling(4, 5, 1)
        with pytest.raises(ValidationError, match=r"= 0 \+ 2\^2 \+ 1, got n=4"):
            synth_tree_variant(4, 4, 0)


class TestSweep:
    """Every band position, all three methods, k up to 8 (acceptance goes to 10)."""

    @pytest.mark.parametrize("k", range(4, 9))
    def test_exact_counts_and_informing(self, k):
        for i in range(0, k - 3):
            for n in range(t_value(i, k), t_value(i - 1, k)):
                s = synth_doubling(n, k, i)
                assert len(s.calls) == n + i == p_min_calls(n, k)
                assert is_k_informing(s, k)
                if n >= t_value(i, k) + 1:
                    s = synth_tree_variant(n, k, i)
                    assert len(s.calls) == n + i
                    assert is_k_informing(s, k)
                    assert is_spanning_tree(Schedule(n, s.calls[: n - 1]))
                    for blocks in range(2, max_feasible_blocks(n, k, i) + 1):
                        s = synth_multiblock(n, k, i, blocks)
                        assert len(s.calls) == n + i
                        assert is_k_informing(s, k)
                        assert is_spanning_tree(Schedule(n, s.calls[: n - 1]))


class TestTreeCopies:
    """The first-regime builder, n >= 2^(k-1)-1."""

    @pytest.mark.parametrize("k", range(2, 9))
    def test_exact_counts_and_informing(self, k):
        for n in range(max(k, (1 << (k - 1)) - 1), 300):
            s = synth_tree_copies(n, k)
            assert s.n == n and len(s.calls) == p_min_calls(n, k), n
            assert is_k_informing(s, k), n

    def test_layout(self):
        tree = minimal_informing_tree(4).calls
        s = synth_tree_copies(19, 4)  # two copies of 8 persons, three leftovers
        assert s.calls == (tree + tuple((a + 8, b + 8) for a, b in tree)
                           + ((0, 16), (0, 17), (0, 18)))
        assert synth_tree_copies(3, 3).calls == ((0, 1), (1, 2), (0, 2))
        assert synth_tree_copies(7, 4).calls == synth_doubling(7, 4, 0).calls

    @pytest.mark.parametrize("n,k", [(6, 4), (2, 3), (3, 1), (1, 2), (60_000, 10**9)])
    def test_rejects_outside_the_first_regime(self, n, k):
        with pytest.raises(ValidationError) as e:
            synth_tree_copies(n, k)
        assert len(str(e.value)) < 200


class TestMinimalInformingTree:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_exactly_k_informing_on_power_of_two(self, k):
        s = minimal_informing_tree(k)
        assert s.n == 1 << (k - 1)
        assert awareness(simulate(s)) == [k] * s.n
        if k >= 2:
            assert is_spanning_tree(s)

    def test_k4_matches_hub_tree_fixture(self, hub_tree_8):
        assert minimal_informing_tree(4).calls == hub_tree_8.calls
