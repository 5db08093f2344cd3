"""Multigraph classification, first-call splits, block swaps, DOT export."""
from __future__ import annotations

import pickle
import random
import tracemalloc
from collections import Counter, deque
from itertools import chain, combinations, product

import pytest
from hypothesis import given, strategies as st

from partialgossip import (
    Call,
    Schedule,
    ValidationError,
    are_equivalent,
    classify_components,
    first_call_split,
    full_graph,
    is_spanning_tree,
    simulate,
    swap_blocks,
    synth_doubling,
    to_dot,
)
from partialgossip.graph import CommGraph, ComponentKind


@st.composite
def schedules(draw, max_n: int = 5, max_calls: int = 6):
    n = draw(st.integers(2, max_n))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    calls = draw(st.lists(st.sampled_from(pairs), max_size=max_calls))
    return Schedule(n, calls)


class TestBuildSubgraph:
    """The graph of a schedule's calls, and the edges a CommGraph accepts."""

    def test_full_hub_tree_is_one_tree(self, hub_tree_8):
        comps = classify_components(full_graph(hub_tree_8))
        assert comps == [(frozenset(range(8)), ComponentKind.TREE)]

    @pytest.mark.parametrize("vertices,edges,message", [
        ({0, 1}, ((Call(0, 1), 1), (Call(0, 1), 1)), "timestamps must strictly increase"),
        ({0, 1}, ((Call(0, 1), 2), (Call(0, 1), 1)), "timestamps must strictly increase"),
        ({0, 1, 3}, ((Call(0, 1), 0), (Call(1, 2), 1), (Call(2, 3), 2)),
         r"edge \(1,2\) endpoint outside vertex set"),
    ])
    def test_graph_rejects_bad_edges(self, vertices, edges, message):
        with pytest.raises(ValidationError, match=message):
            CommGraph(frozenset(vertices), edges)

    def test_doubled_edge_is_degenerate_unicyclic(self):
        s = Schedule(2, [(0, 1), (0, 1)])
        comps = classify_components(full_graph(s))
        assert comps == [(frozenset({0, 1}), ComponentKind.UNICYCLIC)]


class TestCommGraphRecord:
    def test_equal_graphs_hash_alike(self):
        a = full_graph(Schedule(4, [(0, 1), (2, 1)]))
        b = CommGraph(frozenset({0, 1, 2}), ((Call(0, 1), 0), (Call(1, 2), 1)))
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != CommGraph(frozenset({1, 2}), ((Call(1, 2), 1),))
        assert pickle.loads(pickle.dumps(a)) == a
        assert repr(CommGraph(frozenset({0, 1}), ((Call(0, 1), 0),))) == (
            "CommGraph(vertices=frozenset({0, 1}), edges=(((0, 1), 0),))")

    def test_assignment_raises(self):
        g = full_graph(Schedule(2, [(0, 1)]))
        for name in ("vertices", "edges", "extra"):
            with pytest.raises(AttributeError):
                setattr(g, name, frozenset())
        assert g.vertices == {0, 1}


class TestClassifyComponents:
    def test_single_edge_is_tree(self):
        comps = classify_components(full_graph(Schedule(2, [(0, 1)])))
        assert comps == [(frozenset({0, 1}), ComponentKind.TREE)]

    def test_triangle_plus_edge(self):
        s = Schedule(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
        kinds = dict(classify_components(full_graph(s)))
        assert kinds[frozenset({0, 1, 2})] is ComponentKind.UNICYCLIC
        assert kinds[frozenset({3, 4})] is ComponentKind.TREE

    def test_two_cycles_with_pendants(self):
        # two disjoint 4-cycles, each with four pendants: both unicyclic
        cyc = [(0, 1), (2, 3), (0, 2), (1, 3), (0, 4), (1, 5), (2, 6), (3, 7)]
        calls = cyc + [(a + 8, b + 8) for a, b in cyc]
        kinds = dict(classify_components(full_graph(Schedule(16, calls))))
        assert kinds[frozenset(range(8))] is ComponentKind.UNICYCLIC
        assert kinds[frozenset(range(8, 16))] is ComponentKind.UNICYCLIC

    def test_dense_component_is_other(self):
        s = Schedule(3, [(0, 1), (1, 2), (0, 2), (0, 1)])
        comps = classify_components(full_graph(s))
        assert comps == [(frozenset({0, 1, 2}), ComponentKind.OTHER)]

    @given(schedules())
    def test_stable_under_edge_order_permutation(self, s):
        reversed_s = Schedule(s.n, list(reversed(s.calls)))
        a = sorted((vs, kind.value) for vs, kind in classify_components(full_graph(s)))
        b = sorted((vs, kind.value) for vs, kind in classify_components(full_graph(reversed_s)))
        assert a == b

    @given(schedules())
    def test_edge_counts_match_kind(self, s):
        g = full_graph(s)
        for vs, kind in classify_components(g):
            n_edges = sum(1 for c, _ in g.edges if c.a in vs)
            if kind is ComponentKind.TREE:
                assert n_edges == len(vs) - 1
            elif kind is ComponentKind.UNICYCLIC:
                assert n_edges == len(vs)
            else:
                assert n_edges > len(vs)

    @given(st.data())
    def test_matches_breadth_first_reference(self, data):
        """Same components, order and kinds as a plain breadth-first search, on
        multigraphs with isolated vertices, repeated pairs and gaps in the ids."""
        vertices = data.draw(st.sets(st.integers(0, 60), min_size=1, max_size=14))
        ids = sorted(vertices)
        pair = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda c: c[0] != c[1])
        calls = data.draw(st.lists(pair, max_size=20)) if len(ids) > 1 else []
        g = CommGraph(frozenset(vertices), tuple((Call(a, b), t) for t, (a, b) in enumerate(calls)))
        assert classify_components(g) == _reference_components(vertices, g.calls())


def _reference_components(vertices, calls):
    """Breadth-first components in order of their smallest vertex, labeled by edge count."""
    adjacency = {v: [] for v in vertices}
    for a, b in calls:
        adjacency[a].append(b)
        adjacency[b].append(a)
    seen, out = set(), []
    for start in sorted(vertices):
        if start in seen:
            continue
        comp, queue = {start}, deque([start])
        while queue:
            for w in adjacency[queue.popleft()]:
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        n_edges = sum(1 for a, _ in calls if a in comp)
        kind = (ComponentKind.TREE if n_edges == len(comp) - 1
                else ComponentKind.UNICYCLIC if n_edges == len(comp) else ComponentKind.OTHER)
        out.append((frozenset(comp), kind))
    return out


class TestFirstCallSplit:
    def test_hub_tree_splits_into_two_quads(self, hub_tree_8):
        side_a, side_b = first_call_split(hub_tree_8)
        assert side_a.vertices == frozenset({0, 2, 4, 6})
        assert side_b.vertices == frozenset({1, 3, 5, 7})
        assert [tuple(c) for c in side_a.calls()] == [(0, 2), (0, 4), (2, 6)]

    def test_two_vertex_tree_gives_singletons(self):
        side_a, side_b = first_call_split(Schedule(2, [(0, 1)]))
        assert (side_a.vertices, side_a.edges) == (frozenset({0}), ())
        assert (side_b.vertices, side_b.edges) == (frozenset({1}), ())

    def test_path_splits_unevenly(self):
        side_a, side_b = first_call_split(Schedule(3, [(0, 1), (1, 2)]))
        assert side_a.vertices == frozenset({0})
        assert side_b.vertices == frozenset({1, 2})

    def test_non_tree_rejected(self):
        with pytest.raises(ValidationError):
            first_call_split(Schedule(3, [(0, 1), (1, 2), (0, 2)]))
        with pytest.raises(ValidationError):
            first_call_split(Schedule(3, []))


def _reference_split(s: Schedule):
    """Both sides' vertices and edges by the definition, or the error text."""
    if not s.calls:
        return "schedule has no calls to split on"
    vertices = set(chain.from_iterable(s.calls))
    if [kind for _, kind in _reference_components(vertices, s.calls)] != [ComponentKind.TREE]:
        return "first_call_split requires a single tree communication graph"
    rest = list(enumerate(s.calls))[1:]
    comps = [comp for comp, _ in _reference_components(vertices, [c for _, c in rest])]
    sides = [next(comp for comp in comps if p in comp) for p in s.calls[0]]
    return [(side, tuple((c, t) for t, c in rest if c.a in side)) for side in sides]


def test_tree_queries_match_reference_on_every_small_schedule():
    """is_spanning_tree and first_call_split on every schedule of at most 4
    persons and 4 calls against breadth-first references."""
    seen = Counter()
    for n in range(1, 5):
        pairs = list(combinations(range(n), 2))
        for calls in chain.from_iterable(product(pairs, repeat=j) for j in range(5)):
            s = Schedule(n, calls)
            vertices = set(chain.from_iterable(s.calls))
            comps = _reference_components(vertices, s.calls)
            spanning = len(vertices) == n and [kind for _, kind in comps] == [ComponentKind.TREE]
            assert is_spanning_tree(s) == spanning, s
            try:
                split = [(g.vertices, g.edges) for g in first_call_split(s)]
            except ValidationError as e:
                split = str(e)
            assert split == _reference_split(s), s
            seen[spanning, isinstance(split, str)] += 1
    # 103 spanning trees, 33 trees on fewer than n persons, 1,546 rejections
    assert seen == {(True, False): 103, (False, False): 33, (False, True): 1_546}, seen


class TestSwapBlocks:
    def test_disjoint_blocks_swap(self):
        s = Schedule(4, [(0, 1), (2, 3)])
        swapped = swap_blocks(s, 0, 1, 1)
        assert [tuple(c) for c in swapped.calls] == [(2, 3), (0, 1)]
        assert simulate(swapped) == simulate(s)

    def test_empty_block_is_identity(self):
        s = Schedule(4, [(0, 1), (2, 3)])
        assert swap_blocks(s, 0, 0, 2).calls == s.calls
        assert swap_blocks(s, 0, 2, 0).calls == s.calls

    def test_shared_participant_rejected(self):
        # consecutive calls into the same person cannot be swapped
        s = Schedule(5, [(0, 4), (1, 4), (2, 4)])
        with pytest.raises(ValidationError):
            swap_blocks(s, 0, 1, 1)

    def test_out_of_range_rejected(self):
        s = Schedule(4, [(0, 1), (2, 3)])
        with pytest.raises(ValidationError):
            swap_blocks(s, 1, 1, 1)

    def test_swap_keeps_preliminary_calls(self, hub_tree_8_plus_one):
        swapped = swap_blocks(hub_tree_8_plus_one, 2, 1, 1)
        assert swapped.prelim == 1
        assert swapped.calls[:2] == hub_tree_8_plus_one.calls[:2]
        assert simulate(swapped) == simulate(hub_tree_8_plus_one)

    @pytest.mark.parametrize("split,m,l", [(0, 2, 1), (1, 1, 1), (1, 1, 2)])
    def test_swap_across_preliminary_boundary_rejected(self, split, m, l):
        # disjoint blocks, but they would move calls across the two preliminary ones
        s = Schedule(8, [(0, 1), (2, 3), (4, 5), (6, 7)], prelim=2)
        with pytest.raises(ValidationError):
            swap_blocks(s, split, m, l)
        assert swap_blocks(s, 0, 1, 1).prelim == swap_blocks(s, 2, 1, 1).prelim == 2

    @given(schedules(), st.data())
    def test_swap_preserves_final_state(self, s, data):
        length = len(s.calls)
        if length < 2:
            return
        split = data.draw(st.integers(0, length - 2))
        m = data.draw(st.integers(1, length - split - 1))
        l = data.draw(st.integers(1, length - split - m))
        block1 = s.calls[split : split + m]
        block2 = s.calls[split + m : split + m + l]
        people1 = {v for c in block1 for v in (c.a, c.b)}
        people2 = {v for c in block2 for v in (c.a, c.b)}
        if people1 & people2:
            with pytest.raises(ValidationError):
                swap_blocks(s, split, m, l)
        else:
            assert simulate(swap_blocks(s, split, m, l)) == simulate(s)


def _edited(kind: str, calls: list, pairs: list, rng: random.Random) -> list | None:
    """A copy of calls with one edit of the given kind, or None if none applies."""
    calls = list(calls)
    j = rng.randrange(len(calls))
    if kind in ("legal swap", "illegal swap"):
        legal = kind == "legal swap"
        js = [j for j in range(len(calls) - 1)
              if set(calls[j]).isdisjoint(calls[j + 1]) == legal]
        if not js:
            return None
        j = rng.choice(js)
        calls[j : j + 2] = calls[j + 1], calls[j]
    elif kind == "replaced call":
        calls[j] = rng.choice(pairs)
    elif kind == "shuffled window":
        hi = rng.randint(j + 1, len(calls))
        window = calls[j:hi]
        rng.shuffle(window)
        calls[j:hi] = window
    elif kind == "inserted call":
        calls.insert(j, rng.choice(pairs))
    return calls


class TestAreEquivalent:
    def test_reflexive(self, hub_tree_8):
        assert are_equivalent(hub_tree_8, hub_tree_8)

    def test_swap_output_is_equivalent(self):
        s = Schedule(5, [(0, 1), (2, 3), (1, 2)])
        assert are_equivalent(s, swap_blocks(s, 0, 1, 1))

    def test_order_sensitive_reordering_differs(self):
        s1 = Schedule(3, [(0, 1), (1, 2)])
        s2 = Schedule(3, [(1, 2), (0, 1)])
        assert not are_equivalent(s1, s2)

    def test_different_multiset_differs(self):
        # same final state, different calls
        s1 = Schedule(2, [(0, 1)])
        s2 = Schedule(2, [(0, 1), (0, 1)])
        assert not are_equivalent(s1, s2)

    def test_mismatched_n_rejected(self):
        with pytest.raises(ValidationError):
            are_equivalent(Schedule(2, [(0, 1)]), Schedule(3, [(0, 1)]))

    def test_states_reconverge_after_the_window(self):
        # after the window [0, 2) person 0 or person 2 is behind, and the
        # shared last call brings both schedules to everyone knowing everything
        s1 = Schedule(3, [(0, 1), (1, 2), (0, 2)])
        s2 = Schedule(3, [(1, 2), (0, 1), (0, 2)])
        assert simulate(Schedule(3, s1.calls[:2])) != simulate(Schedule(3, s2.calls[:2]))
        assert are_equivalent(s1, s2)

    def test_matches_reference_definition(self):
        """Seeded random pairs of each kind against the definition itself."""
        rng = random.Random(20)
        seen = Counter()
        for kind in ("identical", "legal swap", "illegal swap", "replaced call",
                     "shuffled window", "inserted call"):
            for _ in range(300):
                n = rng.randint(2, 6)
                pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
                calls = [rng.choice(pairs) for _ in range(rng.randint(2, 10))]
                edited = _edited(kind, calls, pairs, rng)
                if edited is None:
                    continue
                s1, s2 = Schedule(n, calls), Schedule(n, edited)
                want = Counter(s1.calls) == Counter(s2.calls) and simulate(s1) == simulate(s2)
                assert are_equivalent(s1, s2) == are_equivalent(s2, s1) == want, (s1, s2)
                seen[kind, want] += 1
        assert seen["identical", False] == seen["legal swap", False] == 0
        assert seen["inserted call", True] == 0
        assert all(seen[kind, want] for kind, want in [
            ("identical", True), ("legal swap", True), ("illegal swap", False),
            ("replaced call", True), ("replaced call", False),
            ("shuffled window", True), ("shuffled window", False), ("inserted call", False),
        ]), seen

    def test_swap_holds_about_one_state(self):
        """Checking a swap keeps one final state alive, not two."""
        s = synth_doubling(2040, 14, 2)
        j = next(j for j in range(700, len(s) - 1) if set(s.calls[j]).isdisjoint(s.calls[j + 1]))
        swapped = swap_blocks(s, j, 1, 1)

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(lambda: are_equivalent(s, swapped)) <= 1.25 * peak(lambda: simulate(s))


class TestDotExport:
    def test_labels_follow_chronology(self, hub_tree_8):
        dot = to_dot(hub_tree_8)
        assert 'graph calls {' in dot
        assert '0 -- 1 [label="1"];' in dot
        assert '3 -- 7 [label="7"];' in dot
        assert "dashed" not in dot

    def test_preliminary_edges_dashed_and_first(self, hub_tree_8_plus_one):
        dot = to_dot(hub_tree_8_plus_one)
        assert '2 -- 3 [label="1", style=dashed];' in dot
        assert '0 -- 1 [label="2"];' in dot
