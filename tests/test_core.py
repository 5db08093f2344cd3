"""Simulation semantics, awareness queries and the schedule JSON format."""
from __future__ import annotations

import copy
import json
import pickle
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from partialgossip import (
    Call,
    Schedule,
    ValidationError,
    apply_preliminary,
    awareness,
    is_exact_k_informing,
    is_k_informing,
    schedule_from_json,
    schedule_to_json,
    simulate,
)
from partialgossip import graph, lemmas, oracle
from partialgossip.core import KnowledgeState, _Frozen, _Record


@st.composite
def schedules(draw, max_n: int = 6, max_calls: int = 8):
    n = draw(st.integers(2, max_n))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    calls = draw(st.lists(st.sampled_from(pairs), max_size=max_calls))
    return Schedule(n, calls)


class TestCallAndSchedule:
    def test_call_normalizes_order(self):
        assert Call(3, 1) == Call(1, 3)
        assert tuple(Call(1, 3)) == (1, 3)

    def test_self_call_rejected(self):
        with pytest.raises(ValidationError):
            Call(2, 2)

    def test_schedule_rejects_out_of_range_person(self):
        with pytest.raises(ValidationError):
            Schedule(3, [(0, 3)])

    def test_schedule_rejects_bad_n(self):
        with pytest.raises(ValidationError):
            Schedule(0, [])

    @pytest.mark.parametrize("n", [True, 3.0, "3", None])
    def test_schedule_rejects_non_int_n(self, n):
        # bool is an int subclass, but no person count
        with pytest.raises(ValidationError):
            Schedule(n, [(0, 1)])

    def test_repeated_pairs_allowed(self):
        s = Schedule(2, [(0, 1), (0, 1)])
        assert len(s.calls) == 2

    def test_preliminary_outside_universe_rejected(self):
        with pytest.raises(ValidationError):
            Schedule(3, [(0, 9), (0, 1)], prelim=1)

    @pytest.mark.parametrize("prelim", [-1, 3])
    def test_prelim_outside_call_range_rejected(self, prelim):
        with pytest.raises(ValidationError):
            Schedule(3, [(0, 1), (1, 2)], prelim=prelim)

    @pytest.mark.parametrize("prelim", [1.5, True])
    def test_schedule_rejects_non_int_prelim(self, prelim):
        # a float slice bound would fail later, in schedule_to_json and swap_blocks
        with pytest.raises(ValidationError, match="prelim must be an int"):
            Schedule(3, [(0, 1), (1, 2)], prelim=prelim)

    def test_call_is_a_validated_int_pair(self):
        c = Call(4, 2)
        a, b = c
        assert (a, b) == (c.a, c.b) == (2, 4)
        assert Call(2, 4) == c and hash(Call(2, 4)) == hash(c)
        assert type(pickle.loads(pickle.dumps(c))) is Call and copy.deepcopy(c) == c
        with pytest.raises(ValidationError):
            Call(-1, 2)

    @pytest.mark.parametrize("pair", [
        (0.9, 2), (2, 1.0), ("1", "2"), (True, 2), (1, False), (None, 1), (b"1", 2),
    ])
    def test_non_integer_ids_rejected(self, pair):
        # none of them is truncated, parsed or read as 0/1
        with pytest.raises(ValidationError, match="must be integers"):
            Call(*pair)
        with pytest.raises(ValidationError, match="must be integers"):
            Schedule(3, [(0, 1), pair])

    def test_integer_types_accepted(self):
        class Id:  # any type with __index__, such as numpy's integers
            def __init__(self, v):
                self.v = v

            def __index__(self):
                return self.v

        s = Schedule(3, [(Id(2), Id(0)), (1, Id(2))])
        assert s.calls == ((0, 2), (1, 2))
        assert all(type(p) is int for c in s.calls for p in c)


class TestFrozenRecords:
    """Schedule and KnowledgeState are values: equal, hashed and pickled alike."""

    @pytest.mark.parametrize("make", [
        lambda calls: Schedule(3, calls, prelim=1),
        lambda calls: simulate(Schedule(3, calls)),
    ], ids=["Schedule", "KnowledgeState"])
    def test_equal_values_hash_alike(self, make):
        a, b = make([(1, 0), (2, 1)]), make([Call(0, 1), Call(1, 2)])
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != make([(0, 2), (1, 2)])
        assert pickle.loads(pickle.dumps(a)) == a == copy.deepcopy(a)

    @pytest.mark.parametrize("record", [Schedule(2, [(0, 1)]), simulate(Schedule(2, [(0, 1)]))],
                             ids=["Schedule", "KnowledgeState"])
    def test_assignment_raises(self, record):
        for name in (*record.__slots__, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 1)
            with pytest.raises(AttributeError):
                delattr(record, name)

    def test_repr_names_the_fields(self):
        assert repr(Schedule(2, [(0, 1)])) == "Schedule(n=2, calls=((0, 1),), prelim=0)"
        assert repr(simulate(Schedule(2))) == "KnowledgeState(n=2, know=(1, 2))"


def _record_classes(base=_Record):
    """Every record class of the package: each subclass of _Record with fields."""
    for cls in base.__subclasses__():
        if cls.__slots__:
            yield cls
        yield from _record_classes(cls)


# one instance per record class, every field distinct from a fresh object()
_RECORD_EXAMPLES = {
    Schedule: lambda: Schedule(3, [(0, 1), (1, 2)], prelim=1),
    KnowledgeState: lambda: simulate(Schedule(3, [(0, 1)])),
    graph.CommGraph: lambda: graph.full_graph(Schedule(3, [(0, 1), (1, 2)])),
    oracle.SearchConfig: lambda: oracle.SearchConfig(3, 1.5, 7),
    oracle.SearchResult: lambda: oracle.min_calls_bruteforce(4, 4),
    oracle.SchemeStream: lambda: oracle.enumerate_tree_schemes(3),
    lemmas.LemmaReport: lambda: lemmas.LemmaReport(
        "L2", 3, [lemmas.Violation({"n": 5}, 2, 3)], 5, Counter({(5, 4, 1): 3}), 1, 1, 0.5),
    lemmas.LemmaParams: lambda: lemmas.LemmaParams(5, 6, 7, 2, 9, 1),
}
# the fields that == and repr leave out
_NOT_COMPARED = {(lemmas.LemmaReport, "elapsed")}
_NOT_PRINTED = {(oracle.SchemeStream, "schedules")}


def test_every_record_class_has_an_example():
    assert set(_record_classes()) == set(_RECORD_EXAMPLES)


@pytest.mark.parametrize("cls", list(_record_classes()), ids=lambda cls: cls.__name__)
class TestRecordContract:
    """== compares, and repr names, every field in __slots__ order but the
    listed exceptions."""

    def test_replacing_a_field_breaks_equality(self, cls):
        a = _RECORD_EXAMPLES[cls]()
        assert a == copy.copy(a)
        for name in cls.__slots__:
            b = copy.copy(a)
            object.__setattr__(b, name, object())
            assert (a == b) is ((cls, name) in _NOT_COMPARED), name

    def test_repr_names_every_field_in_order(self, cls):
        a = _RECORD_EXAMPLES[cls]()
        fields = ", ".join(f"{name}={getattr(a, name)!r}" for name in cls.__slots__
                           if (cls, name) not in _NOT_PRINTED)
        assert repr(a) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls", [cls for cls in _record_classes() if issubclass(cls, _Frozen)],
                         ids=lambda cls: cls.__name__)
def test_frozen_values_survive_pickle_and_deepcopy(cls):
    a = _RECORD_EXAMPLES[cls]()
    for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert b is not a and b == a and hash(b) == hash(a)


class TestSimulate:
    def test_single_call_symmetry(self):
        state = simulate(Schedule(2, [(0, 1)]))
        assert state.know == (0b11, 0b11)

    def test_initial_awareness_all_ones(self):
        assert awareness(simulate(Schedule(5))) == [1, 1, 1, 1, 1]

    def test_hub_tree_exactly_four(self, hub_tree_8):
        assert awareness(simulate(hub_tree_8)) == [4] * 8

    def test_hub_tree_plus_one_exactly_five(self, hub_tree_8_plus_one):
        assert awareness(simulate(hub_tree_8_plus_one)) == [5] * 8

    def test_wide_trees_exactly_four(self, wide_exact4_tree_12, wide_exact4_tree_10):
        assert awareness(simulate(wide_exact4_tree_12)) == [4] * 12
        assert awareness(simulate(wide_exact4_tree_10)) == [4] * 10

    def test_wide_trees_plus_two_exactly_six(
        self, wide_exact4_tree_12_plus_two, wide_exact4_tree_10_plus_two
    ):
        assert awareness(simulate(wide_exact4_tree_12_plus_two)) == [6] * 12
        assert awareness(simulate(wide_exact4_tree_10_plus_two)) == [6] * 10

    def test_no_preliminary_matches_plain_simulation(self, hub_tree_8):
        aug = Schedule(hub_tree_8.n, hub_tree_8.calls, prelim=0)
        assert apply_preliminary(aug) == simulate(hub_tree_8)


class TestInformingPredicates:
    def test_hub_tree_k4_true_k5_false(self, hub_tree_8):
        assert is_k_informing(hub_tree_8, 4)
        assert not is_k_informing(hub_tree_8, 5)

    def test_empty_schedule_not_2_informing(self):
        assert not is_k_informing(Schedule(4, []), 2)

    def test_exactness(self, hub_tree_8, hub_tree_8_plus_one):
        assert is_exact_k_informing(hub_tree_8, 4)
        assert is_exact_k_informing(hub_tree_8_plus_one, 5)

    def test_star_center_not_exact(self):
        star = Schedule(4, [(0, 1), (0, 2), (0, 3)])
        assert not is_exact_k_informing(star, 2)  # center ends with 4

    def test_k_out_of_range(self, hub_tree_8):
        with pytest.raises(ValidationError):
            is_k_informing(hub_tree_8, 0)
        with pytest.raises(ValidationError):
            is_k_informing(hub_tree_8, 9)


# ---------------------------------------------------------------------------
# simulation invariants
# ---------------------------------------------------------------------------

def prefix_states(s: Schedule) -> list:
    """States after 0, 1, ..., len(s) calls: the simulations of s's prefixes."""
    return [simulate(Schedule(s.n, s.calls[:j])) for j in range(len(s) + 1)]


@given(schedules())
def test_monotone_knowledge(s):
    states = prefix_states(s)
    assert states[0].know == tuple(1 << p for p in range(s.n))
    for before, after in zip(states, states[1:]):
        for x, y in zip(before.know, after.know):
            assert x & y == x  # no gossip is ever forgotten


@given(schedules())
def test_post_call_equality(s):
    states = prefix_states(s)
    for c, state in zip(s.calls, states[1:]):
        assert state.know[c.a] == state.know[c.b]


@given(schedules())
def test_conservation_matches_forward_closure(s):
    """g is known to p iff a chronologically increasing call path carries g to p."""
    final = simulate(s)
    for g in range(s.n):
        reached = {g}
        for c in s.calls:
            if c.a in reached or c.b in reached:
                reached.update((c.a, c.b))
        for p in range(s.n):
            assert ((final.know[p] >> g) & 1 == 1) == (p in reached)


@given(schedules(max_n=5, max_calls=6), st.data())
def test_preliminary_gain_bounded_by_list_length(s, data):
    pairs = [(a, b) for a in range(s.n) for b in range(a + 1, s.n)]
    prelim = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3))
    before = awareness(simulate(s))
    after = awareness(simulate(Schedule(s.n, [*prelim, *s.calls], prelim=len(prelim))))
    assert all(b - a <= len(prelim) for a, b in zip(before, after))


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

class TestScheduleJson:
    def test_round_trip_is_byte_exact(self, wide_exact4_tree_12_plus_two):
        text = schedule_to_json(wide_exact4_tree_12_plus_two)
        again = schedule_to_json(schedule_from_json(text))
        assert text == again

    def test_key_order_fixed(self, hub_tree_8):
        text = schedule_to_json(hub_tree_8)
        assert text.startswith('{"n":8,"preliminary":[],"calls":[[0,1],')

    def test_preliminary_defaults_to_empty(self):
        aug = schedule_from_json('{"n": 2, "calls": [[0, 1]]}')
        assert aug.calls[: aug.prelim] == ()
        assert aug.calls[aug.prelim :] == (Call(0, 1),)

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[1,2]",
            '{"calls": []}',
            '{"n": "two", "calls": []}',
            '{"n": 2, "calls": [[0]]}',
            '{"n": 2, "calls": [[0, 2]]}',
            '{"n": 2, "calls": [[0, 0]]}',
            '{"n": 2, "calls": [[0, 1]], "preliminary": [[0, "x"]]}',
            '{"n": true, "calls": []}',
            '{"n": 3, "calls": [[true, 2]]}',
            '{"n": 3, "calls": [], "preliminary": [[0, false]]}',
        ],
    )
    def test_malformed_documents_rejected(self, text):
        with pytest.raises(ValidationError):
            schedule_from_json(text)

    @pytest.mark.parametrize("text", ["[" * 100_000, "1" * 5_000, '{"n": ' + "9" * 5_000 + "}"])
    def test_pathological_json_rejected(self, text):
        # nesting deeper than the recursion limit, integers too long to convert
        with pytest.raises(ValidationError):
            schedule_from_json(text)


@st.composite
def _any_schedules(draw):
    """Schedules with or without preliminary calls, empty call lists included."""
    n = draw(st.integers(1, 40))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda c: c[0] != c[1])
    calls = draw(st.lists(pair, max_size=12)) if n > 1 else []
    return Schedule(n, calls, prelim=draw(st.integers(0, len(calls))))


@given(_any_schedules(), st.sampled_from([None, 0, 1, 2, 4]))
def test_writer_matches_json_dumps(s, indent):
    """The writer is byte for byte the json.dumps layout of the document."""
    doc = {"n": s.n, "preliminary": [list(c) for c in s.calls[: s.prelim]],
           "calls": [list(c) for c in s.calls[s.prelim :]]}
    if indent is None:
        want = json.dumps(doc, separators=(",", ":"))
    else:
        want = json.dumps(doc, indent=indent)
    assert schedule_to_json(s, indent=indent) == want


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "calls", "preliminary", "x"]), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def _documents(draw):
    """Schedule documents: well formed, or with ids, pairs or n slightly off."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 9))
        pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    else:
        n = draw(st.integers(-1, 9))
        pair = st.lists(st.integers(-1, n) | st.booleans(), min_size=1, max_size=3)
    doc = {"n": n, "calls": draw(st.lists(pair, max_size=5))}
    if draw(st.booleans()):
        doc["preliminary"] = draw(st.lists(pair, max_size=3))
    return doc


@given(_json_values | _documents())
def test_from_json_parses_or_rejects_and_round_trips(doc):
    """Any JSON value parses or raises ValidationError; accepted ones round-trip."""
    text = json.dumps(doc)
    try:
        s = schedule_from_json(text)
    except ValidationError:
        return
    out = schedule_to_json(s)
    assert schedule_to_json(schedule_from_json(out)) == out
    assert json.loads(out) == {
        "n": doc["n"],
        "preliminary": [sorted(c) for c in doc.get("preliminary", [])],
        "calls": [sorted(c) for c in doc["calls"]],
    }
