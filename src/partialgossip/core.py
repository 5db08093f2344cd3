"""Calls, schedules and the gossip-spreading simulation.

Persons are dense 0-based integers; the gossip initially known by person p
is identified with p itself.  Knowledge sets are bitmasks over gossip ids
(Python ints, so width is unbounded).  A call merges the two participants'
sets; calls are strictly sequential and always exchange everything.
"""
from __future__ import annotations

import json
from itertools import chain, islice
from operator import index, itemgetter
from typing import Iterable, Sequence


class ValidationError(ValueError):
    """Raised for malformed schedules, out-of-range parameters, bad input files."""


class Call(tuple):
    """An unordered pair of distinct persons, stored as the int pair (a, b) with a < b.

    Chronological position lives in the schedule.  A call unpacks, compares,
    hashes and serializes as the plain pair.
    """

    __slots__ = ()

    def __new__(cls, a, b):
        if type(a) is not int or type(b) is not int:
            # int() would truncate 0.9 to 0 and parse "1"; index() takes
            # integer types only (numpy's too), bool among them
            try:
                if type(a) is bool or type(b) is bool:
                    raise TypeError
                a, b = index(a), index(b)
            except TypeError:
                raise ValidationError(
                    f"person ids must be integers, got ({a!r},{b!r})") from None
        if a == b:
            raise ValidationError(f"self-call ({a},{b}) is not allowed")
        if a < 0 or b < 0:
            raise ValidationError(f"negative person id in call ({a},{b})")
        return tuple.__new__(cls, (a, b) if a < b else (b, a))

    a = property(itemgetter(0))
    b = property(itemgetter(1))

    def __getnewargs__(self):  # pickle and copy rebuild the call from its pair
        return tuple(self)


class _Record:
    """A record whose fields are its class's ``__slots__``, in constructor
    order; the records of the package derive from it.

    ``_key()``, the fields that ``==`` compares between instances of one
    class, and ``repr`` both list every slot; a class overrides ``_key`` or
    ``__repr__`` only to leave a field out.
    """

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__name__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()


class _Frozen(_Record):
    """A value: its slots are the constructor's arguments, set once, in
    ``__init__``, and never reassigned; hash and pickle use ``_key()``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        return self.__class__, self._key()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Schedule(_Frozen):
    """A universe of n persons plus a chronological call sequence.

    The first ``prelim`` calls are preliminary: they run first, like any
    other call, and may involve persons that the later calls never touch
    ("outsiders").  Repeated pairs are allowed (the communication graph is a
    multigraph) and calls need not touch every person.
    """

    __slots__ = ("n", "calls", "prelim")

    def __init__(self, n: int, calls: Iterable = (), prelim: int = 0):
        if type(n) is not int:  # bool and float would not print as a JSON integer
            raise ValidationError(f"person count must be an int, got {n!r}")
        if n < 1:
            raise ValidationError(f"person count must be >= 1, got {n}")
        if type(prelim) is not int:  # a float fails as a slice bound; bool is no count
            raise ValidationError(f"prelim must be an int, got {prelim!r}")
        normalized = tuple(c if type(c) is Call else Call(*c) for c in calls)
        for j, (a, b) in enumerate(normalized):
            if b >= n:
                kind = "preliminary call" if j < prelim else "call"
                raise ValidationError(f"{kind} ({a},{b}) references person >= n={n}")
        if not 0 <= prelim <= len(normalized):
            raise ValidationError(f"prelim={prelim} out of range [0, {len(normalized)}]")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "calls", normalized)
        object.__setattr__(self, "prelim", prelim)

    def __len__(self) -> int:
        return len(self.calls)


class KnowledgeState(_Frozen):
    """Per-person gossip bitmasks at some moment in time."""

    __slots__ = ("n", "know")

    def __init__(self, n: int, know: tuple[int, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "know", know)

    def awareness(self) -> list[int]:
        return [x.bit_count() for x in self.know]


def run_calls(know: list[int], calls: Iterable[tuple[int, int]]) -> list[int]:
    """Apply (a, b) calls in order to a mutable bitmask vector (in place) and return it.

    Every simulation that returns a full state, of a schedule or of a bare
    pair list, goes through it; ``_sweep`` is the pass for final awareness
    alone, which drops each row after its person's last call.
    """
    for a, b in calls:
        u = know[a] | know[b]
        know[a] = u
        know[b] = u
    return know


def _sweep(n: int, calls: Sequence[tuple[int, int]],
           stop: int | None = None) -> tuple[list[int], list[int]]:
    """Run ``calls[:stop]`` (all of them by default) from the initial state,
    holding a person's row only from their first call to their last.

    Returns ``(aw, rows)``.  ``aw[p]`` is p's final awareness for every p
    with no call from ``stop`` on (1 for a person with no call at all), and
    ``rows[p]`` is p's bitmask after ``calls[:stop]`` for every other p, 0
    otherwise.  After a person's last call the row's popcount goes to ``aw``
    and the row is dropped, so memory follows the persons still calling,
    not all n.
    """
    if stop is None:
        stop = len(calls)
    # ends[2j] is 1 iff call j is the last of its first person, ends[2j + 1]
    # iff of its second: a person's last position in the flattened calls.
    # A person whose last call comes at or after stop is never dropped.
    last = [-1] * n
    for pos, p in enumerate(chain.from_iterable(calls)):
        last[p] = pos
    ends = bytearray(2 * len(calls))
    for pos in last:
        if pos >= 0:
            ends[pos] = 1
    del last  # frees an int per person before the rows are built
    aw = [1] * n
    rows = [0] * n
    for (a, b), a_ends, b_ends in zip(calls, ends[: 2 * stop : 2], ends[1 : 2 * stop : 2]):
        u = (rows[a] or 1 << a) | (rows[b] or 1 << b)
        if a_ends:
            aw[a] = u.bit_count()
            rows[a] = 0
        else:
            rows[a] = u
        if b_ends:
            aw[b] = u.bit_count()
            rows[b] = 0
        else:
            rows[b] = u
    for p in chain.from_iterable(islice(calls, stop, None)):
        rows[p] = rows[p] or 1 << p
    return aw, rows


def simulate(s: Schedule) -> KnowledgeState:
    """Run every call of the schedule, preliminary ones first, from the initial state.

    Deterministic: each call (a,b) replaces both participants' sets with
    their union.  A call between persons with identical knowledge is legal
    and a no-op.  It holds all n final rows; a caller that needs only the
    awareness profile reads ``_sweep``, which drops each row after its
    person's last call.
    """
    know = run_calls([1 << p for p in range(s.n)], s.calls)
    return KnowledgeState(s.n, tuple(know))


def apply_preliminary(s: Schedule) -> KnowledgeState:
    """Simulate the preliminary calls, then the others, over the whole universe."""
    know = run_calls([1 << p for p in range(s.n)], s.calls)
    return KnowledgeState(s.n, tuple(know))


def awareness(ks: KnowledgeState) -> list[int]:
    """Number of gossips each person knows."""
    return ks.awareness()


def max_informing_level(s: Schedule) -> int:
    """Largest k for which the schedule is k-informing (min final awareness)."""
    return min(_sweep(s.n, s.calls)[0])


def _check_k(n: int, k: int) -> None:
    if not 1 <= k <= n:
        raise ValidationError(f"k={k} out of range [1, n={n}]")


def is_k_informing(s: Schedule, k: int) -> bool:
    """True iff after all calls every person knows at least k gossips."""
    _check_k(s.n, k)
    return min(_sweep(s.n, s.calls)[0]) >= k


def is_exact_k_informing(s: Schedule, k: int) -> bool:
    """True iff after all calls every person knows exactly k gossips."""
    _check_k(s.n, k)
    return all(a == k for a in _sweep(s.n, s.calls)[0])


# ---------------------------------------------------------------------------
# Schedule JSON interchange format
#
#   {"n": <int>, "preliminary": [[a,b],...], "calls": [[a,b],...]}
#
# "preliminary" is optional and defaults to empty; it holds the schedule's
# first ``prelim`` calls.  Ids are 0-based.  Key order and separators are
# fixed so output files are byte-stable.
# ---------------------------------------------------------------------------

def schedule_to_json(s: Schedule, *, indent: int | None = None) -> str:
    """The document as ``json.dumps`` lays it out: compact separators without
    ``indent``, else its indented layout, built directly from the pairs."""
    if indent is None:
        nl, colon, pad = "", ":", ""
    else:
        nl, colon, pad = "\n", ": ", " " * indent
    in1 = nl + pad
    in2 = in1 + pad
    in3 = in2 + pad
    pair = f"[{in3}%d,{in3}%d{in2}]".__mod__
    sep = "," + in2

    def array(calls) -> str:
        return f"[{in2}{sep.join(map(pair, calls))}{in1}]" if calls else "[]"

    return (f'{{{in1}"n"{colon}{s.n},{in1}"preliminary"{colon}{array(s.calls[: s.prelim])},'
            f'{in1}"calls"{colon}{array(s.calls[s.prelim :])}{nl}}}')


def schedule_from_json(text: str) -> Schedule:
    """Parse the interchange format; malformed documents raise ValidationError."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:
        # ValueError covers JSONDecodeError and integers too long to convert
        raise ValidationError(f"not valid JSON: {e}") from e
    if type(doc) is not dict:
        raise ValidationError("schedule document must be a JSON object")
    if "n" not in doc or "calls" not in doc:
        raise ValidationError('schedule document needs "n" and "calls" keys')
    # json.loads gives exact types: true and false parse to bool, not int
    n = doc["n"]
    if type(n) is not int:
        raise ValidationError('"n" must be an integer')
    raw_calls = doc["calls"]
    raw_pre = doc.get("preliminary", [])
    for name, raw in (("calls", raw_calls), ("preliminary", raw_pre)):
        if type(raw) is not list:
            raise ValidationError(f'"{name}" must be a list of [a,b] integer pairs')
        for c in raw:
            if type(c) is not list or len(c) != 2 or type(c[0]) is not int or type(c[1]) is not int:
                raise ValidationError(f'"{name}" must be a list of [a,b] integer pairs')
    return Schedule(n, raw_pre + raw_calls, prelim=len(raw_pre))
