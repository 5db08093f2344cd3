"""Calls, schedules and the gossip-spreading simulation.

Persons are dense 0-based integers; the gossip initially known by person p
is identified with p itself.  Knowledge sets are bitmasks over gossip ids
(Python ints, so width is unbounded).  A call merges the two participants'
sets; calls are strictly sequential and always exchange everything.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence, Union


class ValidationError(ValueError):
    """Raised for malformed schedules, out-of-range parameters, bad input files."""


PairLike = Union["Call", Sequence[int]]


@dataclass(frozen=True, order=True)
class Call:
    """An unordered pair of distinct persons; chronological position lives in the schedule."""

    a: int
    b: int

    def __post_init__(self):
        a, b = self.a, self.b
        if a == b:
            raise ValidationError(f"self-call ({a},{b}) is not allowed")
        if a < 0 or b < 0:
            raise ValidationError(f"negative person id in call ({a},{b})")
        if a > b:  # stored normalized a < b
            object.__setattr__(self, "a", b)
            object.__setattr__(self, "b", a)

    def participants(self) -> frozenset[int]:
        return frozenset((self.a, self.b))

    def as_pair(self) -> tuple[int, int]:
        return (self.a, self.b)


def as_call(c) -> Call:
    if isinstance(c, Call):
        return c
    a, b = c
    return Call(int(a), int(b))


@dataclass(frozen=True)
class Schedule:
    """A universe of n persons plus a chronological call sequence.

    Repeated pairs are allowed (the communication graph is a multigraph) and
    calls need not touch every person.
    """

    n: int
    calls: tuple[Call, ...]

    def __init__(self, n: int, calls: Iterable[PairLike] = ()):
        if n < 1:
            raise ValidationError(f"person count must be >= 1, got {n}")
        normalized = tuple(as_call(c) for c in calls)
        for c in normalized:
            if c.b >= n:
                raise ValidationError(f"call ({c.a},{c.b}) references person >= n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "calls", normalized)

    def __len__(self) -> int:
        return len(self.calls)

    def pairs(self) -> list[tuple[int, int]]:
        return [c.as_pair() for c in self.calls]


@dataclass(frozen=True)
class AugmentedSchedule:
    """A base schedule enlarged by preliminary calls executed first.

    Preliminary calls may involve persons that never appear in the base
    calls ("outsiders"), but every id must fit the base universe [0, n).
    """

    preliminary: tuple[Call, ...]
    base: Schedule

    def __init__(self, preliminary: Iterable[PairLike], base: Schedule):
        pre = tuple(as_call(c) for c in preliminary)
        for c in pre:
            if c.b >= base.n:
                raise ValidationError(
                    f"preliminary call ({c.a},{c.b}) references person >= n={base.n}"
                )
        object.__setattr__(self, "preliminary", pre)
        object.__setattr__(self, "base", base)

    @property
    def n(self) -> int:
        return self.base.n

    def all_calls(self) -> tuple[Call, ...]:
        return self.preliminary + self.base.calls


@dataclass(frozen=True)
class KnowledgeState:
    """Per-person gossip bitmasks at some moment in time."""

    n: int
    know: tuple[int, ...]

    def awareness(self) -> list[int]:
        return [x.bit_count() for x in self.know]

    def gossip_set(self, p: int) -> frozenset[int]:
        x = self.know[p]
        return frozenset(g for g in range(self.n) if (x >> g) & 1)


def initial_state(n: int) -> KnowledgeState:
    return KnowledgeState(n, tuple(1 << p for p in range(n)))


def run_calls(know: list[int], calls: Iterable[Call]) -> list[int]:
    """Apply calls in order to a mutable bitmask vector (in place) and return it."""
    for c in calls:
        u = know[c.a] | know[c.b]
        know[c.a] = u
        know[c.b] = u
    return know


def simulate(s: Schedule) -> KnowledgeState:
    """Run every call of the schedule from the initial state.

    Deterministic: each call (a,b) replaces both participants' sets with
    their union.  A call between persons with identical knowledge is legal
    and a no-op.
    """
    know = run_calls([1 << p for p in range(s.n)], s.calls)
    return KnowledgeState(s.n, tuple(know))


def simulate_prefixes(s: Schedule) -> list[KnowledgeState]:
    """States after 0, 1, ..., len(calls) calls (used by invariant checks)."""
    know = [1 << p for p in range(s.n)]
    out = [KnowledgeState(s.n, tuple(know))]
    for c in s.calls:
        u = know[c.a] | know[c.b]
        know[c.a] = u
        know[c.b] = u
        out.append(KnowledgeState(s.n, tuple(know)))
    return out


def apply_preliminary(aug: AugmentedSchedule) -> KnowledgeState:
    """Simulate preliminary calls, then the base calls, over the combined universe."""
    know = run_calls([1 << p for p in range(aug.n)], aug.all_calls())
    return KnowledgeState(aug.n, tuple(know))


def awareness(ks: KnowledgeState) -> list[int]:
    """Number of gossips each person knows."""
    return ks.awareness()


def _check_k(n: int, k: int) -> None:
    if not 1 <= k <= n:
        raise ValidationError(f"k={k} out of range [1, n={n}]")


def is_k_informing(s: Schedule, k: int) -> bool:
    """True iff after all calls every person knows at least k gossips."""
    _check_k(s.n, k)
    return min(simulate(s).awareness()) >= k


def is_exact_k_informing(s: Schedule, k: int) -> bool:
    """True iff after all calls every person knows exactly k gossips."""
    _check_k(s.n, k)
    return all(a == k for a in simulate(s).awareness())


# ---------------------------------------------------------------------------
# Schedule JSON interchange format
#
#   {"n": <int>, "preliminary": [[a,b],...], "calls": [[a,b],...]}
#
# "preliminary" is optional and defaults to empty; ids are 0-based.  Key
# order and separators are fixed so output files are byte-stable.
# ---------------------------------------------------------------------------

def schedule_to_json(obj: "Schedule | AugmentedSchedule", *, indent: int | None = None) -> str:
    if isinstance(obj, AugmentedSchedule):
        pre, base = obj.preliminary, obj.base
    else:
        pre, base = (), obj
    doc = {
        "n": base.n,
        "preliminary": [[c.a, c.b] for c in pre],
        "calls": [[c.a, c.b] for c in base.calls],
    }
    if indent is None:
        return json.dumps(doc, separators=(",", ":"))
    return json.dumps(doc, indent=indent)


def _is_json_int(x) -> bool:
    """A JSON integer; true and false parse to bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


def schedule_from_json(text: str) -> AugmentedSchedule:
    """Parse the interchange format; malformed documents raise ValidationError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ValidationError("schedule document must be a JSON object")
    if "n" not in doc or "calls" not in doc:
        raise ValidationError('schedule document needs "n" and "calls" keys')
    n = doc["n"]
    if not _is_json_int(n):
        raise ValidationError('"n" must be an integer')
    raw_calls = doc["calls"]
    raw_pre = doc.get("preliminary", [])
    for name, raw in (("calls", raw_calls), ("preliminary", raw_pre)):
        if not isinstance(raw, list) or not all(
            isinstance(c, list) and len(c) == 2 and all(_is_json_int(x) for x in c)
            for c in raw
        ):
            raise ValidationError(f'"{name}" must be a list of [a,b] integer pairs')
    base = Schedule(n, [tuple(c) for c in raw_calls])
    return AugmentedSchedule([tuple(c) for c in raw_pre], base)
