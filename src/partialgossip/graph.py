"""Communication-multigraph analysis and the block-swap equivalence transform."""
from __future__ import annotations

import enum
from collections import Counter
from itertools import chain, compress, count, groupby
from operator import ge, itemgetter, ne
from typing import Iterable

from .core import Call, Schedule, ValidationError, _Frozen, _sweep, run_calls


class ComponentKind(enum.Enum):
    TREE = "tree"           # connected, |E| = |V| - 1
    UNICYCLIC = "unicyclic"  # connected, |E| = |V| (a doubled edge counts as the cycle)
    OTHER = "other"          # connected, |E| > |V|

    def __str__(self) -> str:
        return self.value


class CommGraph(_Frozen):
    """A multigraph of persons and timestamped calls.

    ``vertices`` normally equals the set of call endpoints; components
    produced by splitting may be single vertices with no calls.
    """

    __slots__ = ("vertices", "edges")

    # edges are (call, timestamp) pairs, timestamps strictly increasing
    def __init__(self, vertices: frozenset[int], edges: tuple[tuple[Call, int], ...]):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        stamps = list(map(itemgetter(1), edges))
        if any(map(ge, stamps, stamps[1:])):
            raise ValidationError("edge timestamps must strictly increase")
        if not vertices.issuperset(chain.from_iterable(self.calls())):
            a, b = next(c for c in self.calls() if not vertices.issuperset(c))
            raise ValidationError(f"edge ({a},{b}) endpoint outside vertex set")

    def calls(self) -> list[Call]:
        return list(map(itemgetter(0), self.edges))


def full_graph(s: Schedule) -> CommGraph:
    """Communication graph generated by every call of the schedule."""
    return CommGraph(frozenset(chain.from_iterable(s.calls)), tuple(zip(s.calls, range(len(s)))))


def _components(vertices: Iterable[int], calls: list[Call]) -> list[tuple[set[int], int]]:
    """Connected components of the multigraph with their edge counts, in order
    of their smallest vertex.

    Union-find with path halving (Tarjan, JACM 1975; Tarjan and van Leeuwen,
    JACM 1984); a last pass points every vertex straight at its root.
    """
    parent = {v: v for v in vertices}
    for a, b in calls:
        while (up := parent[a]) != a:
            parent[a] = a = parent[up]
        while (up := parent[b]) != b:
            parent[b] = b = parent[up]
        parent[a] = b
    for v in parent:
        root = v
        while (up := parent[root]) != root:
            parent[root] = root = parent[up]
        parent[v] = root
    root_of = parent.__getitem__
    n_edges = Counter(map(root_of, map(itemgetter(0), calls)))  # b shares a's root
    groups = groupby(sorted(parent, key=root_of), key=root_of)
    return sorted(((set(members), n_edges[root]) for root, members in groups),
                  key=lambda comp: min(comp[0]))


def classify_components(g: CommGraph) -> list[tuple[frozenset[int], ComponentKind]]:
    """Partition into connected components, each labeled tree / unicyclic / other."""
    out = []
    for comp, n_edges in _components(g.vertices, g.calls()):
        if n_edges == len(comp) - 1:
            kind = ComponentKind.TREE
        elif n_edges == len(comp):
            kind = ComponentKind.UNICYCLIC
        else:
            kind = ComponentKind.OTHER
        out.append((frozenset(comp), kind))
    return out


def is_spanning_tree(s: Schedule) -> bool:
    """True iff the full communication graph is one tree covering all n persons."""
    return 0 < len(s.calls) == s.n - 1 and len(_components(range(s.n), s.calls)) == 1


def first_call_split(s: Schedule) -> tuple[CommGraph, CommGraph]:
    """Delete the chronologically first call of a tree schedule.

    Returns the two resulting components (the first containing the lower
    endpoint of the removed call), each carrying its own induced call
    subsequence.  Either side may be a single vertex with no calls.

    The graph is one tree exactly when the other calls form two components,
    one holding each endpoint of the first call, with |V| - 2 edges.
    """
    if not s.calls:
        raise ValidationError("schedule has no calls to split on")
    (a, b), rest = s.calls[0], s.calls[1:]
    vertices = set(chain.from_iterable(s.calls))
    sides = [comp for comp, _ in _components(vertices, rest)]
    if len(sides) != 2 or len(rest) != len(vertices) - 2 or (a in sides[0]) == (b in sides[0]):
        raise ValidationError("first_call_split requires a single tree communication graph")
    if b in sides[0]:  # components come in order of their smallest vertex
        sides.reverse()
    edges = tuple(zip(rest, count(1)))
    return tuple(CommGraph(frozenset(side), tuple(e for e in edges if e[0].a in side))
                 for side in sides)


def swap_blocks(s: Schedule, split: int, m: int, l: int) -> Schedule:
    """Exchange the adjacent call blocks [split, split+m) and [split+m, split+m+l).

    Legal only when the two blocks have disjoint participant sets, in which
    case the result has the same communication graph and the same final
    knowledge state.  The blocks must both lie among the preliminary calls
    or both after them; the result keeps the schedule's ``prelim``.
    """
    end = split + m + l
    if split < 0 or m < 0 or l < 0 or end > len(s.calls):
        raise ValidationError(
            f"blocks [{split},{split + m}) and [{split + m},{end}) "
            f"out of range for {len(s.calls)} calls"
        )
    if split < s.prelim < end:
        raise ValidationError(
            f"blocks [{split},{split + m}) and [{split + m},{end}) straddle the "
            f"{s.prelim} preliminary calls"
        )
    block1 = s.calls[split : split + m]
    block2 = s.calls[split + m : end]
    people1 = {v for c in block1 for v in c}
    people2 = {v for c in block2 for v in c}
    if people1 & people2:
        raise ValidationError(
            f"blocks share participants {sorted(people1 & people2)}; swap rule does not apply"
        )
    return Schedule(s.n, s.calls[:split] + block2 + block1 + s.calls[end:], s.prelim)


def are_equivalent(s1: Schedule, s2: Schedule) -> bool:
    """Conservative equivalence check: same call multiset and same final state.

    This is a pair of checkable necessary conditions for two schedules being
    connected by block swaps, not a decision procedure for swap reachability.

    Only the window ``[lo, hi)`` between the first and the last position
    where the call sequences differ is compared: the shared prefix and
    suffix add the same calls to both multisets.  The prefix is run once by
    ``core._sweep``, which keeps only the rows of persons with a call from
    ``lo`` on: the same persons in both once the windows' multisets agree,
    and everyone else ends with the same row in both.  That state is copied
    (a list of references to the same ints) and each window run from it.
    Equal states after the windows stay equal under the same suffix, so the
    answer is True without running it; otherwise both suffixes run, since
    states can reconverge, and two states are held.
    """
    if s1.n != s2.n:
        raise ValidationError(f"person counts differ: {s1.n} != {s2.n}")
    c1, c2 = s1.calls, s2.calls
    if len(c1) != len(c2):
        return False
    lo = next(compress(count(), map(ne, c1, c2)), None)
    if lo is None:
        return True
    hi = len(c1) - next(compress(count(), map(ne, reversed(c1), reversed(c2))))
    if Counter(c1[lo:hi]) != Counter(c2[lo:hi]):
        return False
    know1 = _sweep(s1.n, c1, lo)[1]
    know2 = run_calls(know1.copy(), c2[lo:hi])
    if run_calls(know1, c1[lo:hi]) == know2:
        return True
    return run_calls(know1, c1[hi:]) == run_calls(know2, c2[hi:])


def to_dot(s: Schedule) -> str:
    """Render a schedule as Graphviz DOT.

    Edges carry their 1-based chronological index (preliminary calls first);
    preliminary calls are drawn dashed, mirroring the usual diagrams.
    """
    lines = ["graph calls {", "  node [shape=circle];"]
    lines += [f"  {p};" for p in range(s.n)]
    for j, (a, b) in enumerate(s.calls):
        style = ", style=dashed" if j < s.prelim else ""
        lines.append(f'  {a} -- {b} [label="{j + 1}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
