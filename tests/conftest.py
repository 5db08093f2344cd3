"""Shared fixtures: reference schedules with hand-checked awareness profiles."""
from __future__ import annotations

import pytest

from partialgossip import Schedule


@pytest.fixture
def hub_tree_8() -> Schedule:
    """Minimal exactly-4-informing tree on 8 persons.

    Four hubs (0..3) double up knowledge in two rounds, then each hub
    informs one pendant (4..7).
    """
    return Schedule(8, [(0, 1), (0, 2), (1, 3), (0, 4), (1, 5), (2, 6), (3, 7)])


@pytest.fixture
def hub_tree_8_plus_one(hub_tree_8) -> Schedule:
    """The minimal tree with one preliminary call, lifting everyone to 5."""
    return Schedule(8, [(2, 3), *hub_tree_8.calls], prelim=1)


@pytest.fixture
def wide_exact4_tree_12() -> Schedule:
    """Exactly-4-informing tree on 12 persons: a 2x4 grid core with pendants.

    Two preliminary calls (4,5) and (2,3) lift every person to exactly 6.
    """
    return Schedule(
        12,
        [
            (0, 1),
            (2, 4), (3, 5),
            (0, 2), (4, 6), (1, 3), (5, 7),
            (4, 8), (6, 9), (5, 10), (7, 11),
        ],
    )


@pytest.fixture
def wide_exact4_tree_12_plus_two(wide_exact4_tree_12) -> Schedule:
    return Schedule(12, [(4, 5), (2, 3), *wide_exact4_tree_12.calls], prelim=2)


@pytest.fixture
def wide_exact4_tree_10() -> Schedule:
    """Exactly-4-informing tree on 10 persons, an asymmetric variant.

    Two preliminary calls (0,4) and (1,7) lift every person to exactly 6.
    """
    return Schedule(
        10,
        [
            (0, 6),
            (6, 7), (1, 2),
            (2, 4),
            (2, 3), (4, 5), (6, 8), (7, 9), (0, 1),
        ],
    )


@pytest.fixture
def wide_exact4_tree_10_plus_two(wide_exact4_tree_10) -> Schedule:
    return Schedule(10, [(0, 4), (1, 7), *wide_exact4_tree_10.calls], prelim=2)
