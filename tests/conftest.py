from __future__ import annotations

import pytest

from crossflow.conflicts import ConflictSets, build_cdg, build_conflict_sets, build_cug
from crossflow.presets import example1_arrivals, example1_scenario
from crossflow.scenario import default_intersection

from .oracles import bitset


def make_sets(rows) -> list[ConflictSets]:
    """rows: (vehicle, crossing, diverging, converging, reachability), each set
    of member ids turned into its bitset."""
    return [
        ConflictSets(
            vehicle=v,
            crossing=bitset(c),
            diverging=bitset(d),
            converging=bitset(g),
            reachability=bitset(r),
        )
        for v, c, d, g, r in rows
    ]


# Conflict sets of the seven-vehicle example, frozen from the source analysis.
EXAMPLE1_SETS = [
    (1, (), (0,), (), ()),
    (2, (), (0,), (), ()),
    (3, (2,), (0,), (), ()),
    (4, (2, 3), (0,), (1,), ()),
    (5, (2, 4), (0,), (), ()),
    (6, (2, 4), (5,), (), ()),
    (7, (), (0,), (5, 6), (1, 2)),
]


@pytest.fixture(scope="session")
def default_cfg():
    return default_intersection()


@pytest.fixture(scope="session")
def ex1_scenario():
    return example1_scenario()


@pytest.fixture(scope="session")
def ex1_records():
    return example1_arrivals()


@pytest.fixture(scope="session")
def ex1_sets():
    return make_sets(EXAMPLE1_SETS)


@pytest.fixture(scope="session")
def ex1_cdg(ex1_sets):
    return build_cdg(ex1_sets)


@pytest.fixture(scope="session")
def ex1_cug(ex1_cdg):
    return build_cug(ex1_cdg)
