from __future__ import annotations

import pathlib

import pytest
import yaml

from crossflow.cli import load_arrivals
from crossflow.conflicts import ConflictSets, build_cdg, build_cug
from crossflow.scenario import (_FILE_PARAMS, IntersectionConfig, default_intersection,
                                load_scenario_file)

from .oracles import bitset

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"


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


def dump_scenario(cfg: IntersectionConfig) -> str:
    """Serialize a config back into the scenario document format."""
    doc = {
        "legs": sorted({m.approach_leg.value for m in cfg.movements}
                       | {m.exit_leg.value for m in cfg.movements}),
        "movements": [
            {
                "id": m.id,
                "approach_leg": m.approach_leg.value,
                "approach_lane": m.approach_lane,
                "exit_leg": m.exit_leg.value,
                "exit_lane": m.exit_lane,
            }
            for m in cfg.movements
        ],
        "crossing_pairs": [list(p) for p in sorted(cfg.crossing_pairs)],
        "parameters": {key: getattr(cfg, attr) for key, (attr, _, _) in _FILE_PARAMS.items()},
    }
    return yaml.safe_dump(doc, sort_keys=False)


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
    return load_scenario_file(str(DATA / "example1_scenario.yaml"))


@pytest.fixture(scope="session")
def ex1_records(ex1_scenario):
    return load_arrivals(str(DATA / "example1_arrivals.csv"), ex1_scenario.initial_speed)


@pytest.fixture(scope="session")
def ex1_sets():
    return make_sets(EXAMPLE1_SETS)


@pytest.fixture(scope="session")
def ex1_cdg(ex1_sets):
    return build_cdg(ex1_sets)


@pytest.fixture(scope="session")
def ex1_cug(ex1_cdg):
    return build_cug(ex1_cdg)
