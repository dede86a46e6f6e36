import itertools
import re

import pytest
import yaml
from hypothesis import given, strategies as st

from crossflow.scenario import (
    ConflictClass,
    Leg,
    Movement,
    ParseError,
    ValidationError,
    classify_conflict,
    conflict_summary,
    default_intersection,
    dump_scenario,
    load_scenario,
)


def test_default_conflict_counts(default_cfg):
    summary = conflict_summary(default_cfg)
    assert summary["crossing_pairs"] == 24
    assert summary["converging_pairs"] == 6
    assert summary["diverging_pairs"] == 0
    assert summary["max_coexisting_movements"] == 6


def test_default_parameters(default_cfg):
    assert default_cfg.control_zone_length == 900.0
    assert default_cfg.v_max == 25.0
    assert default_cfg.a_max == 5.0
    assert default_cfg.a_min == -6.0
    assert default_cfg.platoon_speed == 10.0
    assert default_cfg.desired_gap == 30.0


def test_classify_example_pairs(ex1_scenario):
    cfg = ex1_scenario
    # crossing: the east left turn cuts the straight streams
    assert classify_conflict(cfg.movement(2), cfg.movement(3), cfg) is ConflictClass.CROSSING
    # converging: the south right turn merges into the outer west-east stream,
    # and the east right turn merges with the south straight
    assert classify_conflict(cfg.movement(5), cfg.movement(6), cfg) is ConflictClass.CONVERGING
    assert classify_conflict(cfg.movement(1), cfg.movement(4), cfg) is ConflictClass.CONVERGING
    # conflict-free
    assert classify_conflict(cfg.movement(3), cfg.movement(5), cfg) is ConflictClass.NONE


def test_same_leg_different_lane_pairs_are_free():
    # distinct movements never share an approach lane in a valid scenario
    # (diverging arises between vehicles queued on one movement instead),
    # and same-leg neighbors without a declared crossing simply coexist
    cfg = load_scenario(
        """
legs: [North, South, East]
movements:
  - {id: 1, approach_leg: North, approach_lane: 0, exit_leg: South, exit_lane: 0}
  - {id: 2, approach_leg: South, approach_lane: 0, exit_leg: North, exit_lane: 0}
  - {id: 3, approach_leg: South, approach_lane: 1, exit_leg: East, exit_lane: 0}
parameters: {L_ctrl: 900, v_max: 25, a_max: 5, a_min: -6, v_0: 10, D_des: 30}
crossing_pairs: []
"""
    )
    assert classify_conflict(cfg.movement(2), cfg.movement(3), cfg) is ConflictClass.NONE


def test_classify_rejects_same_movement(ex1_scenario):
    m = ex1_scenario.movement(1)
    with pytest.raises(ValidationError):
        classify_conflict(m, m, ex1_scenario)


def test_classify_rejects_unknown_movement(default_cfg):
    stranger = Movement(99, Leg.NORTH, 0, Leg.SOUTH, 0)
    with pytest.raises(ValidationError):
        classify_conflict(stranger, default_cfg.movement(1), default_cfg)


def test_classify_symmetric(default_cfg):
    for a, b in itertools.combinations(default_cfg.movements, 2):
        assert classify_conflict(a, b, default_cfg) is classify_conflict(b, a, default_cfg)


def test_none_pairs_absent_from_crossing_table(default_cfg):
    for a, b in itertools.combinations(default_cfg.movements, 2):
        if classify_conflict(a, b, default_cfg) is ConflictClass.NONE:
            key = (min(a.id, b.id), max(a.id, b.id))
            assert key not in default_cfg.crossing_pairs
            assert a.approach() != b.approach()
            assert a.exit() != b.exit()


def test_scenario_round_trip(default_cfg):
    text = dump_scenario(default_cfg)
    again = load_scenario(text)
    assert again == default_cfg


def test_scenario_round_trip_example(ex1_scenario):
    assert load_scenario(dump_scenario(ex1_scenario)) == ex1_scenario


def test_missing_desired_gap_names_field(default_cfg):
    import yaml

    doc = yaml.safe_load(dump_scenario(default_cfg))
    del doc["parameters"]["D_des"]
    with pytest.raises(ParseError, match="desired_gap"):
        load_scenario(yaml.safe_dump(doc))


def test_crossing_pair_sharing_lane_rejected(default_cfg):
    import yaml

    doc = yaml.safe_load(dump_scenario(default_cfg))
    # movements 1 and 2 approach on different lanes; forge a shared-exit pair
    doc["movements"][1]["exit_leg"] = doc["movements"][0]["exit_leg"]
    doc["movements"][1]["exit_lane"] = doc["movements"][0]["exit_lane"]
    ids = [doc["movements"][0]["id"], doc["movements"][1]["id"]]
    doc["crossing_pairs"].append(ids)
    with pytest.raises(ValidationError, match="exit lane"):
        load_scenario(yaml.safe_dump(doc))


def test_malformed_document_is_parse_error():
    with pytest.raises(ParseError):
        load_scenario("movements: [")
    with pytest.raises(ParseError):
        load_scenario("just_a_key: 1")


def test_shared_approach_lane_rejected():
    with pytest.raises(ValidationError, match="already hosts"):
        load_scenario(
            """
legs: [North, South, East]
movements:
  - {id: 1, approach_leg: North, approach_lane: 0, exit_leg: South, exit_lane: 0}
  - {id: 2, approach_leg: North, approach_lane: 0, exit_leg: East, exit_lane: 0}
crossing_pairs: []
parameters: {L_ctrl: 900, v_max: 25, a_max: 5, a_min: -6, v_0: 10, D_des: 30}
"""
        )


def test_u_turn_rejected():
    with pytest.raises(ValidationError, match="U-turn"):
        load_scenario(
            """
legs: [North, South]
movements:
  - {id: 1, approach_leg: North, approach_lane: 0, exit_leg: North, exit_lane: 1}
crossing_pairs: []
parameters: {L_ctrl: 900, v_max: 25, a_max: 5, a_min: -6, v_0: 10, D_des: 30}
"""
        )


@given(st.floats(min_value=-100, max_value=0))
def test_nonpositive_zone_rejected(bad_length):
    from crossflow.scenario import IntersectionConfig

    with pytest.raises(ValidationError, match="L_ctrl"):
        IntersectionConfig(
            movements=(Movement(1, Leg.NORTH, 0, Leg.SOUTH, 0),
                       Movement(2, Leg.SOUTH, 0, Leg.NORTH, 0)),
            crossing_pairs=frozenset(),
            control_zone_length=bad_length,
            v_max=25.0, a_max=5.0, a_min=-6.0,
            platoon_speed=10.0, desired_gap=30.0,
        )


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("key", ["L_ctrl", "v_max", "a_max", "a_min", "v_0", "D_des",
                                 "dt", "initial_speed"])
def test_nonfinite_parameter_rejected(default_cfg, key, value):
    """Every parameter must be finite; NaN slips past a ``<= 0`` test."""
    doc = yaml.safe_load(dump_scenario(default_cfg))
    doc["parameters"][key] = value
    with pytest.raises(ValidationError, match=f"parameters.{key}: must be finite"):
        load_scenario(yaml.safe_dump(doc))


@pytest.mark.parametrize("section,edit", [
    ("movements[0]: id", lambda doc: doc["movements"][0].update(id=1.0)),
    ("movements[0]: approach_lane", lambda doc: doc["movements"][0].update(approach_lane=2.9)),
    ("movements[0]: exit_lane", lambda doc: doc["movements"][0].update(exit_lane=0.5)),
    ("movements[0]: id", lambda doc: doc["movements"][0].update(id=True)),
    ("crossing_pairs[0]: id", lambda doc: doc["crossing_pairs"].__setitem__(0, [2.7, 3])),
    ("parameters.D_des", lambda doc: doc["parameters"].update(D_des=True)),
    ("parameters.dt", lambda doc: doc["parameters"].update(dt=False)),
], ids=["id-float", "approach_lane-float", "exit_lane-float", "id-bool", "pair-float",
        "D_des-true", "dt-false"])
def test_numbers_are_refused_not_coerced(default_cfg, section, edit):
    """``int()`` would truncate a float id or lane and ``float()`` would read a
    YAML boolean as 0 or 1; the loader refuses both and names the field."""
    doc = yaml.safe_load(dump_scenario(default_cfg))
    edit(doc)
    with pytest.raises(ParseError, match="^" + re.escape(section)):
        load_scenario(yaml.safe_dump(doc))
