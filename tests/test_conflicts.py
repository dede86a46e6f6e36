import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

import crossflow.conflicts
from crossflow.conflicts import (
    ConflictSets,
    ContractError,
    VehicleRecord,
    build_cdg,
    build_conflict_sets,
    build_cug,
    nominal_remaining,
    reachability_conflict,
)
from crossflow.scenario import ValidationError, default_intersection

from .conftest import make_sets
from .instances import graph_instances, mixed_fleets, random_instance, sampled_instance
from .oracles import (
    bitset,
    edge_coexistence,
    edge_connected,
    edge_exchangeable_parents,
    edge_hard_parents,
    edge_set_cdg,
    members,
    pairwise_conflict_sets,
    reachability_threshold,
)


def test_reachability_examples(default_cfg):
    # zero distance: the predecessor is at the stopping line
    assert reachability_conflict(0.0, default_cfg) is True
    # 300 m at platoon speed takes 30 s; a fresh entrant needs 38.5 s
    assert reachability_conflict(300.0, default_cfg) is True
    # 400 m takes 40 s, which a fresh entrant can beat
    assert reachability_conflict(400.0, default_cfg) is False


def test_reachability_threshold_value(default_cfg):
    # 10 * (900/25 + 25/10) = 385 m with the default parameters
    assert reachability_threshold(default_cfg) == pytest.approx(385.0)


@given(st.floats(min_value=0, max_value=2000))
def test_reachability_monotone(distance):
    cfg = __import__("crossflow.scenario", fromlist=["default_intersection"]).default_intersection()
    threshold = reachability_threshold(cfg)
    assert reachability_conflict(distance, cfg) is (distance < threshold)


def test_reachability_rejects_negative_distance(default_cfg):
    with pytest.raises(ContractError):
        reachability_conflict(-1.0, default_cfg)


def test_example_conflict_sets(ex1_scenario, ex1_records, ex1_sets):
    assert build_conflict_sets(ex1_records, ex1_scenario) == ex1_sets


def test_single_vehicle_sets(ex1_scenario):
    records = [VehicleRecord(1, 1, 0.0, 2.0)]
    (cs,) = build_conflict_sets(records, ex1_scenario)
    assert members(cs.crossing) == frozenset()
    assert members(cs.diverging) == frozenset({0})
    assert members(cs.converging) == frozenset()
    assert members(cs.reachability) == frozenset()


def test_unsorted_records_rejected(ex1_scenario):
    records = [VehicleRecord(2, 1, 0.0, 2.0), VehicleRecord(1, 2, 0.1, 2.0)]
    with pytest.raises(ContractError):
        build_conflict_sets(records, ex1_scenario)


def test_conflict_sets_validate_membership():
    with pytest.raises(ContractError):
        ConflictSets(3, bitset({4}), bitset({0}), 0, 0)
    with pytest.raises(ContractError):
        ConflictSets(3, bitset({2}), bitset({2}), 0, 0)
    with pytest.raises(ContractError):
        ConflictSets(3, bitset({0}), 0, 0, 0)
    with pytest.raises(ContractError, match="negative"):
        ConflictSets(3, 0, bitset({0}), 0, -2)


CLASSES = ("crossing", "diverging", "converging", "reachability")


@pytest.mark.parametrize("first,second", itertools.combinations(CLASSES, 2))
def test_conflict_sets_refuse_every_overlap(first, second):
    """A vehicle shared by any two of the four classes is refused."""
    sets = dict.fromkeys(CLASSES, 0) | {first: bitset({1, 2}), second: bitset({2, 4})}
    with pytest.raises(ContractError, match="^vehicle 5: conflict sets overlap$"):
        ConflictSets(5, **sets)


@pytest.mark.parametrize("name", CLASSES)
def test_conflict_sets_refuse_negative_top_member_and_misplaced_leader(name):
    others = {other: bitset({1}) if other == "diverging" else 0 for other in CLASSES}
    with pytest.raises(ContractError, match="^vehicle 5: negative conflict bitset$"):
        ConflictSets(5, **{**dict.fromkeys(CLASSES, 0), name: -1})
    with pytest.raises(ContractError, match="^vehicle 5: conflict member 5 does not precede it$"):
        ConflictSets(5, **{**dict.fromkeys(CLASSES, 0), name: bitset({2, 5})})
    if name == "diverging":
        assert ConflictSets(5, **{**others, name: bitset({0})}).diverging == 1
    else:
        with pytest.raises(ContractError, match="virtual leader allowed only in diverging"):
            ConflictSets(5, **{**others, name: bitset({0, 3})})
    # one member per class, all below the vehicle, is accepted
    ConflictSets(5, crossing=bitset({1}), diverging=bitset({2}), converging=bitset({3}),
                 reachability=bitset({4}))


def test_departed_predecessor_ignored(ex1_scenario):
    # vehicle 2 enters long after vehicle 1 left the zone on the same lane
    records = [VehicleRecord(1, 3, 0.0, 2.0), VehicleRecord(2, 3, 500.0, 2.0)]
    sets = build_conflict_sets(records, ex1_scenario)
    assert members(sets[1].diverging) == frozenset({0})


def test_example_cdg_edges(ex1_cdg):
    assert ex1_cdg.lane_edges == frozenset(
        {(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 7), (5, 6)}
    )
    assert ex1_cdg.reach_edges == frozenset({(1, 7), (2, 7)})
    assert ex1_cdg.crossing_edges == frozenset(
        {(2, 3), (2, 4), (3, 4), (2, 5), (4, 5), (2, 6), (4, 6)}
    )
    assert ex1_cdg.converging_edges == frozenset({(1, 4), (5, 7), (6, 7)})
    assert ex1_cdg.unidirectional & ex1_cdg.bidirectional == frozenset()


def test_cdg_trivial_cases():
    assert build_cdg([]).n == 0
    single = build_cdg(make_sets([(1, (), (0,), (), ())]))
    assert single.lane_edges == frozenset({(0, 1)})
    assert single.bidirectional == frozenset()


def test_cdg_rejects_bad_ordering():
    with pytest.raises(ContractError):
        make_sets([(1, (2,), (0,), (), ())])


def test_example_cug_edges(ex1_cug):
    assert ex1_cug.edges == frozenset(
        {(1, 2), (1, 3), (1, 5), (1, 6), (3, 5), (3, 6), (3, 7), (4, 7)}
    )


def test_cug_complement_extremes():
    # complete conflict graph: empty coexistence
    rows = [(1, (), (0,), (), ())]
    for j in range(2, 5):
        rows.append((j, tuple(range(1, j)), (0,), (), ()))
    cdg = build_cdg(make_sets(rows))
    assert build_cug(cdg).edges == frozenset()
    # only leader edges: complete coexistence
    rows = [(j, (), (0,), (), ()) for j in range(1, 5)]
    cdg = build_cdg(make_sets(rows))
    assert len(build_cug(cdg).edges) == 6


def test_cug_excludes_whole_lane_chain():
    # three vehicles on one lane: only consecutive pairs carry lane edges,
    # but none of the three may coexist
    rows = [(1, (), (0,), (), ()), (2, (), (1,), (), ()), (3, (), (2,), (), ())]
    cdg = build_cdg(make_sets(rows))
    cug = build_cug(cdg)
    assert not cug.adjacent(1, 3)
    assert not cug.adjacent(1, 2)
    assert list(cug.lanes) == [bitset((1, 2, 3))]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_complement_property(seed):
    """Exactly one of conflict-or-same-lane and coexistence per pair."""
    _, _, cdg = random_instance(seed)
    cug = build_cug(cdg)
    lane_pairs = set()
    for lane in cug.lanes:
        for a in members(lane):
            for b in members(lane):
                if a < b:
                    lane_pairs.add((a, b))
    for i in range(1, cdg.n + 1):
        for j in range(i + 1, cdg.n + 1):
            connected = cdg.connected(i, j) or (i, j) in lane_pairs
            assert connected != cug.adjacent(i, j)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_eq6_ordering_and_lane_chain(seed):
    records, sets, cdg = random_instance(seed)
    for cs in sets:
        ids = members(cs.crossing | cs.diverging | cs.converging | cs.reachability)
        assert all(m < cs.vehicle for m in ids)
    # lane edges follow arrival order along one movement, and each lane of
    # the coexistence graph holds one movement's vehicles
    movement = {rec.id: rec.movement for rec in records}
    for i, j in cdg.lane_edges:
        assert i == 0 or (i < j and movement[i] == movement[j])
    for lane in build_cug(cdg).lanes:
        assert len({movement[v] for v in members(lane)}) == 1


@settings(max_examples=80, deadline=None)
@given(mixed_fleets())
def test_lanes_partition_the_vehicles_on_mixed_fleets(records):
    """The coexistence graph's lanes partition the vehicles, in order of
    their first vehicle, and are the components of the lane edges between
    vehicles.  Mixed entry speeds can fork a lane (an entrant overtakes on
    the nominal profile, and two followers name one predecessor); the fork
    stays one lane."""
    cdg = build_cdg(build_conflict_sets(records, default_intersection()))
    lanes = list(build_cug(cdg).lanes)
    assert sorted(v for lane in lanes for v in members(lane)) == list(range(1, cdg.n + 1))
    assert [min(members(lane)) for lane in lanes] == sorted(
        j for i, j in cdg.lane_edges if i == 0)
    lane_of = {v: k for k, lane in enumerate(lanes) for v in members(lane)}
    for i, j in cdg.lane_edges:
        assert i == 0 or lane_of[i] == lane_of[j]


@settings(max_examples=40, deadline=None)
@given(graph_instances())
def test_adjacency_matches_edge_sets(instance):
    """Masks, predecessor sets and the CUG equal the edge-set definitions."""
    _, _, cdg = instance
    for i in range(cdg.n + 1):
        assert members(cdg.fixed[i]) == edge_hard_parents(cdg, i)
        assert members(cdg.exchangeable[i]) == edge_exchangeable_parents(cdg, i)
        for j in range(cdg.n + 1):
            assert cdg.connected(i, j) is edge_connected(cdg, i, j)
    assert build_cug(cdg).edges == edge_coexistence(cdg)


def test_sampled_fleets_reach_reachability_edges():
    """The sampled gap-20 fleets of ``graph_instances`` do carry reachability edges."""
    _, _, cdg = sampled_instance(3, 80, 20.0)
    assert cdg.reach_edges
    assert build_cug(cdg).edges == edge_coexistence(cdg)


def test_unknown_entering_movement_rejected(default_cfg):
    records = [VehicleRecord(1, 1, 0.0, 2.0), VehicleRecord(2, 99, 0.5, 2.0)]
    with pytest.raises(ValidationError, match="99"):
        build_conflict_sets(records, default_cfg)


def test_nominal_remaining_profile(ex1_scenario):
    records = [VehicleRecord(1, 1, 0.0, 2.0)]
    remaining = nominal_remaining(records, ex1_scenario)
    assert remaining(1, 0.0) == pytest.approx(900.0)
    # ramp from 2 to 10 m/s at 5 m/s^2 covers 9.6 m in 1.6 s
    assert remaining(1, 1.6) == pytest.approx(890.4)
    assert remaining(1, 11.6) == pytest.approx(790.4)


def _assert_cdg_matches_edge_sets(sets):
    cdg, oracle = build_cdg(sets), edge_set_cdg(sets)
    assert cdg.n == oracle.n
    assert cdg.mask == oracle.mask
    assert cdg.fixed == oracle.fixed
    assert cdg.exchangeable == oracle.exchangeable
    for family in ("lane_edges", "reach_edges", "crossing_edges", "converging_edges"):
        assert getattr(cdg, family) == getattr(oracle, family)


@settings(max_examples=60, deadline=None)
@given(graph_instances())
def test_sweep_and_cdg_match_pairwise_oracles(instance):
    """The departure sweep gives the pairwise check's sets; the bitset CDG the edge sets'."""
    records, sets, _ = instance
    assert sets == pairwise_conflict_sets(records, default_intersection())
    _assert_cdg_matches_edge_sets(sets)


# The default scenario, and three whose sweep inverts the nominal profile in
# its other closed-form branches: at v_0 = 22.5 m/s the lock distance is
# reached during the entry ramp, at v_0 = 25 m/s it lies beyond the zone
# (the ``-inf`` branch), and in a 50 m zone the line is reached on the ramp.
SWEEP_SCENARIOS = ({}, {"platoon_speed": 22.5}, {"platoon_speed": 25.0},
                   {"control_zone_length": 50.0})


@settings(max_examples=160, deadline=None)
@given(mixed_fleets(), st.sampled_from(SWEEP_SCENARIOS))
def test_sweep_matches_pairwise_oracle_on_mixed_fleets(records, changes):
    """Mixed entry speeds (the sweep's order then differs from entry order),
    simultaneous entries and predecessors that crossed before the entrant came,
    in the default scenario and the three above."""
    cfg = dataclasses.replace(default_intersection(), **changes)
    sets = build_conflict_sets(records, cfg)
    assert sets == pairwise_conflict_sets(records, cfg)
    _assert_cdg_matches_edge_sets(sets)


def test_sweep_evaluates_the_distance_model_linearly(monkeypatch):
    """In light traffic most predecessors have left: the sweep asks the nominal
    model about each vehicle a bounded number of times, not once per pair
    (n^2/2 = 499 500 calls at n = 1000)."""
    calls = 0
    model = crossflow.conflicts.nominal_remaining

    def counted(records, cfg):
        remaining = model(records, cfg)

        def count(vehicle, t):
            nonlocal calls
            calls += 1
            return remaining(vehicle, t)
        return count

    monkeypatch.setattr(crossflow.conflicts, "nominal_remaining", counted)
    n = 1000
    records, sets, _ = sampled_instance(1, n, 20.0)
    assert calls <= 5 * n
    assert sets == pairwise_conflict_sets(records, default_intersection())
