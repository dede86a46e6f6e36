import dataclasses
from collections import Counter
from collections.abc import Sequence

import pytest
from hypothesis import assume, given, settings, strategies as st

from crossflow.conflicts import CoexistenceGraph, ContractError, build_cug
from crossflow.scheduling import (
    BRUTE_CAP,
    CliqueCover,
    RepairError,
    SizeLimitError,
    SpanningTree,
    _GrowingTree,
    _cover_layers,
    _lay_layers,
    _place,
    _ranked_covers,
    _tree_from_layers,
    dfst_schedule,
    idfst_schedule,
    mcc_bruteforce,
    mcc_greedy,
    order_layers,
    schedule_cover_tree,
    verify_feasible,
)

from .conftest import make_sets
from .instances import graph_instances, mixed_fleets, random_instance, sampled_instance
from .oracles import (
    best_ordering_cost,
    bitset,
    both_ways,
    canonical_cover,
    class_cover,
    cover_to_tree,
    depth_of,
    edge_coexistence,
    edge_connected,
    edge_greedy_cover,
    edge_set_cdg,
    edge_set_feasibility,
    find_opt_parent,
    first_ordered_layers,
    group_conflicted,
    lane_lists,
    least_dealings_by_vehicle,
    min_feasible_depth,
    members,
    memo_layer_search,
    minimum_clique_covers,
    minimum_covers_by_partition,
    minimum_covers_by_vehicle,
    ordering_objective,
    plain_layer_search,
    ranked_covers_by_vehicle,
    renumbered_greedy_cover,
    scanning_relayering,
    scanning_tree,
    shallowest_admissible_layer,
    straight_layers,
    validate_cover,
)
from crossflow.conflicts import VehicleRecord, build_cdg, build_conflict_sets
from crossflow.scenario import default_intersection

DEFAULT = default_intersection()

# The six minimum covers of the seven-vehicle example, canonicalized.
EXAMPLE1_MIN_COVERS = {
    ((1, 3, 5), (4, 7), (2,), (6,)),
    ((1, 3, 6), (4, 7), (2,), (5,)),
    ((1, 2), (3, 5), (4, 7), (6,)),
    ((1, 2), (3, 6), (4, 7), (5,)),
    ((1, 5), (3, 6), (4, 7), (2,)),
    ((1, 6), (3, 5), (4, 7), (2,)),
}


def published_partial_tree(up_to: int) -> SpanningTree:
    """The worked example's published tree truncated after ``up_to`` vehicles."""
    parent = {1: 0, 2: 0, 3: 1, 4: 3, 5: 4, 6: 5, 7: 2}
    depth = {1: 1, 2: 1, 3: 2, 4: 3, 5: 4, 6: 5, 7: 2}
    return SpanningTree(parent={i: parent[i] for i in range(1, up_to + 1)},
                        depth={i: depth[i] for i in range(1, up_to + 1)})


class TestDfst:
    def test_example_depths(self, ex1_cdg):
        tree = dfst_schedule(ex1_cdg)
        assert [tree.depth[i] for i in range(1, 8)] == [1, 1, 2, 3, 4, 5, 6]
        assert tree.depth[7] == 6
        assert tree.d_all == 6

    def test_single_vehicle(self):
        cdg = build_cdg(make_sets([(1, (), (0,), (), ())]))
        tree = dfst_schedule(cdg)
        assert tree.depth == {1: 1}
        assert tree.d_all == 1

    def test_conflict_free_fleet(self):
        rows = [(j, (), (0,), (), ()) for j in range(1, 6)]
        tree = dfst_schedule(build_cdg(make_sets(rows)))
        assert set(tree.depth.values()) == {1}


class TestFindOptParent:
    def test_late_vehicle_slots_into_second_layer(self):
        tree = published_partial_tree(6)
        assert find_opt_parent(tree, {0, 1, 2}, {5, 6}) == 2

    def test_blocked_layers_force_third(self):
        tree = published_partial_tree(3)
        assert find_opt_parent(tree, {0}, {1, 2, 3}) == 3

    def test_unconstrained_returns_root(self):
        tree = SpanningTree(parent={}, depth={})
        assert find_opt_parent(tree, {0}, set()) == 0

    def test_requires_candidates(self):
        with pytest.raises(ContractError):
            find_opt_parent(SpanningTree(parent={}, depth={}), set(), set())

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_never_fails_on_generated_instances(self, seed):
        _, _, cdg = random_instance(seed)
        idfst_schedule(cdg)  # raises RuntimeError if the search ever fails


@pytest.mark.parametrize("up_to,fixed,exchangeable", [
    (6, {0, 1, 2}, {5, 6}), (3, {0}, {1, 2, 3}), (6, set(), {5, 6}), (6, set(), {1, 3}),
])
def test_place_takes_find_opt_parent_layer(up_to, fixed, exchangeable):
    """idfst's step on bitsets puts a vehicle on the reference's child layer,
    with and without a fixed-order parent."""
    tree = published_partial_tree(up_to)
    expected = depth_of(tree, find_opt_parent(tree, fixed, exchangeable)) + 1
    _place(_GrowingTree(tree), up_to + 1, bitset(fixed), bitset(exchangeable), improved=True)
    assert tree.depth[up_to + 1] == expected


@pytest.mark.parametrize("improved", [False, True])
@pytest.mark.parametrize("fixed,exchangeable", [((), ()), ((0,), (5,)), ((7,), (1,))])
def test_place_rejects_parents_outside_the_tree(improved, fixed, exchangeable):
    """The trees' step raises on an empty or unplaced parent, never reading a
    depth that does not exist."""
    growing = _GrowingTree(published_partial_tree(3))
    with pytest.raises(ContractError, match="parents"):
        _place(growing, 4, bitset(fixed), bitset(exchangeable), improved=improved)


class TestIdfst:
    def test_example_schedule(self, ex1_cdg):
        """Frozen behavior of the shallowest-admissible-layer rule.

        The published worked table leaves vehicle 5 at layer 4 although
        layer 2 is admissible; acceptance criterion 1b checks the table
        against this rule, and CHANGES.md gives the evidence.
        """
        tree = idfst_schedule(ex1_cdg)
        assert [tree.parent[i] for i in range(1, 8)] == [0, 0, 1, 3, 2, 4, 5]
        assert [tree.depth[i] for i in range(1, 8)] == [1, 1, 2, 3, 2, 4, 3]
        assert tree.d_all == 4

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_each_vehicle_takes_shallowest_admissible_layer(self, seed):
        _, _, cdg = random_instance(seed)
        tree = idfst_schedule(cdg)
        for i in range(1, cdg.n + 1):
            placed = {j: tree.depth[j] for j in range(1, i)}
            assert tree.depth[i] == shallowest_admissible_layer(cdg, i, placed)

    def test_late_vehicle_depth(self, ex1_cdg):
        assert idfst_schedule(ex1_cdg).depth[7] < dfst_schedule(ex1_cdg).depth[7]

    def test_same_lane_chain_forces_full_depth(self):
        rows = [(1, (), (0,), (), ())] + [(j, (), (j - 1,), (), ()) for j in range(2, 7)]
        tree = idfst_schedule(build_cdg(make_sets(rows)))
        assert [tree.depth[j] for j in range(1, 7)] == list(range(1, 7))


class TestMccGreedy:
    def test_example_cover(self, ex1_cug):
        cover = mcc_greedy(ex1_cug)
        validate_cover(cover, ex1_cug)
        assert cover.theta == 4

    def test_edgeless_graph_needs_singletons(self):
        rows = [(1, (), (0,), (), ())]
        for j in range(2, 6):
            rows.append((j, tuple(range(1, j)), (0,), (), ()))
        cug = build_cug(build_cdg(make_sets(rows)))
        cover = mcc_greedy(cug)
        assert cover.theta == 5
        assert max(len(members(s)) for s in cover.subsets) == 1

    def test_complete_graph_is_one_clique(self):
        rows = [(j, (), (0,), (), ()) for j in range(1, 6)]
        cug = build_cug(build_cdg(make_sets(rows)))
        cover = mcc_greedy(cug)
        assert cover.theta == 1
        assert max(len(members(s)) for s in cover.subsets) == 5


    @settings(max_examples=40, deadline=None)
    @given(graph_instances())
    def test_matches_edge_set_reference(self, instance):
        self.assert_first_fit_by_vehicle(instance[2])

    @staticmethod
    def assert_first_fit_by_vehicle(cdg):
        """The cover equals the vehicle-by-vehicle first fit's, on the edge
        set and on the pool's own bitsets; returns the graph's twin classes."""
        cug = build_cug(cdg)
        subsets = mcc_greedy(cug).subsets
        assert [members(s) for s in subsets] == edge_greedy_cover(cdg.n, edge_coexistence(cdg))
        assert list(subsets) == renumbered_greedy_cover(cug.pool, cug.conflict)
        return {cug.pool & (cug.conflict[v] | 1 << v) for v in members(cug.pool)}

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_first_fit_by_class_on_one_class_per_lane(self, seed):
        """n = 400 at gap 1 s: the 400 vehicles fall into 12 twin classes."""
        assert len(self.assert_first_fit_by_vehicle(sampled_instance(seed, 400, 1.0)[2])) == 12

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("speeds", [(2.0,), (0.0, 2.0, 10.0, 14.0)])
    def test_first_fit_by_class_with_few_twins(self, seed, speeds):
        """n = 200 at gap 5 s, at the sampler's entry speed and at entry
        speeds cycling through a standing start and a braking approach:
        classes hold two or three vehicles on average, or fewer."""
        records = [dataclasses.replace(rec, entry_speed=speeds[rec.id % len(speeds)])
                   for rec in sampled_instance(seed, 200, 5.0)[0]]
        cdg = build_cdg(build_conflict_sets(records, DEFAULT))
        assert len(self.assert_first_fit_by_vehicle(cdg)) > 200 // 3

    @settings(max_examples=40, deadline=None)
    @given(mixed_fleets())
    def test_first_fit_by_class_on_mixed_fleets(self, records):
        self.assert_first_fit_by_vehicle(build_cdg(build_conflict_sets(records, DEFAULT)))


class TestMccBruteforce:
    def test_example_theta_and_solutions(self, ex1_cug):
        covers = minimum_clique_covers(ex1_cug)
        assert {canonical_cover(c.subsets) for c in covers} == EXAMPLE1_MIN_COVERS
        assert all(c.theta == 4 for c in covers)

    def test_example_preferred_cover(self, ex1_cug):
        best = mcc_bruteforce(ex1_cug)
        assert canonical_cover(best.subsets) == ((1, 3, 5), (4, 7), (2,), (6,))

    def test_triangle_is_single_clique(self):
        rows = [(j, (), (0,), (), ()) for j in range(1, 4)]
        cug = build_cug(build_cdg(make_sets(rows)))
        assert mcc_bruteforce(cug).theta == 1

    def test_cap_guards_blowup(self):
        """Every exact route refuses a pool above ``BRUTE_CAP`` and takes one at it."""
        assert BRUTE_CAP == 12
        for n in (BRUTE_CAP + 1, BRUTE_CAP):
            _, _, cdg = sampled_instance(1, n, 3.0)
            cug = build_cug(cdg)
            routes = (lambda: mcc_bruteforce(cug), lambda: minimum_clique_covers(cug),
                      lambda: schedule_cover_tree(cug, cdg, exact=True))
            for route in routes:
                if n > BRUTE_CAP:
                    with pytest.raises(SizeLimitError, match="mcc_greedy"):
                        route()
                else:
                    route()


class TestCoverToTree:
    def test_example_solution_layers(self, ex1_cdg, ex1_cug):
        tree = cover_to_tree(mcc_bruteforce(ex1_cug), ex1_cdg)
        assert tree.layers() == [[1, 3, 5], [4, 7], [2], [6]]
        assert tree.d_all == 4
        assert verify_feasible(tree, ex1_cdg).ok

    def test_lane_order_repair(self, ex1_cdg):
        # this cover puts the rear same-lane vehicle in the first layer;
        # the repair must exchange the two and land on the preferred layout
        cover = CliqueCover(subsets=(bitset({1, 3, 6}), bitset({4, 7}), bitset({2}),
                                     bitset({5})))
        tree = cover_to_tree(cover, ex1_cdg)
        assert tree.layers() == [[1, 3, 5], [4, 7], [2], [6]]
        assert tree.d_all == 4
        assert verify_feasible(tree, ex1_cdg).ok

    def test_singleton_cover_is_chain(self, ex1_cdg):
        cover = CliqueCover(subsets=tuple(bitset({j}) for j in range(1, 8)))
        tree = cover_to_tree(cover, ex1_cdg)
        assert tree.d_all == 7
        assert verify_feasible(tree, ex1_cdg).ok

    def test_parent_is_lowest_of_previous_layer(self, ex1_cdg, ex1_cug):
        tree = cover_to_tree(mcc_bruteforce(ex1_cug), ex1_cdg)
        assert tree.parent[4] == 1
        assert tree.parent[7] == 1
        assert tree.parent[2] == 4
        assert tree.parent[6] == 2

    def test_rejects_non_partition(self, ex1_cdg):
        cover = CliqueCover(subsets=(bitset({1, 2}),))
        with pytest.raises(ContractError):
            cover_to_tree(cover, ex1_cdg)


class TestVerifyFeasible:
    def test_same_depth_crossing_pair_reported(self, ex1_cdg):
        parent = {1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 1, 7: 1}
        depth = {1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 2, 7: 2}
        tree = SpanningTree(parent=parent, depth=depth)
        report = verify_feasible(tree, ex1_cdg)
        assert not report.ok
        assert (2, 3) in report.same_depth_conflicts

    def test_lane_inversion_reported(self, ex1_cdg):
        parent = {1: 0, 2: 0, 3: 1, 4: 3, 5: 4, 6: 0, 7: 2}
        depth = {1: 1, 2: 1, 3: 2, 4: 3, 5: 4, 6: 1, 7: 2}
        tree = SpanningTree(parent=parent, depth=depth)
        report = verify_feasible(tree, ex1_cdg)
        assert not report.ok
        assert (5, 6) in report.order_violations

    @settings(max_examples=30, deadline=None)
    @given(graph_instances())
    def test_one_layer_reports_every_conflict(self, instance):
        """All vehicles in layer 1: every conflicting pair and lane edge is reported."""
        _, _, cdg = instance
        flat = SpanningTree(parent={i: 0 for i in range(1, cdg.n + 1)},
                            depth={i: 1 for i in range(1, cdg.n + 1)})
        report = verify_feasible(flat, cdg)
        pairs = [(i, j) for i in range(1, cdg.n + 1) for j in range(i + 1, cdg.n + 1)
                 if edge_connected(cdg, i, j)]
        assert report.same_depth_conflicts == pairs
        assert sorted(report.order_violations) == sorted(e for e in cdg.lane_edges if e[0])
        assert report.ok is not (pairs or any(e[0] for e in cdg.lane_edges))

    def test_published_example_layout_is_feasible(self, ex1_cdg):
        tree = published_partial_tree(7)
        assert verify_feasible(tree, ex1_cdg).ok

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(graph_instances().map(lambda instance: instance[1]),
                     mixed_fleets().map(lambda records: build_conflict_sets(records, DEFAULT))),
           st.sampled_from(("dfst", "idfst", "mcc-greedy")), st.data())
    def test_matches_edge_set_oracle_on_relayered_trees(self, sets, algorithm, data):
        """A scheduler's tree, then a random re-layering of it that also puts one
        conflicting pair in a layer and one lane follower at or above its
        predecessor: both lists equal the edge-set oracle's, the same-layer pairs
        in its order."""
        cdg = build_cdg(sets)
        schedule = {"dfst": dfst_schedule, "idfst": idfst_schedule,
                    "mcc-greedy": lambda g: schedule_cover_tree(build_cug(g), g, exact=False)}
        tree = schedule[algorithm](cdg)
        report = verify_feasible(tree, cdg)
        assert report.ok and edge_set_feasibility(tree.depth, sets) == ([], [])
        depth = dict(tree.depth)
        depth.update(data.draw(st.lists(st.tuples(st.integers(1, cdg.n),
                                                  st.integers(1, tree.d_all + 1)), max_size=5)))
        conflicting = edge_set_feasibility(dict.fromkeys(depth, 1), sets)[0]
        if conflicting:
            i, j = data.draw(st.sampled_from(conflicting))
            depth[j] = depth[i]
        lane = sorted((i, j) for i, j in edge_set_cdg(sets).lane_edges if i)
        if lane:
            i, j = data.draw(st.sampled_from(lane))
            depth[i] = depth[j] + data.draw(st.integers(0, 1))
        relayered = _relayered(depth)
        report = verify_feasible(relayered, cdg)
        same, order = edge_set_feasibility(relayered.depth, sets)
        assert report.same_depth_conflicts == same
        assert sorted(report.order_violations) == sorted(order)
        assert report.ok is not bool(same or order)
        assert bool(order) is bool(lane)


def _relayered(depth: dict[int, int]) -> SpanningTree:
    """A tree whose layers keep the order of ``depth``'s, numbered 1, 2, ..; each
    vehicle hangs under the lowest id one layer up, or under the leader."""
    rank = {d: k for k, d in enumerate(sorted(set(depth.values())), start=1)}
    layered = {v: rank[d] for v, d in depth.items()}
    lowest = {0: 0}
    for v in sorted(layered):
        lowest.setdefault(layered[v], v)
    return SpanningTree(parent={v: lowest[d - 1] for v, d in layered.items()}, depth=layered)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_all_methods_emit_feasible_trees(seed):
    _, _, cdg = random_instance(seed)
    cug = build_cug(cdg)
    exact_tree = schedule_cover_tree(cug, cdg, exact=True)
    for tree in (dfst_schedule(cdg), idfst_schedule(cdg),
                 schedule_cover_tree(cug, cdg, exact=False), exact_tree):
        assert verify_feasible(tree, cdg).ok
    assert exact_tree.d_all == mcc_bruteforce(cug).theta


def test_unorderable_cover_raises():
    """A cover can be unorderable when reachability conflicts break the
    lane symmetry; the direct conversion reports it and the scheduling
    pipeline falls back to idfst's tree (sampler seed 4445 is such an
    instance)."""
    _, _, cdg = random_instance(4445, 4, 9)
    cug = build_cug(cdg)
    with pytest.raises(RepairError):
        cover_to_tree(mcc_greedy(cug), cdg)
    tree = schedule_cover_tree(cug, cdg, exact=False)
    assert tree == idfst_schedule(cdg)
    assert verify_feasible(tree, cdg).ok


def test_light_traffic_cover_falls_back_to_idfst():
    """Light traffic, n = 60 at gap 20 s.  Seed 1's greedy cover orders into
    its θ layers.  Seed 13's cover has no ordering (the search fails in
    full) and falls back to idfst's tree, 19 layers deep.  Seed 14's cover
    orders into 23 layers, as deep as idfst's tree (a search without the
    lane-pair projection runs out of budget on it).  At n = 100,
    gap 10 s, seed 25 the search still runs out of budget, and the route
    falls back to idfst's tree."""
    for seed, theta in ((1, 21), (14, 23)):
        _, _, cdg = sampled_instance(seed, 60, 20.0)
        cug = build_cug(cdg)
        tree = schedule_cover_tree(cug, cdg, exact=False)
        assert verify_feasible(tree, cdg).ok
        assert tree.d_all == mcc_greedy(cug).theta == theta
    assert tree.d_all == idfst_schedule(cdg).d_all  # seed 14's

    for (n, headway, seed), d_all in (((60, 20.0, 13), 19), ((100, 10.0, 25), 31)):
        _, _, cdg = sampled_instance(seed, n, headway)
        cug = build_cug(cdg)
        assert order_layers(mcc_greedy(cug).subsets, lane_lists(cdg), cdg.mask) is None
        tree, idfst = schedule_cover_tree(cug, cdg, exact=False), idfst_schedule(cdg)
        assert (tree.depth, tree.parent) == (idfst.depth, idfst.parent)
        assert tree.d_all == d_all


def test_forked_lane_orders_in_both_cover_routes():
    """Four vehicles on movement 1, the third entering fast: it overtakes
    vehicle 2 on the nominal profile, so it and the late fourth both name
    vehicle 2 as their same-lane predecessor.  The fork stays one lane, and
    both cover routes give a feasible tree.  Reading the fork as two lanes
    once ordered vehicle 4 ahead of vehicle 2 ("order [(2, 4)]")."""
    records = [VehicleRecord(id=i, movement=1, entry_time=t, entry_speed=v)
               for i, t, v in ((1, 0.0, 0.0), (2, 0.0, 0.0), (3, 0.0, 25.0), (4, 90.0, 0.0))]
    cdg = build_cdg(build_conflict_sets(records, default_intersection()))
    assert sorted(cdg.lane_edges) == [(0, 1), (1, 2), (2, 3), (2, 4)]
    cug = build_cug(cdg)
    assert list(cug.lanes) == [bitset((1, 2, 3, 4))]
    for exact in (False, True):
        assert verify_feasible(schedule_cover_tree(cug, cdg, exact=exact), cdg).ok


def tree_of(layers) -> SpanningTree:
    """Layers as a tree whose parents are the lowest id of the layer above."""
    parent, depth = {}, {}
    for d, group in enumerate(layers, start=1):
        for v in group:
            parent[v], depth[v] = (0 if d == 1 else min(layers[d - 2])), d
    return SpanningTree(parent=parent, depth=depth)


@settings(max_examples=20, deadline=None)
@given(graph_instances())
def test_ordering_search_matches_plain_search(instance):
    """Where a plain depth-first search orders the greedy cover within the
    budget, the pruned search returns the same layers; elsewhere it finds
    no order or a feasible one."""
    _, _, cdg = instance
    subsets = mcc_greedy(build_cug(cdg)).subsets
    lanes = lane_lists(cdg)
    layers = order_layers(subsets, lanes, cdg.mask)
    reference = plain_layer_search([members(s) for s in subsets], lanes,
                                   group_conflicted(cdg.mask))
    if reference is not None:
        assert layers == reference
    elif layers is not None:
        assert verify_feasible(tree_of(layers), cdg).ok


def _assert_ordering_matches_memo_search(cdg):
    """Where the one-subset-per-step memo search finishes within its budget,
    the search returns the same layers, or None where that search finds
    none; where it runs out of budget, the search finds no order or a
    feasible one."""
    cug = build_cug(cdg)
    subsets, lanes = mcc_greedy(cug).subsets, lane_lists(cdg)
    layers = order_layers(subsets, lanes, cug.conflict)
    reference, ran_out = memo_layer_search(subsets, lanes, cug.conflict)
    if not ran_out:
        assert layers == reference
    elif layers is not None:
        assert verify_feasible(tree_of(layers), cdg).ok


@pytest.mark.parametrize("seed, n, headway, straight",
                         [(1, 400, 1.0, True), (2, 400, 1.0, True),
                          (1, 60, 20.0, False), (2, 60, 20.0, False), (1, 200, 5.0, False)])
def test_ordering_walk_and_search_match_memo_search(seed, n, headway, straight):
    """The greedy cover's layers are the memo search's, where the straight
    walk in ``_sorted_groups`` order orders it (gap 1 s) and where a group
    of that walk clashes and the search backtracks (gap 20 s, light traffic,
    and gap 5 s)."""
    cug = build_cug(sampled_instance(seed, n, headway)[2])
    subsets, lanes = mcc_greedy(cug).subsets, [sorted(members(lane)) for lane in cug.lanes]
    assert (straight_layers(subsets, lanes, cug.conflict) is not None) is straight
    reference, ran_out = memo_layer_search(subsets, lanes, cug.conflict)
    assert not ran_out and reference is not None
    assert order_layers(subsets, lanes, cug.conflict) == reference
    if straight:
        assert reference == straight_layers(subsets, lanes, cug.conflict)


@pytest.mark.parametrize("seed", range(1, 41))
def test_ordering_search_matches_memo_search_in_light_traffic(seed):
    _assert_ordering_matches_memo_search(sampled_instance(seed, 60, 20.0)[2])


@settings(max_examples=40, deadline=None)
@given(mixed_fleets())
def test_ordering_search_matches_memo_search_on_mixed_fleets(records):
    _assert_ordering_matches_memo_search(
        build_cdg(build_conflict_sets(records, default_intersection())))


class CountingReads(Sequence):
    """A read-only view of a sequence that counts item reads; iterating it
    reads through ``__getitem__``, so it counts too."""

    def __init__(self, items):
        self.items, self.reads = items, 0

    def __getitem__(self, i):
        self.reads += 1
        return self.items[i]

    def __len__(self):
        return len(self.items)


@pytest.mark.parametrize("seed, most", [(1, 6_000), (13, 25_000)])
def test_ordering_search_reads_few_conflict_bitsets(seed, most):
    """Light traffic, n = 60 at gap 20 s.  The search reads few conflict
    bitsets: seed 1's cover orders and seed 13's has no ordering, and the
    one-subset-per-step memo search reads 64 626 and 252 255 bitsets on
    them."""
    _, _, cdg = sampled_instance(seed, 60, 20.0)
    cug = build_cug(cdg)
    conflict = CountingReads(cug.conflict)
    order_layers(mcc_greedy(cug).subsets, lane_lists(cdg), conflict)
    assert conflict.reads <= most


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_exact_covers_match_partition_oracle(seed):
    """Minimum covers (n <= 9) against every set partition filtered to cliques;
    the preferred cover and the exact tree follow from them in rank order."""
    _, _, cdg = random_instance(seed)
    cug = build_cug(cdg)
    expected = minimum_covers_by_partition(cdg.n, edge_coexistence(cdg))
    found = [canonical_cover(c.subsets) for c in minimum_clique_covers(cug)]
    assert len(set(found)) == len(found)
    assert found == expected

    ranked = sorted(expected, key=lambda c: (ordering_objective(c), c))
    assert canonical_cover(mcc_bruteforce(cug).subsets) == ranked[0]

    lanes, conflicted = lane_lists(cdg), group_conflicted(cdg.mask)
    layers = next((ordered for cover in ranked
                   if (ordered := plain_layer_search(cover, lanes, conflicted)) is not None),
                  None)
    oracle_tree = idfst_schedule(cdg) if layers is None else tree_of(layers)
    assert schedule_cover_tree(cug, cdg, exact=True) == oracle_tree


def _assert_covers_match_vehicle_oracle(cug):
    """The exact covers against the vehicle-level branch and bound: the same
    covers, none twice, in canonical order; the route's walk is the first
    cover of each quotient cover in the oracle's rank and canonical order, and
    the preferred cover and the exact-route layers are the oracle's."""
    found = [c.subsets for c in minimum_clique_covers(cug)]
    oracle = minimum_covers_by_vehicle(cug)
    assert len(set(found)) == len(found)
    assert Counter(found) == Counter(oracle)
    assert found == sorted(oracle, key=canonical_cover)
    ranked = ranked_covers_by_vehicle(cug)
    assert [c.subsets for c in _ranked_covers(cug)] == least_dealings_by_vehicle(cug, ranked)
    assert mcc_bruteforce(cug) == CliqueCover(ranked[0][0])
    layers = first_ordered_layers(cug, ranked)
    assert _cover_layers(cug, exact=True) == layers
    return layers


def _assert_exact_route_matches_vehicle_oracle(fresh, cdg=None):
    """``fresh()`` builds one coexistence graph anew.  On fresh graphs, where no
    rank bucket's least dealings are built yet, ``mcc_bruteforce``, the exact
    layers and, given the CDG, the exact tree match the vehicle-level oracle;
    then, on one more graph, the whole walk does
    (``_assert_covers_match_vehicle_oracle``)."""
    ranked = ranked_covers_by_vehicle(fresh())
    layers = first_ordered_layers(fresh(), ranked)
    assert mcc_bruteforce(fresh()) == CliqueCover(ranked[0][0])
    assert _cover_layers(fresh(), exact=True) == layers
    if cdg is not None:
        expected = idfst_schedule(cdg) if layers is None else _tree_from_layers(layers, cdg)
        assert schedule_cover_tree(fresh(), cdg, exact=True) == expected
    assert _assert_covers_match_vehicle_oracle(fresh()) == layers


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=12),
       st.floats(min_value=0.5, max_value=20.0))
def test_exact_covers_match_vehicle_oracle_on_sampled_fleets(seed, n, headway):
    _, _, cdg = sampled_instance(seed, n, headway)
    _assert_exact_route_matches_vehicle_oracle(lambda: build_cug(cdg), cdg)


@settings(max_examples=20, deadline=None)
@given(mixed_fleets())
def test_exact_covers_match_vehicle_oracle_on_mixed_fleets(records):
    """Standing starts, braking approaches, simultaneous entries and long gaps,
    cut to the cap."""
    cdg = build_cdg(build_conflict_sets(records[:BRUTE_CAP], default_intersection()))
    _assert_exact_route_matches_vehicle_oracle(lambda: build_cug(cdg), cdg)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.data())
def test_exact_covers_match_vehicle_oracle_on_sub_pools(seed, data):
    """Pools of up to 12 vehicles, ids not contiguous, out of an n=60 fleet at
    gap 20 s: each holds one of the fleet's reachability edges, so twins can
    be split by reachability and some covers do not order."""
    _, _, cdg = sampled_instance(seed, 60, 20.0)
    fleet = build_cug(cdg)
    edge = data.draw(st.sampled_from(sorted(cdg.reach_edges)))
    rest = data.draw(st.sets(st.integers(min_value=1, max_value=60), max_size=10))
    pool = bitset({*edge, *rest})
    _assert_exact_route_matches_vehicle_oracle(
        lambda: CoexistenceGraph(pool=pool, conflict=fleet.conflict, lanes=fleet.lanes))


def _assert_dealings_order_alike(cug):
    """The premise of the exact route: every vehicle cover that deals out one
    quotient cover orders, or none does, so the route tries one of them."""
    lanes = [sorted(members(lane & cug.pool)) for lane in cug.lanes if lane & cug.pool]
    verdicts: dict[tuple[int, ...], set[bool]] = {}
    for cover in minimum_covers_by_vehicle(cug):
        ordered = order_layers(cover, lanes, cug.conflict) is not None
        verdicts.setdefault(class_cover(cug, cover), set()).add(ordered)
    assert all(len(alike) == 1 for alike in verdicts.values()), verdicts


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=12))
def test_dealings_of_one_class_cover_order_alike_on_light_fleets(seed, n):
    _assert_dealings_order_alike(build_cug(sampled_instance(seed, n, 20.0)[2]))


@settings(max_examples=20, deadline=None)
@given(mixed_fleets())
def test_dealings_of_one_class_cover_order_alike_on_mixed_fleets(records):
    cdg = build_cdg(build_conflict_sets(records[:BRUTE_CAP], default_intersection()))
    _assert_dealings_order_alike(build_cug(cdg))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.data())
def test_dealings_of_one_class_cover_order_alike_on_sub_pools(seed, data):
    """Twelve-vehicle pools out of an n=60 fleet at gap 20 s, each holding one
    of the fleet's reachability edges; twins of different lanes would break
    the premise here (seed 24, pool 5, 9, 13, 17, 21, 31, 33, 34, 39, 43, 51,
    59 has such a class, {9, 13}), which is why the classes are keyed by lane."""
    _, _, cdg = sampled_instance(seed, 60, 20.0)
    fleet = build_cug(cdg)
    edge = data.draw(st.sampled_from(sorted(cdg.reach_edges)))
    others = [v for v in range(1, 61) if v not in edge]
    rest = data.draw(st.lists(st.sampled_from(others), min_size=10, max_size=10, unique=True))
    pool = bitset({*edge, *rest})
    _assert_dealings_order_alike(
        CoexistenceGraph(pool=pool, conflict=fleet.conflict, lanes=fleet.lanes))


def test_dealings_order_alike_where_twins_of_two_lanes_would_not():
    """The pool where a class keyed by coexistence alone held vehicles 9 and 13,
    of two lanes: some dealings of its covers ordered and some did not, and
    the route then missed the oracle's layers."""
    _, _, cdg = sampled_instance(24, 60, 20.0)
    fleet = build_cug(cdg)
    pool = bitset({5, 9, 13, 17, 21, 31, 33, 34, 39, 43, 51, 59})
    cug = CoexistenceGraph(pool=pool, conflict=fleet.conflict, lanes=fleet.lanes)
    assert all(len({k for k, lane in enumerate(cug.lanes) if lane & m}) == 1
               for m in cug._classes)
    _assert_dealings_order_alike(cug)
    _assert_covers_match_vehicle_oracle(cug)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=12),
       st.sampled_from((1.0, 3.0, 5.0)))
def test_exact_route_reaches_only_the_first_bucket_when_its_first_cover_orders(seed, n, headway):
    """The exact route's work, guarded without timing: when the best bucket's
    first cover orders, neither the route nor ``mcc_bruteforce`` builds the
    least dealings of any other bucket."""
    cug = build_cug(sampled_instance(seed, n, headway)[2])
    first = mcc_bruteforce(cug)
    lanes = [sorted(members(lane)) for lane in cug.lanes]
    assume(order_layers(first.subsets, lanes, cug.conflict) is not None)
    assert _cover_layers(cug, exact=True) == order_layers(first.subsets, lanes, cug.conflict)
    assert set(cug._dealings) == {0}


def test_exact_route_walks_past_first_covers_in_least_dealing_order():
    """A pool whose first covers do not order (reachability splits its lanes'
    twins): the route tries 8 covers, one per quotient cover, in the oracle's
    rank and canonical order, and ends on the oracle's layers."""
    _, _, cdg = sampled_instance(83, 60, 20.0)
    fleet = build_cug(cdg)
    pool = bitset({1, 3, 5, 12, 23, 24, 31, 35, 36, 53, 57, 59})

    def fresh():
        return CoexistenceGraph(pool=pool, conflict=fleet.conflict, lanes=fleet.lanes)

    cug = fresh()
    lanes = [sorted(members(lane & pool)) for lane in cug.lanes if lane & pool]
    tried = []
    for cover in _ranked_covers(cug):
        tried.append(cover)
        if order_layers(cover.subsets, lanes, cug.conflict) is not None:
            break
    assert len(tried) == 8
    ranked = ranked_covers_by_vehicle(fresh())
    assert [len(bucket) for bucket in ranked] == [2, 2, 6, 8]
    walk = least_dealings_by_vehicle(fresh(), ranked)
    assert [c.subsets for c in tried] == walk[:8]
    assert [c.subsets for c in _ranked_covers(cug)] == walk
    assert _cover_layers(fresh(), exact=True) == first_ordered_layers(fresh(), ranked)


class TestExactCoverEdgeCases:
    def test_single_lane_is_one_cover_of_singletons(self):
        rows = [(1, (), (0,), (), ())] + [(j, (), (j - 1,), (), ()) for j in range(2, 6)]
        cug = build_cug(build_cdg(make_sets(rows)))
        covers = minimum_clique_covers(cug)
        assert [canonical_cover(c.subsets) for c in covers] == [((1,), (2,), (3,), (4,), (5,))]
        assert mcc_bruteforce(cug).theta == 5

    def test_empty_pool_is_one_empty_cover(self):
        cug = CoexistenceGraph(pool=0, conflict=[0], lanes=[])
        assert minimum_clique_covers(cug) == [CliqueCover(subsets=())]
        assert mcc_bruteforce(cug).theta == 0

    def test_singleton_classes_give_the_vehicle_level_covers(self):
        # four lanes, each crossing the next: no two vehicles share a coexistence bitset
        rows = [(1, (), (0,), (), ())] + [(j, (j - 1,), (0,), (), ()) for j in range(2, 5)]
        cug = build_cug(build_cdg(make_sets(rows)))
        assert all(c.bit_count() == 1 for c in cug._classes)
        assert [c.subsets for c in minimum_clique_covers(cug)] == minimum_covers_by_vehicle(cug)
        assert canonical_cover(mcc_bruteforce(cug).subsets) == ((1, 3), (2, 4))

    def test_two_coexisting_lanes_of_two_give_two_covers(self):
        """Two vehicle covers, not four; both deal out one quotient cover of two
        identical cliques {lane A, lane B}, so the route tries only the first."""
        rows = [(1, (), (0,), (), ()), (2, (), (0,), (), ()),
                (3, (), (1,), (), ()), (4, (), (2,), (), ())]
        cug = build_cug(build_cdg(make_sets(rows)))
        covers = minimum_clique_covers(cug)
        assert {canonical_cover(c.subsets) for c in covers} == {((1, 2), (3, 4)), ((1, 4), (2, 3))}
        assert len(covers) == 2 and all(c.theta == 2 for c in covers)
        assert list(_ranked_covers(cug)) == covers[:1]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_dominance_chain(seed):
    _, _, cdg = random_instance(seed)
    cug = build_cug(cdg)
    theta = mcc_bruteforce(cug).theta
    assert theta <= mcc_greedy(cug).theta
    assert theta <= idfst_schedule(cdg).d_all <= dfst_schedule(cdg).d_all


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_reduction_equivalence_small(seed):
    _, _, cdg = random_instance(seed, n_low=2, n_high=6)
    cug = build_cug(cdg)
    assert min_feasible_depth(cdg) == mcc_bruteforce(cug).theta


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=6))
def test_descending_order_minimizes_layer_rank(sizes):
    descending = sorted(sizes, reverse=True)
    cost = sum((idx + 1) * s for idx, s in enumerate(descending))
    assert cost == best_ordering_cost(sizes)


def test_tree_serialization(ex1_cdg, ex1_cug):
    tree = cover_to_tree(mcc_bruteforce(ex1_cug), ex1_cdg)
    doc = tree.to_dict()
    assert doc["d_all"] == 4
    assert doc["layers"][0] == [1, 3, 5]
    assert doc["parent"][4] == 1


def _assert_trees_match_scanning_oracle(cdg):
    for schedule, improved in ((dfst_schedule, False), (idfst_schedule, True)):
        tree, oracle = schedule(cdg), scanning_tree(cdg, improved)
        assert tree.depth == oracle.depth
        assert tree.parent == oracle.parent


@settings(max_examples=60, deadline=None)
@given(graph_instances(), st.booleans(), st.data())
def test_layers_laid_around_placed_nodes_match_scanning_oracle(instance, baseline, data):
    """Re-laying any subset of a tree's vehicles, in any layer order, around
    the rest (the online cover path, where the rest are the locked vehicles)
    gives the depths and parents, in map order, of the engine's former
    member-by-placed loop; the newest member enters the maps as an arrival
    would.  Shuffled layers put members on the depths of later placed
    vehicles they may pass, which the tree's own order rarely does.  The
    layers go into the index of the partial tree, given the exchangeable
    relation both ways, as the engine keeps it."""
    _, _, cdg = instance
    tree = dfst_schedule(cdg) if baseline else idfst_schedule(cdg)
    keep = data.draw(st.integers(min_value=0, max_value=2 ** (cdg.n + 1) - 1))  # bit v: placed
    layers = [[v for v in layer if not keep >> v & 1] for layer in tree.layers()]
    layers = data.draw(st.permutations([layer for layer in layers if layer]))
    maps = []
    for _ in range(2):
        parent, depth = dict(tree.parent), dict(tree.depth)
        if layers:
            newest = max(map(max, layers))
            del parent[newest], depth[newest]
        maps.append((parent, depth))
    partial = SpanningTree(parent={}, depth={})
    partial.parent, partial.depth = maps[0]  # unchecked: a placed node may hang under the newest
    exchangeable = both_ways(dict(enumerate(cdg.exchangeable)))
    _lay_layers(_GrowingTree(partial), layers, cdg.fixed, exchangeable)
    scanning_relayering(*maps[1], layers, {cs.vehicle: cs for cs in cdg.sets})
    assert [list(m.items()) for m in maps[0]] == [list(m.items()) for m in maps[1]]


@settings(max_examples=60, deadline=None)
@given(graph_instances(), st.booleans(), st.data())
def test_step_after_a_lay_reads_a_rebuilt_index(instance, improved, data):
    """A tree step that follows a lay (which leaves the heaps stale) places
    the vehicle as the step on an index built afresh from the laid tree."""
    _, _, cdg = instance
    assume(cdg.n >= 2)
    k = data.draw(st.integers(min_value=1, max_value=cdg.n - 1))  # vehicles 1..k are laid
    layers = [row for layer in idfst_schedule(cdg).layers()
              if (row := [v for v in layer if v <= k])]
    laid = _GrowingTree(SpanningTree(parent={}, depth={}))
    _lay_layers(laid, layers, cdg.fixed, cdg.exchangeable)
    fresh = _GrowingTree(SpanningTree(parent=dict(laid.tree.parent), depth=dict(laid.tree.depth)))
    for growing in (laid, fresh):
        _place(growing, k + 1, cdg.fixed[k + 1], cdg.exchangeable[k + 1], improved=improved)
    assert laid.tree == fresh.tree


@settings(max_examples=60, deadline=None)
@given(graph_instances())
def test_trees_match_scanning_oracle(instance):
    """dfst and idfst from the per-depth index equal the tree-rescanning step."""
    _assert_trees_match_scanning_oracle(instance[2])


@settings(max_examples=60, deadline=None)
@given(mixed_fleets())
def test_trees_match_scanning_oracle_on_mixed_fleets(records):
    _assert_trees_match_scanning_oracle(build_cdg(build_conflict_sets(records,
                                                                     default_intersection())))


@settings(max_examples=60, deadline=None)
@given(mixed_fleets())
def test_cover_route_is_feasible_on_mixed_fleets(records):
    """Mixed entry speeds can fork a lane; the greedy cover route, and the
    exact one up to ``BRUTE_CAP`` vehicles, still give feasible trees."""
    cdg = build_cdg(build_conflict_sets(records, default_intersection()))
    cug = build_cug(cdg)
    for exact in (False, True) if cdg.n <= BRUTE_CAP else (False,):
        assert verify_feasible(schedule_cover_tree(cug, cdg, exact=exact), cdg).ok
