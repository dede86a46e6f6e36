import pytest
from hypothesis import given, settings, strategies as st

from crossflow.conflicts import ContractError, build_cug
from crossflow.scheduling import (
    CliqueCover,
    RepairError,
    SizeLimitError,
    SpanningTree,
    _lanes_for,
    _lay_layers,
    conflict_test,
    cover_to_tree,
    dfst_schedule,
    find_opt_parent,
    idfst_schedule,
    mcc_bruteforce,
    mcc_greedy,
    minimum_clique_covers,
    order_layers,
    ordering_objective,
    schedule_cover_tree,
    validate_cover,
    verify_feasible,
)

from .conftest import make_sets
from .instances import graph_instances, mixed_fleets, random_instance, sampled_instance
from .oracles import (
    best_ordering_cost,
    edge_coexistence,
    edge_connected,
    edge_greedy_cover,
    min_feasible_depth,
    minimum_covers_by_partition,
    plain_layer_search,
    scanning_relayering,
    scanning_tree,
    shallowest_admissible_layer,
)
from crossflow.conflicts import build_cdg, build_conflict_sets
from crossflow.scenario import default_intersection

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
        assert cover.max_clique_size == 1

    def test_complete_graph_is_one_clique(self):
        rows = [(j, (), (0,), (), ()) for j in range(1, 6)]
        cug = build_cug(build_cdg(make_sets(rows)))
        cover = mcc_greedy(cug)
        assert cover.theta == 1
        assert cover.max_clique_size == 5


    @settings(max_examples=40, deadline=None)
    @given(graph_instances())
    def test_matches_edge_set_reference(self, instance):
        _, _, cdg = instance
        cover = mcc_greedy(build_cug(cdg))
        assert list(cover.subsets) == edge_greedy_cover(cdg.n, edge_coexistence(cdg))


class TestMccBruteforce:
    def test_example_theta_and_solutions(self, ex1_cug):
        covers = minimum_clique_covers(ex1_cug)
        assert {c.canonical() for c in covers} == EXAMPLE1_MIN_COVERS
        assert all(c.theta == 4 for c in covers)

    def test_example_preferred_cover(self, ex1_cug):
        best = mcc_bruteforce(ex1_cug)
        assert best.canonical() == ((1, 3, 5), (4, 7), (2,), (6,))

    def test_triangle_is_single_clique(self):
        rows = [(j, (), (0,), (), ()) for j in range(1, 4)]
        cug = build_cug(build_cdg(make_sets(rows)))
        assert mcc_bruteforce(cug).theta == 1

    def test_cap_guards_blowup(self, ex1_cug):
        with pytest.raises(SizeLimitError, match="mcc_greedy"):
            mcc_bruteforce(ex1_cug, cap=3)


class TestCoverToTree:
    def test_example_solution_layers(self, ex1_cdg, ex1_cug):
        tree = cover_to_tree(mcc_bruteforce(ex1_cug), ex1_cdg)
        assert tree.layers() == [[1, 3, 5], [4, 7], [2], [6]]
        assert tree.d_all == 4
        assert verify_feasible(tree, ex1_cdg).ok

    def test_lane_order_repair(self, ex1_cdg):
        # this cover puts the rear same-lane vehicle in the first layer;
        # the repair must exchange the two and land on the preferred layout
        cover = CliqueCover(subsets=(frozenset({1, 3, 6}), frozenset({4, 7}),
                                     frozenset({2}), frozenset({5})))
        tree = cover_to_tree(cover, ex1_cdg)
        assert tree.layers() == [[1, 3, 5], [4, 7], [2], [6]]
        assert tree.d_all == 4
        assert verify_feasible(tree, ex1_cdg).ok

    def test_singleton_cover_is_chain(self, ex1_cdg):
        cover = CliqueCover(subsets=tuple(frozenset({j}) for j in range(1, 8)))
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
        cover = CliqueCover(subsets=(frozenset({1, 2}),))
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
    its θ layers (a plain search ran out of budget on it).  Seed 13's cover
    has no ordering (the search fails in full) and seed 14's search runs
    out of budget; both fall back to idfst's tree, 19 and 23 layers deep,
    where the split pass that preceded it gave 28 and 29."""
    _, _, cdg = sampled_instance(1, 60, 20.0)
    cug = build_cug(cdg)
    tree = schedule_cover_tree(cug, cdg, exact=False)
    assert verify_feasible(tree, cdg).ok
    assert tree.d_all == mcc_greedy(cug).theta

    for seed, d_all in ((13, 19), (14, 23)):
        _, _, cdg = sampled_instance(seed, 60, 20.0)
        cug = build_cug(cdg)
        assert order_layers(mcc_greedy(cug).subsets, _lanes_for(cdg),
                            conflict_test(cdg.mask)) is None
        tree, idfst = schedule_cover_tree(cug, cdg, exact=False), idfst_schedule(cdg)
        assert (tree.depth, tree.parent) == (idfst.depth, idfst.parent)
        assert tree.d_all == d_all


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
    lanes, conflicted = _lanes_for(cdg), conflict_test(cdg.mask)
    layers = order_layers(subsets, lanes, conflicted)
    reference = plain_layer_search(subsets, lanes, conflicted)
    if reference is not None:
        assert layers == reference
    elif layers is not None:
        assert verify_feasible(tree_of(layers), cdg).ok


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_exact_covers_match_partition_oracle(seed):
    """Minimum covers (n <= 9) against every set partition filtered to cliques;
    the preferred cover and the exact tree follow from them in rank order."""
    _, _, cdg = random_instance(seed)
    cug = build_cug(cdg)
    expected = minimum_covers_by_partition(cdg.n, edge_coexistence(cdg))
    found = [c.canonical() for c in minimum_clique_covers(cug)]
    assert len(set(found)) == len(found)
    assert found == expected

    ranked = sorted(expected, key=lambda c: (
        ordering_objective(CliqueCover(subsets=tuple(map(frozenset, c)))), c))
    assert mcc_bruteforce(cug).canonical() == ranked[0]

    lanes, conflicted = _lanes_for(cdg), conflict_test(cdg.mask)
    layers = next((ordered for cover in ranked
                   if (ordered := plain_layer_search(cover, lanes, conflicted)) is not None),
                  None)
    oracle_tree = idfst_schedule(cdg) if layers is None else tree_of(layers)
    assert schedule_cover_tree(cug, cdg, exact=True) == oracle_tree


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


def test_cover_serialization_round_trip(ex1_cug):
    cover = mcc_bruteforce(ex1_cug)
    doc = cover.to_dict()
    assert doc["theta"] == 4
    assert doc["subsets"][0] == [1, 3, 5]


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
    vehicles they may pass, which the tree's own order rarely does."""
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
    _lay_layers(*maps[0], layers, lambda v: (cdg.fixed[v], cdg.exchangeable[v]))
    scanning_relayering(*maps[1], layers, {cs.vehicle: cs for cs in cdg.sets})
    assert [list(m.items()) for m in maps[0]] == [list(m.items()) for m in maps[1]]


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
