"""Independent oracles: brute-force routes that never touch the code they check."""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from crossflow.conflicts import ConflictDirectedGraph, ConflictSets, nominal_remaining
from crossflow.control import LEADER, VehicleState
from crossflow.scenario import ConflictClass
from crossflow.scheduling import SpanningTree


def min_feasible_depth(cdg: ConflictDirectedGraph) -> int:
    """Minimum layer count over all ordered conflict-free layerings.

    Exhaustive search over ordered set partitions: each vehicle, in id order,
    joins an existing layer it does not conflict with or opens a new layer at
    any position; same-lane predecessors must sit in strictly earlier layers.
    Independent of every scheduler in the package.
    """
    n = cdg.n
    if n == 0:
        return 0
    lane_pred: dict[int, int] = {}
    for i, j in cdg.lane_edges:
        if i != 0:
            lane_pred[j] = i
    best = n + 1

    def conflict(i: int, j: int) -> bool:
        return cdg.connected(i, j)

    def place(v: int, layers: list[list[int]]) -> None:
        nonlocal best
        if len(layers) >= best:
            return
        if v > n:
            best = min(best, len(layers))
            return
        pred = lane_pred.get(v)
        min_index = 0
        if pred is not None:
            for idx, layer in enumerate(layers):
                if pred in layer:
                    min_index = idx + 1
                    break
        for idx in range(min_index, len(layers)):
            layer = layers[idx]
            if all(not conflict(v, u) for u in layer):
                layer.append(v)
                place(v + 1, layers)
                layer.pop()
        for idx in range(min_index, len(layers) + 1):
            layers.insert(idx, [v])
            place(v + 1, layers)
            layers.pop(idx)

    place(1, [])
    return best


def shallowest_admissible_layer(cdg: ConflictDirectedGraph, vehicle: int,
                                placed: dict[int, int]) -> int:
    """First layer, counting up from 1, that ``vehicle`` may take next to ``placed``.

    ``placed`` maps already layered vehicles to their layers; the virtual
    leader sits at layer 0.  Same-lane and reachability parents are floors
    (the vehicle goes strictly below them); crossing and converging
    neighbours are order-exchangeable and only exclude their own layers.
    Written from the edge sets alone, independent of every scheduler.
    """
    layer_of = {0: 0, **placed}
    floors = [layer_of[a] for a, b in cdg.lane_edges | cdg.reach_edges if b == vehicle]
    excluded = set()
    for a, b in cdg.crossing_edges | cdg.converging_edges:
        if vehicle in (a, b):
            other = b if a == vehicle else a
            if other in placed:
                excluded.add(placed[other])
    for layer in itertools.count(1):
        if all(layer > f for f in floors) and layer not in excluded:
            return layer


def edge_connected(cdg: ConflictDirectedGraph, i: int, j: int) -> bool:
    """Any CDG edge between i and j, read off the four edge sets."""
    lo, hi = (i, j) if i < j else (j, i)
    return ((lo, hi) in cdg.crossing_edges or (lo, hi) in cdg.converging_edges
            or (i, j) in cdg.lane_edges or (j, i) in cdg.lane_edges
            or (i, j) in cdg.reach_edges or (j, i) in cdg.reach_edges)


def edge_hard_parents(cdg: ConflictDirectedGraph, j: int) -> set[int]:
    """Same-lane and reachability predecessors of j, from the edge sets."""
    return {a for a, b in cdg.lane_edges | cdg.reach_edges if b == j}


def edge_exchangeable_parents(cdg: ConflictDirectedGraph, j: int) -> set[int]:
    """Crossing and converging predecessors of j, from the edge sets."""
    return {a for a, b in cdg.crossing_edges | cdg.converging_edges if b == j}


def edge_coexistence(cdg: ConflictDirectedGraph) -> frozenset[tuple[int, int]]:
    """Coexisting pairs (low, high): no CDG edge and not on one lane chain.

    Lane chains are followed from the virtual leader along the lane edges.
    """
    succ = {a: b for a, b in cdg.lane_edges if a != 0}
    same_lane = set()
    for _, head in (e for e in cdg.lane_edges if e[0] == 0):
        chain = [head]
        while chain[-1] in succ:
            chain.append(succ[chain[-1]])
        same_lane |= set(itertools.combinations(sorted(chain), 2))
    return frozenset((i, j) for i, j in itertools.combinations(range(1, cdg.n + 1), 2)
                     if not edge_connected(cdg, i, j) and (i, j) not in same_lane)


def set_partitions(items: list[int]):
    """Every partition of ``items`` into blocks, each once, without pruning."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        yield [[first], *partition]
        for k in range(len(partition)):
            yield [*partition[:k], [first, *partition[k]], *partition[k + 1:]]


def minimum_covers_by_partition(n: int, coexist: frozenset[tuple[int, int]]
                                ) -> list[tuple[tuple[int, ...], ...]]:
    """Minimum clique covers by filtering every set partition of {1..n}.

    A block is a clique when each pair in it is in ``coexist`` (pairs
    (low, high)).  Covers come in canonical form (blocks sorted, then by
    descending size and members), sorted, and listed as often as the
    partitions produce them.
    """
    covers = [p for p in set_partitions(list(range(1, n + 1)))
              if all(pair in coexist for block in p
                     for pair in itertools.combinations(sorted(block), 2))]
    theta = min(len(p) for p in covers)
    return sorted(tuple(sorted((tuple(sorted(b)) for b in p), key=lambda b: (-len(b), b)))
                  for p in covers if len(p) == theta)


def edge_greedy_cover(n: int, coexist: frozenset[tuple[int, int]]) -> list[frozenset[int]]:
    """Greedy clique cover on an edge set: colour the complement in BFS order.

    BFS starts each component at its most conflicted vehicle and expands by
    ascending id; each vehicle takes the lowest group no conflicting vehicle
    holds.  Groups are returned in group-index order.
    """
    adj: dict[int, set[int]] = {i: set() for i in range(1, n + 1)}
    for i, j in itertools.combinations(range(1, n + 1), 2):
        if (i, j) not in coexist:
            adj[i].add(j)
            adj[j].add(i)
    order: list[int] = []
    visited: set[int] = set()
    for start in sorted(adj, key=lambda v: (-len(adj[v]), v)):
        if start in visited:
            continue
        queue = [start]
        visited.add(start)
        while queue:
            node = queue.pop(0)
            order.append(node)
            for nxt in sorted(adj[node]):
                if nxt not in visited:
                    visited.add(nxt)
                    queue.append(nxt)
    color: dict[int, int] = {}
    for node in order:
        used = {color[m] for m in adj[node] if m in color}
        color[node] = next(c for c in itertools.count() if c not in used)
    groups: dict[int, set[int]] = {}
    for node, c in color.items():
        groups.setdefault(c, set()).add(node)
    return [frozenset(groups[c]) for c in sorted(groups)]


def sets_conflict(records, sets, a: int, b: int) -> bool:
    """Online conflict rule: one movement (the whole lane), or a member of the later set.

    ``records`` and ``sets`` map vehicle ids to arrival records and conflict sets.
    """
    if records[a].movement == records[b].movement:
        return True
    lo, hi = (a, b) if a < b else (b, a)
    cs = sets[hi]
    return lo in cs.crossing | cs.diverging | cs.converging | cs.reachability


@dataclass(frozen=True)
class CommTopology:
    """Predecessor-leader-following communication structure.

    ``adjacency``/``pinning``/``laplacian`` are indexed by position in
    ``ids``; ``neighbor_sets`` maps a vehicle id to the peer ids it exchanges
    state with (parent and children, never the leader, who enters through the
    pinning term).
    """

    ids: tuple[int, ...]
    adjacency: np.ndarray
    pinning: np.ndarray
    laplacian: np.ndarray
    neighbor_sets: dict[int, frozenset[int]]


def build_plf_topology(tree: SpanningTree) -> CommTopology:
    """Communication topology from a spanning tree: each vehicle talks to its
    tree parent (both ways, so also to its children) and is pinned to the
    virtual leader."""
    ids = tuple(sorted(tree.depth))
    pos = {v: k for k, v in enumerate(ids)}
    adjacency = np.zeros((len(ids), len(ids)))
    for child, parent in tree.parent.items():
        if parent != LEADER:
            adjacency[pos[child], pos[parent]] = adjacency[pos[parent], pos[child]] = 1.0
    return CommTopology(
        ids=ids,
        adjacency=adjacency,
        pinning=np.eye(len(ids)),
        laplacian=np.diag(adjacency.sum(axis=1)) - adjacency,
        neighbor_sets={v: frozenset(ids[j] for j in np.flatnonzero(adjacency[pos[v]]))
                       for v in ids},
    )


def control_input(vehicle: int, states, topology: CommTopology, depths, gains, cfg,
                  active=None) -> float:
    """The scalar control law, one vehicle at a time: ``PlatoonKernel``'s reference.

    Spacing error against peer j is p_j - p_i - D_des * (d_j - d_i); the
    leader term always contributes through the pinning gain.  Peers outside
    ``active`` (already past the stopping line) are skipped.  Saturation is
    the integrator's job, not done here.
    """
    me = states[vehicle]
    d_i = depths[vehicle]
    gap = cfg.desired_gap
    u = 0.0
    for j in topology.neighbor_sets[vehicle]:
        if active is not None and j not in active:
            continue
        peer = states[j]
        u -= gains.k_p * (peer.remaining - me.remaining - gap * (depths[j] - d_i))
        u -= gains.k_v * (me.speed - peer.speed)
    leader = states[LEADER]
    u -= gains.k_p * (leader.remaining - me.remaining - gap * (0 - d_i))
    u -= gains.k_v * (me.speed - leader.speed)
    return u


def step_dynamics(state: VehicleState, u: float, dt: float, cfg) -> VehicleState:
    """One forward-Euler step of the saturated second-order model, one vehicle at a time.

    Acceleration is clamped to the actuator range first, then the new speed
    is projected into [0, v_max]; the remaining distance decreases at the
    pre-step speed and may go negative past the stopping line.
    """
    u_clamped = min(max(u, cfg.a_min), cfg.a_max)
    new_speed = min(max(state.speed + u_clamped * dt, 0.0), cfg.v_max)
    return VehicleState(remaining=state.remaining - state.speed * dt, speed=new_speed)


def matrix_control_inputs(topology, states, depths, gains, cfg) -> dict[int, float]:
    """Controller written in its matrix form: u = -(L+Q) (k_p e_p + k_v e_v).

    Position error of vehicle j is its offset from the slot one desired gap
    per layer behind the leader; speed error is the offset from the leader's
    speed.  Used only to cross-check the per-neighbor sum implementation.
    """
    ids = topology.ids
    leader = states[LEADER]
    e_p = np.array([leader.remaining - states[v].remaining + cfg.desired_gap * depths[v]
                    for v in ids])
    e_v = np.array([states[v].speed - leader.speed for v in ids])
    m = topology.laplacian + topology.pinning
    u = -(m @ (gains.k_p * e_p)) - (m @ (gains.k_v * e_v))
    return {v: float(u[k]) for k, v in enumerate(ids)}


def best_ordering_cost(sizes: list[int]) -> int:
    """Minimum of sum(layer_rank * size) over all subset orderings, by brute force."""
    best = None
    for perm in itertools.permutations(sizes):
        cost = sum((idx + 1) * s for idx, s in enumerate(perm))
        best = cost if best is None or cost < best else best
    return best


def max_clique_via_enumeration(n: int, adjacent) -> int:
    """Largest mutually adjacent subset of {1..n} by subset enumeration."""
    best = 0
    for size in range(n, 0, -1):
        if size <= best:
            break
        for subset in itertools.combinations(range(1, n + 1), size):
            if all(adjacent(a, b) for a, b in itertools.combinations(subset, 2)):
                best = size
                break
    return best


def plain_layer_search(subsets, lanes, conflicted, budget=200_000):
    """Layer ordering by plain depth-first search over the emission order.

    The lane-slot substitution of ``crossflow.scheduling.order_layers``
    without its pruning: every subset at every node is tried in turn, for at
    most ``budget`` steps.  Returns the layers, or None when no ordering is
    found within the budget.
    """
    lane_of = {v: ln for ln, chain in enumerate(lanes) for v in chain}
    shapes = sorted((tuple(sorted(s)) for s in subsets), key=lambda s: (-len(s), s))
    shape_lanes = [tuple(sorted(lane_of[v] for v in s)) for s in shapes]
    layers_out = []
    fuel = [budget]

    def emit(remaining, heads):
        fuel[0] -= 1
        if fuel[0] < 0:
            return False
        if not remaining:
            return True
        for pick, idx in enumerate(remaining):
            group = tuple(lanes[ln][heads[ln]] for ln in shape_lanes[idx])
            if conflicted(group):
                continue
            for ln in shape_lanes[idx]:
                heads[ln] += 1
            layers_out.append(group)
            if emit(remaining[:pick] + remaining[pick + 1:], heads):
                return True
            layers_out.pop()
            for ln in shape_lanes[idx]:
                heads[ln] -= 1
        return False

    return layers_out if emit(list(range(len(shapes))), [0] * len(lanes)) else None


def pairwise_conflict_sets(vehicles, cfg) -> list[ConflictSets]:
    """Conflict sets by checking every vehicle against every earlier one.

    Each predecessor's nominal remaining distance at the entrant's entry
    time decides whether it is still in the zone (positive) and, for a
    route-conflict-free pair, whether it is uncatchable; the route class
    comes from the scenario's table.  No bitsets, no sweep.
    """
    remaining = nominal_remaining(vehicles, cfg)
    horizon = cfg.control_zone_length / cfg.v_max + cfg.v_max / (2.0 * cfg.a_max)
    out = []
    for idx, vehicle in enumerate(vehicles):
        classes = cfg.conflict_table[cfg.movement(vehicle.movement).id]
        crossing, converging, reach = set(), set(), set()
        lane_pred = None
        for other in vehicles[:idx]:
            distance = remaining(other.id, vehicle.entry_time)
            if distance <= 0:
                continue
            cls = classes[other.movement]
            if cls is ConflictClass.DIVERGING:
                lane_pred = other.id if lane_pred is None else max(lane_pred, other.id)
            elif cls is ConflictClass.CROSSING:
                crossing.add(other.id)
            elif cls is ConflictClass.CONVERGING:
                converging.add(other.id)
            elif distance / cfg.platoon_speed < horizon:
                reach.add(other.id)
        out.append(ConflictSets(vehicle=vehicle.id, crossing=frozenset(crossing),
                                diverging=frozenset({0 if lane_pred is None else lane_pred}),
                                converging=frozenset(converging),
                                reachability=frozenset(reach)))
    return out


def edge_set_cdg(sets) -> SimpleNamespace:
    """The CDG as four edge sets, and the adjacency read off them edge by edge.

    Fields: ``n``, ``lane_edges``, ``reach_edges``, ``crossing_edges``,
    ``converging_edges`` (crossing and converging normalized (low, high)),
    and per node ``fixed`` and ``exchangeable`` predecessors and ``mask``,
    the bitset of its neighbours in either sense.
    """
    lane, reach, crossing, converging = set(), set(), set(), set()
    for cs in sets:
        j = cs.vehicle
        lane |= {(i, j) for i in cs.diverging}
        reach |= {(i, j) for i in cs.reachability}
        crossing |= {(min(i, j), max(i, j)) for i in cs.crossing}
        converging |= {(min(i, j), max(i, j)) for i in cs.converging}
    n = max((cs.vehicle for cs in sets), default=0)
    fixed = [set() for _ in range(n + 1)]
    exchangeable = [set() for _ in range(n + 1)]
    mask = [0] * (n + 1)
    for family, preds in ((lane | reach, fixed), (crossing | converging, exchangeable)):
        for i, j in family:
            preds[j].add(i)
            mask[i] |= 1 << j
            mask[j] |= 1 << i
    return SimpleNamespace(n=n, lane_edges=frozenset(lane), reach_edges=frozenset(reach),
                           crossing_edges=frozenset(crossing),
                           converging_edges=frozenset(converging),
                           fixed=tuple(map(frozenset, fixed)),
                           exchangeable=tuple(map(frozenset, exchangeable)), mask=tuple(mask))


def scanning_tree(cdg, improved: bool) -> SpanningTree:
    """dfst (``improved`` False) or idfst by rescanning the tree for every vehicle.

    dfst hangs each vehicle under its deepest conflict parent, lowest id on
    ties.  idfst tries every parent k: its child layer must lie below every
    fixed-order parent and off every exchangeable parent's layer; the
    shallowest such k (fewest children, then lowest id) gives the layer, and
    the vehicle attaches to the node one layer up with the fewest children,
    then the lowest id, found by scanning every placed node.
    """
    tree = SpanningTree(parent={}, depth={})
    for i in range(1, cdg.n + 1):
        fixed, exchangeable = cdg.fixed[i], cdg.exchangeable[i]
        if not improved:
            k = max(fixed | exchangeable, key=lambda m: (tree.depth_of(m), -m))
            tree.parent[i], tree.depth[i] = k, tree.depth_of(k) + 1
            continue
        child_count = Counter(tree.parent.values())
        floor = max((tree.depth_of(m) for m in fixed), default=0)
        blocked = {tree.depth_of(m) for m in exchangeable}
        best = min((k for k in fixed | exchangeable
                    if floor < tree.depth_of(k) + 1 and tree.depth_of(k) + 1 not in blocked),
                   key=lambda k: (tree.depth_of(k), child_count[k], k))
        target = tree.depth_of(best) + 1
        candidates = [m for m, d in tree.depth.items() if d == target - 1]
        if target == 1:
            candidates.append(0)
        tree.parent[i] = min(candidates, key=lambda m: (child_count[m], m))
        tree.depth[i] = target
    return tree


def scanning_relayering(parent: dict[int, int], depth: dict[int, int],
                        layers: list[list[int]], sets: dict[int, ConflictSets]) -> None:
    """Ordered layers laid around the placed nodes the way the online engine
    once did it: every member against every placed node (those in ``depth``
    outside ``layers``), then each member's parent by a scan of the whole
    tree, in id order.  ``sets`` maps ids to conflict sets."""
    members = sorted(m for layer in layers for m in layer)
    placed = {w: d for w, d in depth.items() if w not in members}
    prev = 0
    for layer in layers:
        floor, banned = prev, set()
        for m in layer:
            for w, dw in placed.items():
                lo, hi = (w, m) if w < m else (m, w)
                cs = sets[hi]
                if lo in cs.diverging or lo in cs.reachability:
                    if w < m:
                        floor = max(floor, dw)
                elif lo in cs.crossing or lo in cs.converging:
                    banned.add(dw)
        d = floor + 1
        while d in banned:
            d += 1
        for m in layer:
            depth[m] = d
        prev = d
    for v in members:
        above = [n for n, d in depth.items() if d == depth[v] - 1]
        parent[v] = min(above) if above and depth[v] > 1 else 0
