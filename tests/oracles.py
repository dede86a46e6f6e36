"""Independent oracles: brute-force routes that never touch the code they check."""

from __future__ import annotations

import itertools

import numpy as np

from crossflow.conflicts import ConflictDirectedGraph
from crossflow.control import LEADER


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


def plain_layer_split(subsets, lanes, conflicted):
    """The split fallback of ``order_layers``: shed colliding members, never fail.

    Subsets are emitted largest first by lane-slot substitution; members that
    collide with the group built so far go back to the pool as singletons.
    """
    lane_of = {v: ln for ln, chain in enumerate(lanes) for v in chain}
    pool = [sorted(lane_of[v] for v in s) for s in subsets]
    layers_out = []
    heads = [0] * len(lanes)
    while pool:
        pool.sort(key=lambda s: (-len(s), s))
        shape = pool.pop(0)
        group, spill = [], []
        for ln in shape:
            candidate = lanes[ln][heads[ln]]
            if conflicted(tuple(group + [candidate])):
                spill.append(ln)
            else:
                group.append(candidate)
        if not group:
            ln = shape[0]
            group = [lanes[ln][heads[ln]]]
            spill = shape[1:]
        for v in group:
            heads[lane_of[v]] += 1
        layers_out.append(tuple(sorted(group)))
        pool.extend([ln] for ln in spill)
    return layers_out
