"""Independent oracles: brute-force routes that never touch the code they check,
and the test-only helpers and routes kept beside them."""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from crossflow.conflicts import (CoexistenceGraph, ConflictDirectedGraph, ConflictSets,
                                 ContractError, _minimum_covers, build_cug, nominal_remaining)
from crossflow.control import LEADER, VehicleState
from crossflow.scenario import ConflictClass, ScenarioError
from crossflow.scheduling import (CliqueCover, RepairError, SpanningTree, _cover_layers,
                                  _sorted_groups, _tree_from_layers, check_cap, order_layers)


def bitset(ids) -> int:
    """Vehicle ids as a conflict bitset: bit k is vehicle k."""
    return sum(1 << k for k in set(ids))


def members(mask: int) -> frozenset[int]:
    """A conflict bitset's vehicle ids, read bit by bit."""
    return frozenset(k for k in range(mask.bit_length()) if mask >> k & 1)


def both_ways(exchangeable: dict[int, int]) -> dict[int, int]:
    """The exchangeable relation in both directions: per vehicle, the
    predecessors it may pass (``exchangeable``) and the vehicles that may pass it."""
    out = dict(exchangeable)
    for v, ahead in exchangeable.items():
        for u in members(ahead):
            out[u] = out.get(u, 0) | 1 << v
    return out


def depth_of(tree: SpanningTree, node: int) -> int:
    """A node's depth in a tree, 0 for the virtual leader."""
    return 0 if node == 0 else tree.depth[node]


def reachability_threshold(cfg) -> float:
    """Remaining distance below which a preceding vehicle is uncatchable.

    A vehicle entering the zone needs at least L/v_max + v_max/(2*a_max)
    seconds to reach the stopping line; a conflict-free predecessor closer
    than v_0 times that horizon will cross first no matter what.
    """
    if cfg.platoon_speed <= 0 or cfg.v_max <= 0 or cfg.a_max <= 0:
        raise ScenarioError("reachability needs positive v_0, v_max and a_max")
    return cfg.platoon_speed * (cfg.control_zone_length / cfg.v_max
                                + cfg.v_max / (2.0 * cfg.a_max))


def reachability_conflict(preceding_distance: float, cfg) -> bool:
    """True when an entrant cannot catch a predecessor ``preceding_distance``
    metres from the stopping line: that distance at the platoon speed takes
    less than the entrant's horizon L/v_max + v_max/(2*a_max).  The scalar
    rule, refusing a negative distance."""
    if preceding_distance < 0:
        raise ContractError("preceding_distance must be nonnegative")
    horizon = cfg.control_zone_length / cfg.v_max + cfg.v_max / (2.0 * cfg.a_max)
    return preceding_distance / cfg.platoon_speed < horizon


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
    """Coexisting pairs (low, high): no CDG edge and not on one lane.

    A lane is a connected component of the lane edges between vehicles (the
    leader's edges left out), found by repeated merging.
    """
    lane = {v: {v} for v in range(1, cdg.n + 1)}
    for a, b in cdg.lane_edges:
        if a != 0 and lane[a] is not lane[b]:
            merged = lane[a] | lane[b]
            for v in merged:
                lane[v] = merged
    return frozenset((i, j) for i, j in itertools.combinations(range(1, cdg.n + 1), 2)
                     if not edge_connected(cdg, i, j) and j not in lane[i])


def validate_cover(cover, cug: CoexistenceGraph) -> None:
    """Raise ``ContractError`` unless the cover partitions the graph's pool
    into groups whose members pairwise coexist."""
    groups = [members(s) for s in cover.subsets]
    if sorted(v for s in groups for v in s) != sorted(members(cug.pool)):
        raise ContractError("cover is not a partition of the vehicles")
    for subset in groups:
        if not all(cug.adjacent(a, b) for a, b in itertools.combinations(subset, 2)):
            raise ContractError(f"subset {sorted(subset)} is not a coexisting group")


def cover_to_tree(cover, cdg: ConflictDirectedGraph) -> SpanningTree:
    """One clique cover as a feasible layered tree, or ``RepairError``.

    The cover route for a single given cover: its subsets ordered by the
    lane-slot substitution of ``order_layers`` and laid as batch lays them,
    with no fallback.
    """
    if sorted(v for s in cover.subsets for v in members(s)) != list(range(1, cdg.n + 1)):
        raise ContractError("cover is not a partition of the scheduled vehicles")
    layers = order_layers(cover.subsets, lane_lists(cdg), cdg.mask)
    if layers is None:
        raise RepairError("no ordering of the cover yields a conflict-free layering")
    return _tree_from_layers(layers, cdg)


def ordering_objective(subsets) -> int:
    """Total layer rank over vehicles once subsets are ordered largest first."""
    sizes = sorted(map(len, subsets), reverse=True)
    return sum(rank * size for rank, size in enumerate(sizes, start=1))


def lane_lists(cdg: ConflictDirectedGraph) -> list[list[int]]:
    """The coexistence graph's lanes as the id lists ``order_layers`` reads."""
    return [sorted(members(lane)) for lane in build_cug(cdg).lanes]


def _renumbered(pool: int, conflict, lanes=()) -> tuple[list[int], CoexistenceGraph]:
    """The pool's vehicles in id order and the graph over all of 1..k, with
    each conflict and lane bitset rebuilt bit by bit on their local ids."""
    ids = sorted(members(pool))
    index = {v: k for k, v in enumerate(ids, start=1)}
    local = [0] + [bitset(index[u] for u in members(conflict[v] & pool)) for v in ids]
    lanes = [bitset(index[u] for u in members(lane & pool)) for lane in lanes]
    return ids, CoexistenceGraph(pool=(1 << len(ids) + 1) - 2, conflict=local, lanes=lanes)


def renumbered_greedy_cover(pool: int, conflict) -> list[int]:
    """The vehicle-by-vehicle greedy cover of a pool (``edge_greedy_cover``)
    on its vehicles renumbered 1..k, two of them coexisting when neither's
    conflict bitset holds the other; groups mapped back to vehicle-id
    bitsets, in group-index order."""
    ids = sorted(members(pool))
    coexist = frozenset((a, b) for (a, u), (b, w) in itertools.combinations(enumerate(ids, 1), 2)
                        if not conflict[u] >> w & 1 and not conflict[w] >> u & 1)
    return [bitset(ids[k - 1] for k in group) for group in edge_greedy_cover(len(ids), coexist)]


def straight_layers(subsets, lanes, conflict):
    """The subsets (member bitsets) emitted in ``_sorted_groups`` order, each
    by lane-slot substitution, members by lane; None when a group's members
    conflict.  Where it gives layers, a depth-first search over the emission
    order that tries the earliest subset first finds them on its first
    descent."""
    lane_of = {v: ln for ln, lane in enumerate(lanes) for v in lane}
    heads = [0] * len(lanes)
    layers = []
    for subset in _sorted_groups(subsets):
        kind = sorted(lane_of[v] for v in subset)
        group = tuple(lanes[ln][heads[ln]] for ln in kind)
        if any(conflict[b] >> a & 1 for a, b in itertools.combinations(group, 2)):
            return None
        for ln in kind:
            heads[ln] += 1
        layers.append(group)
    return layers


def renumbered_cover_layers(pool: int, conflict, lanes, exact: bool):
    """The cover route as the online engine once ran it: renumber the pool
    1..k, run ``_cover_layers`` on the local graph, its conflict and lane
    bitsets, and map the layers back to vehicle ids (None when no cover
    orders)."""
    ids, graph = _renumbered(pool, conflict, lanes)
    layers = _cover_layers(graph, exact)
    return None if layers is None else [tuple(ids[k - 1] for k in layer) for layer in layers]


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


def minimum_covers_by_vehicle(cug: CoexistenceGraph) -> list[tuple[int, ...]]:
    """Every minimum clique cover of a graph's pool, each a tuple of member bitsets.

    Branch-and-bound set partitioning vehicle by vehicle, with no twin
    classes: the pool's vehicles are placed in id order into an open clique
    whose members all coexist with them, or into a fresh one, and branches
    with more cliques than the best cover so far are cut.  Id order reaches
    every partition once, with its cliques in order of their lowest member.
    """
    vertices = sorted(members(cug.pool))
    coexist = [cug.coexist(v) for v in vertices]
    best = len(vertices)
    covers: list[tuple[int, ...]] = []
    cliques: list[int] = []
    common: list[int] = []  # per open clique, the vehicles that coexist with all members

    def place(k: int) -> None:
        nonlocal best
        if k == len(vertices):
            if len(cliques) < best:
                best = len(cliques)
                covers.clear()
            covers.append(tuple(cliques))
            return
        bit = 1 << vertices[k]
        for c in range(len(cliques)):
            m, shared = cliques[c], common[c]
            if shared & bit:
                cliques[c], common[c] = m | bit, shared & coexist[k]
                place(k + 1)
                cliques[c], common[c] = m, shared
        if len(cliques) < best:
            cliques.append(bit)
            common.append(coexist[k])
            place(k + 1)
            cliques.pop()
            common.pop()

    place(0)
    return covers


def minimum_clique_covers(cug: CoexistenceGraph) -> list[CliqueCover]:
    """Every minimum clique cover of a graph's pool, by canonical form: the
    package's quotient search (``conflicts._minimum_covers``) with class k
    vehicle k alone (empty off the pool), so vehicle by vehicle in id order,
    cliques by lowest member.  Refuses a pool above ``BRUTE_CAP`` as the
    exact routes do."""
    check_cap(cug.pool.bit_count())
    top = cug.pool.bit_length()
    covers = _minimum_covers([cug.coexist(v) for v in range(top)],
                             [cug.pool >> v & 1 for v in range(top)])
    return sorted(map(CliqueCover, covers), key=lambda c: canonical_cover(c.subsets))


def canonical_cover(cover) -> tuple[tuple[int, ...], ...]:
    """A cover's member bitsets as sorted id tuples, by descending size, then members."""
    return tuple(sorted((tuple(sorted(members(s))) for s in cover), key=lambda b: (-len(b), b)))


def ranked_covers_by_vehicle(cug: CoexistenceGraph) -> list[list[tuple[int, ...]]]:
    """``minimum_covers_by_vehicle`` in buckets of equal ``ordering_objective``,
    best first, each bucket sorted by canonical form."""
    buckets: dict[int, list[tuple[int, ...]]] = {}
    for cover in minimum_covers_by_vehicle(cug):
        buckets.setdefault(ordering_objective(canonical_cover(cover)), []).append(cover)
    return [sorted(buckets[rank], key=canonical_cover) for rank in sorted(buckets)]


def class_cover(cug: CoexistenceGraph, cover) -> tuple[int, ...]:
    """A vehicle cover's quotient cover: each clique as the bitset of the twin
    classes its members fall in (bit j for ``cug._classes[j]``), sorted."""
    classes = cug._classes
    return tuple(sorted(sum(1 << j for j, m in enumerate(classes) if m & clique)
                        for clique in cover))


def least_dealings_by_vehicle(cug: CoexistenceGraph, ranked) -> list[tuple[int, ...]]:
    """The exact route's walk, read off ranked vehicle covers
    (``ranked_covers_by_vehicle``): per bucket, in canonical order, the first
    cover of each quotient cover (``class_cover``)."""
    seen: set[tuple[int, ...]] = set()
    walk = []
    for cover in itertools.chain.from_iterable(ranked):
        if (quotient := class_cover(cug, cover)) not in seen:
            seen.add(quotient)
            walk.append(cover)
    return walk


def first_ordered_layers(cug: CoexistenceGraph, ranked):
    """The exact cover route on buckets of ranked covers (``ranked_covers_by_vehicle``):
    the layers of the first cover, in preference order, that ``order_layers``
    orders on the graph's lanes and conflicts, or None."""
    lanes = [sorted(members(lane & cug.pool)) for lane in cug.lanes if lane & cug.pool]
    for bucket in ranked:
        for cover in bucket:
            layers = order_layers(cover, lanes, cug.conflict)
            if layers is not None:
                return layers
    return None


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
    return lo in members(cs.crossing | cs.diverging | cs.converging | cs.reachability)


@dataclass(frozen=True)
class CommTopology:
    """Predecessor-leader-following communication structure.

    ``adjacency``/``pinning``/``laplacian`` are indexed by position in
    ``ids``; ``peers`` maps a vehicle id to the peer ids it exchanges state
    with, ascending (parent and children, never the leader, who enters
    through the pinning term).
    """

    ids: tuple[int, ...]
    adjacency: np.ndarray
    pinning: np.ndarray
    laplacian: np.ndarray
    peers: dict[int, tuple[int, ...]]


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
        peers={v: tuple(ids[j] for j in np.flatnonzero(adjacency[pos[v]])) for v in ids},
    )


def control_input(vehicle: int, states, topology: CommTopology, depths, gains, cfg,
                  active=None) -> float:
    """The scalar control law, one vehicle at a time: ``PlatoonKernel``'s reference.

    Spacing error against peer j is p_j - p_i - D_des * (d_j - d_i), summed
    over the peers in ascending id; the leader term always contributes
    through the pinning gain, last.  Peers outside ``active`` (already past
    the stopping line) are skipped.  Saturation is the integrator's job, not
    done here.
    """
    me = states[vehicle]
    d_i = depths[vehicle]
    gap = cfg.desired_gap
    u = 0.0
    for j in topology.peers[vehicle]:
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


class ScratchKernel:
    """``PlatoonKernel`` rebuilt from scratch: the kernel as it was while the
    engine rebuilt it at every arrival, reschedule and crossing.

    Built over ``rows``, ascending by id, it links each row to its tree
    parent among the rows and back, sorts each row's peers by id, pads
    shorter peer lists with the row's own index and puts the leader last;
    the state is gathered from ``remaining`` and ``speed``, indexed by id,
    into a (2, m + 1) array per buffer.  A step is the same law and
    integrator in 14 numpy calls, and tests every row for the line.  The
    update path of ``PlatoonKernel`` is checked against it bit for bit.
    """

    def __init__(self, rows, tree: SpanningTree, gains, cfg, remaining, speed):
        m = len(rows)
        local = {v: k for k, v in enumerate(rows)}
        lists = [[] for _ in rows]
        for k, v in enumerate(rows):
            up = local.get(tree.parent[v])
            if up is not None:
                lists[k].append(up)
                lists[up].append(k)
        for ps in lists:
            ps.sort()
        width = max(map(len, lists), default=0)
        flat = []
        for k, ps in enumerate(lists):
            flat += ps + [k] * (width - len(ps)) + [m]
        peer = np.array(flat, dtype=np.intp).reshape(m, width + 1).T
        layer = np.array([tree.depth[i] for i in rows] + [0])
        self.rows = np.array(rows, dtype=np.intp)
        self._index = peer[:, None, :] + np.array([[0], [m + 1]])
        self._offsets = cfg.desired_gap * (layer[peer] - layer[:m])
        self._gains = np.empty((width + 1, 2, m))
        self._gains[:, 0], self._gains[:, 1] = gains.k_p, -gains.k_v
        self._dt, self._a_min, self._a_max, self._v_max, self._zero = (
            np.array(x) for x in (cfg.dt, cfg.a_min, cfg.a_max, cfg.v_max, 0.0))
        self._terms = np.zeros((2 * width + 3, m))
        self._pairs = self._terms[1:].reshape(width + 1, 2, m)
        self._spacing = self._pairs[:, 0]
        self.u = np.empty(m)
        state = np.empty((2, 2, m + 1))
        state[:, 0, :m] = remaining[self.rows]
        state[:, 1, :m] = speed[self.rows]
        state[:, 1, m] = cfg.platoon_speed
        self._buffers = [(buf.reshape(-1), buf[:, :m], buf[0, :m], buf[1, :m])
                         for buf in state]
        self.p, self.v = self._buffers[0][2:]
        self.p_prev, self.v_prev = self.p, self.v

    def step(self, leader_remaining: float) -> bool:
        (flat, rows, p, v), (_, _, new_p, new_v) = self._buffers
        flat[len(p)] = leader_remaining
        pairs, spacing = self._pairs, self._spacing
        flat.take(self._index, out=pairs, mode="clip")
        np.subtract(pairs, rows, out=pairs)
        np.subtract(spacing, self._offsets, out=spacing)
        np.multiply(pairs, self._gains, out=pairs)
        np.subtract.reduce(self._terms, axis=0, out=self.u)
        np.multiply(v, self._dt, out=new_p)
        np.subtract(p, new_p, out=new_p)
        np.maximum(self._a_min, self.u, out=new_v)
        np.minimum(self._a_max, new_v, out=new_v)
        np.multiply(new_v, self._dt, out=new_v)
        np.add(v, new_v, out=new_v)
        np.maximum(self._zero, new_v, out=new_v)
        np.minimum(self._v_max, new_v, out=new_v)
        self._buffers.reverse()
        self.p_prev, self.v_prev, self.p, self.v = p, v, new_p, new_v
        return bool(np.fmin.reduce(new_p, initial=np.inf) <= 0.0)

    def store(self, remaining, speed) -> None:
        remaining[self.rows] = self.p
        speed[self.rows] = self.v


def scratch_history(tree: SpanningTree, cfg, initial, leader_start: float, gains,
                    until: float) -> list[tuple[float, dict[int, tuple[float, float]], dict]]:
    """``simulate_platoon``'s samples, each the time, every vehicle's
    (remaining, speed) and the crossing times so far, by the closed loop that
    rebuilds a ``ScratchKernel`` after every crossing and tests every step
    for the line."""
    remaining, speed = np.zeros(max(initial) + 1), np.zeros(max(initial) + 1)
    for i, state in initial.items():
        remaining[i], speed[i] = state.remaining, state.speed
    zone, crossed, kernel, t, history = sorted(initial), {}, None, 0.0, []
    while t < until:
        if kernel is not None:
            kernel.store(remaining, speed)
        history.append((t, {i: (float(remaining[i]), float(speed[i])) for i in initial},
                        dict(crossed)))
        if len(crossed) == len(initial):
            break
        if kernel is None:
            kernel = ScratchKernel(zone, tree, gains, cfg, remaining, speed)
        if zone and kernel.step(leader_start - cfg.platoon_speed * t):
            p, new_p = kernel.p_prev, kernel.p
            hits = np.flatnonzero((p > 0.0) & (new_p <= 0.0)).tolist()
            for k in hits:
                i, before, after = int(kernel.rows[k]), float(p[k]), float(new_p[k])
                crossed[i] = t + before / max(before - after, 1e-12) * cfg.dt
                zone.remove(i)
            if hits:
                kernel.store(remaining, speed)
                kernel = None
        t += cfg.dt
    return history


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


def group_conflicted(conflict):
    """``plain_layer_search``'s predicate: do any two members of a group
    conflict?  Pairs are read off the per-vehicle conflict bitsets, the
    later member's bitset holding the earlier one."""
    return lambda group: any(conflict[b] >> a & 1 for a, b in itertools.combinations(group, 2))


def plain_layer_search(subsets, lanes, conflicted, budget=200_000):
    """Layer ordering by plain depth-first search over the emission order.

    The lane-slot substitution of ``crossflow.scheduling.order_layers``
    without its pruning: every subset at every node is tried in turn, for at
    most ``budget`` steps.  Returns the layers, or None when no ordering is
    found within the budget.
    """
    lane_of = {v: ln for ln, lane in enumerate(lanes) for v in lane}
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


def memo_layer_search(subsets, lanes, conflict, budget=200_000):
    """Layer ordering by depth-first search with a dead-state memo, one step
    per subset: the search ``crossflow.scheduling.order_layers`` made before
    it stepped over lane-tuple kinds and added the lane-pair projection.

    Subsets (member bitsets) are tried in ``_sorted_groups`` order; a search
    state is the multiset of lane tuples still to emit, keyed by a
    mixed-radix sum, and a state proven dead is never entered again.  Each
    call of ``emit`` costs one unit of ``budget``.  Returns ``(layers,
    ran_out)``: the layers or None, and whether the budget ran out first.
    """
    lane_of = {v: ln for ln, lane in enumerate(lanes) for v in lane}
    shape_lanes = [tuple(sorted(lane_of[v] for v in s)) for s in _sorted_groups(subsets)]
    kind_of: dict[tuple[int, ...], int] = {}
    kinds = [kind_of.setdefault(t, len(kind_of)) for t in shape_lanes]
    weight = [1] * len(kind_of)
    counts = Counter(kinds)
    for k in range(1, len(weight)):
        weight[k] = weight[k - 1] * (counts[k - 1] + 1)
    dead: set[int] = set()
    layers_out: list[tuple[int, ...]] = []
    fuel = [budget]

    def clashes(group):
        seen = 0
        for v in group:
            if conflict[v] & seen:
                return True
            seen |= 1 << v
        return False

    def emit(remaining, heads, key):
        fuel[0] -= 1
        if fuel[0] < 0:
            return False
        if not remaining:
            return True
        for pick, idx in enumerate(remaining):
            rest = key - weight[kinds[idx]]
            if rest in dead:
                continue
            group = tuple(lanes[ln][heads[ln]] for ln in shape_lanes[idx])
            if clashes(group):
                continue
            for ln in shape_lanes[idx]:
                heads[ln] += 1
            layers_out.append(group)
            if emit(remaining[:pick] + remaining[pick + 1:], heads, rest):
                return True
            layers_out.pop()
            for ln in shape_lanes[idx]:
                heads[ln] -= 1
        if fuel[0] >= 0:
            dead.add(key)
        return False

    found = emit(list(range(len(kinds))), [0] * len(lanes), sum(weight[k] for k in kinds))
    return (layers_out if found else None), fuel[0] < 0


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
        out.append(ConflictSets(vehicle=vehicle.id, crossing=bitset(crossing),
                                diverging=bitset({0 if lane_pred is None else lane_pred}),
                                converging=bitset(converging),
                                reachability=bitset(reach)))
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
        lane |= {(i, j) for i in members(cs.diverging)}
        reach |= {(i, j) for i in members(cs.reachability)}
        crossing |= {(min(i, j), max(i, j)) for i in members(cs.crossing)}
        converging |= {(min(i, j), max(i, j)) for i in members(cs.converging)}
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
                           fixed=tuple(map(bitset, fixed)),
                           exchangeable=tuple(map(bitset, exchangeable)), mask=tuple(mask))


def edge_set_feasibility(depth: dict[int, int], sets) -> tuple[list, list]:
    """``verify_feasible``'s two lists, pair by pair from the edge sets
    (``edge_set_cdg``): the conflicting pairs that share a layer, by layer and
    then by ids, and the same-lane edges (leader edges aside) whose follower
    is not deeper than its predecessor."""
    graph = edge_set_cdg(sets)
    linked = {(min(i, j), max(i, j)) for family in (graph.lane_edges, graph.reach_edges,
                                                    graph.crossing_edges, graph.converging_edges)
              for i, j in family}
    layers = [sorted(v for v in depth if depth[v] == d) for d in sorted(set(depth.values()))]
    same = [(i, j) for layer in layers for i, j in itertools.combinations(layer, 2)
            if (i, j) in linked]
    order = [(i, j) for i, j in graph.lane_edges if i and depth[i] >= depth[j]]
    return same, order


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
        fixed, exchangeable = members(cdg.fixed[i]), members(cdg.exchangeable[i])
        if not improved:
            k = max(fixed | exchangeable, key=lambda m: (depth_of(tree, m), -m))
            tree.parent[i], tree.depth[i] = k, depth_of(tree, k) + 1
            continue
        child_count = Counter(tree.parent.values())
        floor = max((depth_of(tree, m) for m in fixed), default=0)
        blocked = {depth_of(tree, m) for m in exchangeable}
        best = min((k for k in fixed | exchangeable
                    if floor < depth_of(tree, k) + 1 and depth_of(tree, k) + 1 not in blocked),
                   key=lambda k: (depth_of(tree, k), child_count[k], k))
        target = depth_of(tree, best) + 1
        candidates = [m for m, d in tree.depth.items() if d == target - 1]
        if target == 1:
            candidates.append(0)
        tree.parent[i] = min(candidates, key=lambda m: (child_count[m], m))
        tree.depth[i] = target
    return tree


def find_opt_parent(tree: SpanningTree, fixed, exchangeable) -> int:
    """Shallowest placed parent whose child layer clears both constraints.

    The returned node k minimizes its depth subject to: depth(k) + 1 is
    strictly below none of the fixed-order parents (it exceeds their maximum
    depth) and does not coincide with any exchangeable parent's layer.
    Ties break toward fewer children, then the lower id.  Works on id sets
    and the tree's depth map, independent of the trees' step.
    """
    fixed, exchangeable = set(fixed), set(exchangeable)
    if not fixed and not exchangeable:
        raise ContractError("parent search needs at least one candidate")
    level = {0: 0, **tree.depth}
    blocked = {level[k] for k in exchangeable}
    above = max(level[k] for k in fixed) if fixed else min(blocked)
    while above + 1 in blocked:
        above += 1
    children = Counter(tree.parent.values())
    return min((k for k in fixed | exchangeable if level[k] == above),
               key=lambda k: (children[k], k))


def scanning_relayering(parent: dict[int, int], depth: dict[int, int],
                        layers: list[list[int]], sets: dict[int, ConflictSets]) -> None:
    """Ordered layers laid around the placed nodes the way the online engine
    once did it: every member against every placed node (those in ``depth``
    outside ``layers``), then each member's parent by a scan of the whole
    tree, in id order.  ``sets`` maps ids to conflict sets."""
    laid = sorted(m for layer in layers for m in layer)
    placed = {w: d for w, d in depth.items() if w not in laid}
    prev = 0
    for layer in layers:
        floor, banned = prev, set()
        for m in layer:
            for w, dw in placed.items():
                lo, hi = (w, m) if w < m else (m, w)
                cs = sets[hi]
                if lo in members(cs.diverging | cs.reachability):
                    if w < m:
                        floor = max(floor, dw)
                elif lo in members(cs.crossing | cs.converging):
                    banned.add(dw)
        d = floor + 1
        while d in banned:
            d += 1
        for m in layer:
            depth[m] = d
        prev = d
    for v in laid:
        above = [n for n, d in depth.items() if d == depth[v] - 1]
        parent[v] = min(above) if above and depth[v] > 1 else 0
