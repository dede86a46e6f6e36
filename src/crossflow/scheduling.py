"""Passing-order schedulers over the conflict graphs.

Four routes to a layered passing order:

* ``dfst_schedule``: the baseline spanning tree.  Every conflict parent is
  treated alike and the new vehicle goes one layer below its deepest parent.
* ``idfst_schedule``: the improved tree.  Parents whose crossing order is
  exchangeable (crossing, converging) only exclude their own layers; parents
  that must stay ahead (same lane, uncatchable) set a floor, and the vehicle
  takes the shallowest layer clearing both.
* ``mcc_greedy``: minimum clique cover of the coexistence graph, solved
  heuristically by greedy coloring of its complement in breadth-first order.
* ``mcc_bruteforce``: exact minimum clique cover by branch-and-bound set
  partitioning, capped at small vehicle counts.  The minimum covers are
  enumerated once per coexistence graph, as member bitsets, and kept on it
  (``CoexistenceGraph._minimum_covers``); they are ranked lazily, one
  objective value at a time.

All of them yield a spanning tree rooted at the virtual leader whose depth
is the vehicle's passing layer; ``verify_feasible`` checks any tree against
the conflict graph.  Every route reads the graphs' one adjacency: the trees
take the CDG's ``fixed`` and ``exchangeable`` predecessor sets, and the
cover, the layer ordering and the feasibility check test its conflict
bitsets.

Batch and online scheduling share one path.  The trees add one vehicle at a
time with ``_place``, which the online engine calls on its own partial tree
at each arrival.  The cover routes turn a cover into layers with
``_cover_layers``, and the layers into depths and parents with
``_lay_layers``; the engine calls both on its unlocked vehicles, laying
them around the locked ones.  When no cover orders (the exact route tries
every minimum cover, the greedy route its one cover, and a search that runs
out of budget counts as finding no order), ``schedule_cover_tree`` returns
idfst's tree.  The ordering search remembers the states it has proven dead,
so it never repeats a failed branch.
"""

from __future__ import annotations

import heapq
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

from .conflicts import (CoexistenceGraph, ConflictDirectedGraph, ContractError, _bits,
                        _layer_rank)


class SizeLimitError(ValueError):
    """Instance too large for exhaustive search."""


class RepairError(RuntimeError):
    """A clique cover could not be reordered into a feasible layering."""


@dataclass
class SpanningTree:
    """Parent and layer (depth) per vehicle; the virtual leader 0 is the root."""

    parent: dict[int, int]
    depth: dict[int, int]

    def __post_init__(self):
        for i, p in self.parent.items():
            dp = 0 if p == 0 else self.depth.get(p)
            if dp is None or self.depth[i] != dp + 1:
                raise ContractError(f"vehicle {i}: depth must be its parent's depth + 1")

    @property
    def d_all(self) -> int:
        return max(self.depth.values(), default=0)

    def depth_of(self, node: int) -> int:
        return 0 if node == 0 else self.depth[node]

    def layers(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.d_all)]
        for i, d in self.depth.items():
            out[d - 1].append(i)
        for layer in out:
            layer.sort()
        return out

    def to_dict(self) -> dict:
        return {
            "d_all": self.d_all,
            "layers": self.layers(),
            "parent": {i: self.parent[i] for i in sorted(self.parent)},
            "depth": {i: self.depth[i] for i in sorted(self.depth)},
        }


@dataclass(frozen=True)
class CliqueCover:
    """Disjoint coexisting groups covering all vehicles."""

    subsets: tuple[frozenset[int], ...]

    @property
    def theta(self) -> int:
        return len(self.subsets)

    @property
    def max_clique_size(self) -> int:
        return max((len(s) for s in self.subsets), default=0)

    def canonical(self) -> tuple[tuple[int, ...], ...]:
        """Subsets sorted internally, then by descending size and member order."""
        return tuple(sorted((tuple(sorted(s)) for s in self.subsets),
                            key=lambda s: (-len(s), s)))

    def to_dict(self) -> dict:
        return {"theta": self.theta, "subsets": [list(s) for s in self.canonical()]}


def validate_cover(cover: CliqueCover, cug: CoexistenceGraph) -> None:
    members = [v for s in cover.subsets for v in s]
    if sorted(members) != list(range(1, cug.n + 1)):
        raise ContractError("cover is not a partition of the vehicles")
    for subset in cover.subsets:
        group = sum(1 << v for v in subset)
        if any(group & ~(cug.coexist[v] | 1 << v) for v in subset):
            raise ContractError(f"subset {sorted(subset)} is not a coexisting group")


@dataclass
class FeasibilityReport:
    ok: bool
    same_depth_conflicts: list[tuple[int, int]] = field(default_factory=list)
    order_violations: list[tuple[int, int]] = field(default_factory=list)


def verify_feasible(tree: SpanningTree, cdg: ConflictDirectedGraph) -> FeasibilityReport:
    """Check a layered order against the conflict graph.

    Feasible when no two vehicles in one layer conflict and every same-lane
    edge points from a shallower to a deeper layer (overtaking within a lane
    is impossible).  Reachability edges join route-conflict-free pairs, so a
    layer inversion across them wastes a slot but endangers nothing; they are
    constrained only by the shared-layer rule.  Violations are reported, not
    raised.
    """
    if set(tree.depth) != set(range(1, cdg.n + 1)):
        raise ContractError("tree does not span the conflict graph nodes")
    report = FeasibilityReport(ok=True)
    for layer in tree.layers():
        members = sum(1 << v for v in layer)
        for i in layer:
            later = cdg.mask[i] & members >> (i + 1) << (i + 1)
            report.same_depth_conflicts.extend((i, j) for j in _bits(later))
    for i, j in cdg.lane_edges:
        if i != 0 and tree.depth[i] >= tree.depth[j]:
            report.order_violations.append((i, j))
    report.ok = not report.same_depth_conflicts and not report.order_violations
    return report


class _GrowingTree:
    """A spanning tree grown one vehicle at a time, with the index its step reads.

    ``level`` holds every placed node's depth, the virtual leader's 0
    included; ``layers[d]`` holds the nodes at depth d, and ``open[d]`` is a
    heap of (children, node) over them, in which an entry whose count lags
    the node's ``children`` is stale and skipped.  ``_place`` keeps all of
    it up to date, so placing a vehicle never rescans the tree.
    """

    def __init__(self, tree: SpanningTree):
        self.tree = tree
        self.level = {0: 0, **tree.depth}
        self.children = Counter(tree.parent.values())
        self.layers: list[set[int]] = []
        self.open: list[list[tuple[int, int]]] = []
        for node, d in self.level.items():
            self._enter(node, d)

    def _enter(self, node: int, d: int) -> None:
        while len(self.layers) <= d:
            self.layers.append(set())
            self.open.append([])
        self.layers[d].add(node)
        heapq.heappush(self.open[d], (self.children[node], node))

    def least_loaded(self, d: int) -> int:
        """The node at depth d with the fewest children, then the lowest id."""
        heap = self.open[d]
        while heap[0][0] != self.children[heap[0][1]]:
            heapq.heappop(heap)
        return heap[0][1]

    def attach(self, i: int, k: int) -> None:
        """Place vehicle i one layer below node k, as k's child."""
        target = self.level[k] + 1
        self.tree.parent[i] = k
        self.tree.depth[i] = self.level[i] = target
        self.children[k] += 1
        heapq.heappush(self.open[target - 1], (self.children[k], k))
        self._enter(i, target)


def _target_depth(level: Mapping[int, int], fixed: Collection[int],
                  exchangeable: Collection[int]) -> int:
    """The layer of ``find_opt_parent``'s children: the shallowest one just
    below some parent that lies below every fixed-order parent and on no
    exchangeable parent's layer."""
    if not fixed and not exchangeable:
        raise ContractError("parent search needs at least one candidate")
    blocked = set(map(level.__getitem__, exchangeable))
    d = max(map(level.__getitem__, fixed)) if fixed else min(blocked)
    while d + 1 in blocked:
        d += 1
    return d + 1


def _place(growing: _GrowingTree, i: int, fixed: Collection[int],
           exchangeable: Collection[int], improved: bool) -> None:
    """Add vehicle i to a partial tree: the per-vehicle step of dfst and idfst.

    ``fixed`` and ``exchangeable`` are its placed predecessors (the CDG's sets
    in batch, the online conflict sets in the engine).  dfst hangs it under
    its deepest parent (lowest id on ties, read off the per-depth members);
    idfst takes ``find_opt_parent``'s layer and attaches to the least-loaded
    node one layer up (read off the per-depth heap).  Neither looks past the
    parents and the index.
    """
    if improved:
        k = growing.least_loaded(_target_depth(growing.level, fixed, exchangeable) - 1)
    else:
        layer = growing.layers[max(map(growing.level.__getitem__, chain(fixed, exchangeable)))]
        k = min(layer.intersection(fixed) | layer.intersection(exchangeable))
    growing.attach(i, k)


def dfst_schedule(cdg: ConflictDirectedGraph) -> SpanningTree:
    """Baseline tree: one layer below the deepest conflict parent of any kind."""
    growing = _GrowingTree(SpanningTree(parent={}, depth={}))
    for i in range(1, cdg.n + 1):
        _place(growing, i, cdg.fixed[i], cdg.exchangeable[i], improved=False)
    return growing.tree


def find_opt_parent(tree: SpanningTree, fixed: Iterable[int], exchangeable: Iterable[int]) -> int:
    """Shallowest placed parent whose child layer clears both constraints.

    The returned node k minimizes its depth subject to: depth(k) + 1 is
    strictly below none of the fixed-order parents (it exceeds their maximum
    depth) and does not coincide with any exchangeable parent's layer.
    Ties break toward fewer children, then the lower id.
    """
    fixed, exchangeable = set(fixed), set(exchangeable)
    level = {0: 0, **tree.depth}
    above = _target_depth(level, fixed, exchangeable) - 1
    children = Counter(tree.parent.values())
    return min((k for k in fixed | exchangeable if level[k] == above),
               key=lambda k: (children[k], k))


def idfst_schedule(cdg: ConflictDirectedGraph) -> SpanningTree:
    """Improved tree: exchangeable-order parents no longer set a depth floor.

    Same-lane and reachability parents must stay strictly above the new
    vehicle; crossing and converging parents only exclude their own layers,
    so the new vehicle may slot in front of them.  Each vehicle then takes
    the shallowest admissible layer and attaches to the least-loaded node
    one layer up.  The step reads each parent's depth once and finds the
    least-loaded node in a per-depth heap kept as the tree grows
    (``_GrowingTree``), so a vehicle costs O(parents + log n), not a scan
    of the tree.
    """
    growing = _GrowingTree(SpanningTree(parent={}, depth={}))
    for i in range(1, cdg.n + 1):
        _place(growing, i, cdg.fixed[i], cdg.exchangeable[i], improved=True)
    return growing.tree


def _bfs_order(conflicts: Sequence[int]) -> list[int]:
    """Breadth-first order over the conflict bitsets of vehicles 1..n.

    Each component starts at its most conflicted vehicle so that the hardest
    vehicles are colored while all group indices are still open; the frontier
    expands by ascending id.  Deterministic for a fixed graph.
    """
    order: list[int] = []
    visited = 0
    for start in sorted(range(1, len(conflicts)), key=lambda v: (-conflicts[v].bit_count(), v)):
        if visited >> start & 1:
            continue
        queue = deque([start])
        visited |= 1 << start
        while queue:
            node = queue.popleft()
            order.append(node)
            fresh = conflicts[node] & ~visited
            visited |= fresh
            queue.extend(_bits(fresh))
    return order


def mcc_greedy(cug: CoexistenceGraph) -> CliqueCover:
    """Greedy clique cover: color the complement graph in BFS order.

    Each vehicle takes the lowest group index not used by any conflicting
    vehicle; groups are cliques of the coexistence graph.
    """
    conflicts = [0] + [cug.conflicts(v) for v in range(1, cug.n + 1)]
    groups: list[int] = []  # member bitset per group index
    for node in _bfs_order(conflicts):
        c = next((c for c, g in enumerate(groups) if not g & conflicts[node]), len(groups))
        if c == len(groups):
            groups.append(0)
        groups[c] |= 1 << node
    return CliqueCover(subsets=tuple(frozenset(_bits(g)) for g in groups))


def _check_cap(cug: CoexistenceGraph, cap: int) -> None:
    if cug.n > cap:
        raise SizeLimitError(
            f"exact clique cover capped at {cap} vehicles (got {cug.n}); use mcc_greedy"
        )


def _clique_cover(masks: Iterable[int]) -> CliqueCover:
    return CliqueCover(subsets=tuple(frozenset(_bits(m)) for m in masks))


def minimum_clique_covers(cug: CoexistenceGraph, cap: int = 12) -> list[CliqueCover]:
    """Every minimum clique cover, sorted by canonical form.

    The covers are enumerated once per graph, on bitsets, and kept on it
    (``CoexistenceGraph._minimum_covers``); set partitioning in id order finds
    each cover once, so nothing is deduplicated.
    """
    _check_cap(cug, cap)
    return sorted(map(_clique_cover, cug._minimum_covers), key=CliqueCover.canonical)


def ordering_objective(cover: CliqueCover) -> int:
    """Total layer rank over vehicles once subsets are ordered largest first."""
    return _layer_rank(map(len, cover.subsets))


def _ranked_covers(cug: CoexistenceGraph, cap: int) -> Iterator[list[CliqueCover]]:
    """The minimum covers in preference order, one objective value at a time.

    Buckets of equal ``ordering_objective`` come best first, each sorted by
    canonical form; the ranking is done once per graph
    (``CoexistenceGraph._covers_by_rank``), and covers are built only for
    the buckets a caller walks.
    """
    _check_cap(cug, cap)
    for bucket in cug._covers_by_rank:
        yield sorted(map(_clique_cover, bucket), key=CliqueCover.canonical)


def mcc_bruteforce(cug: CoexistenceGraph, cap: int = 12) -> CliqueCover:
    """Exact minimum clique cover; prefers front-loaded covers.

    Among minimum covers the one minimizing the ordered layer-rank objective
    wins; remaining ties go to the lexicographically smallest canonical form.
    """
    return next(_ranked_covers(cug, cap))[0]


_ORDER_BUDGET = 200_000  # backtracking steps of one ``order_layers`` search


def order_layers(
    subsets: Iterable[Iterable[int]],
    lanes: list[list[int]],
    conflicted,
) -> list[tuple[int, ...]] | None:
    """Order cover subsets into conflict-free layers via lane-slot substitution.

    Each emitted layer substitutes, for every member, the earliest still
    unscheduled vehicle of that member's lane: vehicles of one lane are
    route-interchangeable, so this generalizes the pairwise exchange that
    restores arrival order along a lane.  A substitution can still collide
    with a reachability conflict (those are not lane-symmetric); the search
    prefers larger subsets first and backtracks over the emission order,
    for at most ``_ORDER_BUDGET`` steps.

    A subset enters the search only through its lane tuple (the sorted lanes
    of its members), and the lane heads follow from what was emitted, so a
    search state is the multiset of lane tuples still to emit.  The search
    never enters a state it has proven dead (states are keyed by a weighted
    sum over lane-tuple kinds); siblings with one lane tuple lead to one
    state, so after the first fails the others are skipped too.  The memo
    cuts only branches that fail, so the search finds the ordering a plain
    depth-first search would, with fewer steps.

    Returns None if no ordering is found within the budget.
    """
    lane_of: dict[int, int] = {}
    for ln, chain in enumerate(lanes):
        for v in chain:
            lane_of[v] = ln
    shapes = sorted((tuple(sorted(s)) for s in subsets), key=lambda s: (-len(s), s))
    shape_lanes = [tuple(sorted(lane_of[v] for v in s)) for s in shapes]
    kind_of: dict[tuple[int, ...], int] = {}
    kinds = [kind_of.setdefault(t, len(kind_of)) for t in shape_lanes]
    # mixed-radix weights: a multiset of kinds has exactly one weighted sum
    weight = [1] * len(kind_of)
    counts = Counter(kinds)
    for k in range(1, len(weight)):
        weight[k] = weight[k - 1] * (counts[k - 1] + 1)
    dead: set[int] = set()  # keys of states with no ordering
    layers_out: list[tuple[int, ...]] = []
    fuel = [_ORDER_BUDGET]

    def emit(remaining: list[int], heads: list[int], key: int) -> bool:
        fuel[0] -= 1
        if fuel[0] < 0:  # out of budget: no ordering
            return False
        if not remaining:
            return True
        for pick, idx in enumerate(remaining):
            rest = key - weight[kinds[idx]]  # the state after emitting this subset
            if rest in dead:
                continue
            group = tuple(lanes[ln][heads[ln]] for ln in shape_lanes[idx])
            if conflicted(group):
                continue
            for ln in shape_lanes[idx]:
                heads[ln] += 1
            layers_out.append(group)
            if emit(remaining[:pick] + remaining[pick + 1:], heads, rest):
                return True
            layers_out.pop()
            for ln in shape_lanes[idx]:
                heads[ln] -= 1
        if fuel[0] >= 0:  # searched in full, not cut by the budget
            dead.add(key)
        return False

    if emit(list(range(len(shapes))), [0] * len(lanes), sum(weight[k] for k in kinds)):
        return layers_out
    return None


def conflict_test(masks: Sequence[int]) -> Callable[[tuple[int, ...]], bool]:
    """``order_layers``' predicate: do any two members of a group conflict?

    ``masks[v]`` is the conflict bitset of vehicle v.
    """
    def conflicted(group: tuple[int, ...]) -> bool:
        seen = 0
        for v in group:
            if masks[v] & seen:
                return True
            seen |= 1 << v
        return False
    return conflicted


def _lanes_for(cdg: ConflictDirectedGraph) -> list[list[int]]:
    lanes = [list(chain) for chain in cdg.lane_chains()]
    seen = {v for chain in lanes for v in chain}
    for v in range(1, cdg.n + 1):
        if v not in seen:  # isolated vehicle, its own lane
            lanes.append([v])
    return lanes


def cover_to_tree(cover: CliqueCover, cdg: ConflictDirectedGraph) -> SpanningTree:
    """Turn a clique cover into a feasible layered spanning tree.

    Subsets are emitted largest first (front-loading minimizes the summed
    layer rank), with same-lane order restored by the lane-slot substitution
    of ``order_layers``.  Parents are the lowest id in the layer above.
    """
    members = sorted(v for s in cover.subsets for v in s)
    if members != list(range(1, cdg.n + 1)):
        raise ContractError("cover is not a partition of the scheduled vehicles")
    layers = order_layers(cover.subsets, _lanes_for(cdg), conflict_test(cdg.mask))
    if layers is None:
        raise RepairError("no ordering of the cover yields a conflict-free layering")
    return _tree_from_layers(layers, cdg)


def _lay_layers(parent: dict[int, int], depth: dict[int, int], layers: Iterable[Iterable[int]],
                predecessors: Callable[[int], tuple[frozenset[int], frozenset[int]]]) -> None:
    """Write ordered layers into a tree's maps, around the nodes already placed.

    Placed nodes (those in ``depth`` outside ``layers``) keep their depths.
    Each layer goes one below the previous one, and further down where a
    member needs it: below every placed node among its fixed predecessors,
    and off the depth of every placed node exchangeable with it, in either
    sense (``predecessors(v)`` gives v's fixed and exchangeable sets, as
    ``_place`` takes them).  A member hangs under the lowest id one layer
    up, or under the leader 0 when that layer is empty.  Members already in
    the maps are overwritten in place, so the maps keep their order.
    """
    layers = [list(layer) for layer in layers]
    members = set(chain.from_iterable(layers))
    placed = {w: dw for w, dw in depth.items() if w not in members}
    lowest = {0: 0}  # depth -> lowest id there: the parent index
    banned: dict[int, set[int]] = {}  # member -> depths of later placed nodes it may pass
    for w, dw in placed.items():
        lowest[dw] = min(w, lowest.get(dw, w))
        for m in predecessors(w)[1] & members:
            banned.setdefault(m, set()).add(dw)
    d = 0
    for layer in layers:
        floors, skip = [d], set()
        for m in layer:
            fixed, exchangeable = predecessors(m)
            floors += map(placed.__getitem__, fixed.intersection(placed))
            skip.update(map(placed.__getitem__, exchangeable.intersection(placed)))
            skip.update(banned.get(m, ()))
        d = max(floors) + 1
        while d in skip:
            d += 1
        anchor = lowest.get(d - 1, 0)
        for m in layer:
            depth[m], parent[m] = d, anchor
        lowest[d] = min(lowest.get(d, layer[0]), *layer)


def _tree_from_layers(layers: list[tuple[int, ...]], cdg: ConflictDirectedGraph) -> SpanningTree:
    parent: dict[int, int] = {}
    depth: dict[int, int] = {}
    _lay_layers(parent, depth, layers, lambda v: (cdg.fixed[v], cdg.exchangeable[v]))
    tree = SpanningTree(parent=parent, depth=depth)
    report = verify_feasible(tree, cdg)
    if not report.ok:
        raise RepairError(
            "cover ordering left violations: "
            f"same-layer {report.same_depth_conflicts}, order {report.order_violations}"
        )
    return tree


def _cover_layers(cug: CoexistenceGraph, lanes: list[list[int]], masks: Sequence[int],
                  exact: bool, cap: int = 12) -> list[tuple[int, ...]] | None:
    """Conflict-free layers from a clique cover: the cover route of batch and online.

    The exact route walks the minimum covers in preference order, the greedy
    route takes the greedy cover; the layers of the first cover that orders
    are returned, or None when none does (reachability conflicts are not
    lane-symmetric, so a cover can admit no lane-consistent layer order).
    ``lanes`` and ``masks`` (conflict bitsets) use the numbering 1..n of
    ``cug``.
    """
    conflicted = conflict_test(masks)
    covers = chain.from_iterable(_ranked_covers(cug, cap)) if exact else [mcc_greedy(cug)]
    for cover in covers:
        layers = order_layers(cover.subsets, lanes, conflicted)
        if layers is not None:
            return layers
    return None


def schedule_cover_tree(cug: CoexistenceGraph, cdg: ConflictDirectedGraph,
                        exact: bool, cap: int = 12) -> SpanningTree:
    """Cover-based schedule as a tree; idfst's tree when no cover orders (``_cover_layers``)."""
    layers = _cover_layers(cug, _lanes_for(cdg), cdg.mask, exact, cap)
    return idfst_schedule(cdg) if layers is None else _tree_from_layers(layers, cdg)
