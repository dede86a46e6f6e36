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
  The coloring goes by twin class (vehicles with one closed conflict set):
  a class expands the search once, and its members' first-fit scans go on
  where the previous member's stopped, so a cover costs O(classes * groups
  + n), not O(n * groups).  A crowded pool is a few classes, one per lane.
* ``mcc_bruteforce``: exact minimum clique cover, capped at ``BRUTE_CAP``
  vehicles.  The minimum covers are searched and ranked once per coexistence
  graph over its twin classes (``CoexistenceGraph._covers_by_rank``), and
  each class cover stands for its vehicle covers by its least dealing.

All of them yield a spanning tree rooted at the virtual leader whose depth
is the vehicle's passing layer; ``verify_feasible`` checks any tree against
the conflict graph.  Every route reads the graphs' bitsets.

Batch and online scheduling share one path and one tree index, the
per-depth bitsets of ``_GrowingTree``.  The trees add one vehicle at a time
with ``_place``; the cover routes turn a cover into layers with
``_cover_layers`` and lay them into the index with ``_lay_layers``, which
gives a layer idfst's depth (``_target_depth``) as if it were one vehicle.
The online engine keeps one index through the run, and lays its unlocked
vehicles around the locked ones.  ``order_layers`` orders a cover by
walking its groups largest first, each by lane-slot substitution, and,
when a group clashes, by a bounded depth-first search that takes one
lane-tuple kind per step and, once a state is proven dead, proves states
dead before it enters them by a projection onto lane pairs.  When no cover
orders (the exact route tries one minimum cover per class cover, the
greedy route its one cover, and a search that runs out of budget counts as
finding no order), ``schedule_cover_tree`` returns idfst's tree.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .conflicts import (CoexistenceGraph, ConflictDirectedGraph, ContractError, _bits,
                        _minimum_covers)


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


def _sorted_groups(subsets: Iterable[int]) -> list[tuple[int, ...]]:
    """Member bitsets as ascending id tuples, by descending size, then member order."""
    return sorted((tuple(_bits(s)) for s in subsets), key=lambda s: (-len(s), s))


@dataclass(frozen=True)
class CliqueCover:
    """Disjoint coexisting groups covering all vehicles, one member bitset each."""

    subsets: tuple[int, ...]

    @property
    def theta(self) -> int:
        return len(self.subsets)


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
    raised; a vehicle takes two bitset tests, and pairs are listed where one fails.
    """
    depth = tree.depth
    if set(depth) != set(range(1, cdg.n + 1)):
        raise ContractError("tree does not span the conflict graph nodes")
    report = FeasibilityReport(ok=True)
    rows = [0] * (tree.d_all + 1)  # per depth, its vehicles
    for v, d in depth.items():
        rows[d] |= 1 << v
    if any(cdg.mask[v] & rows[d] for v, d in depth.items()):
        report.same_depth_conflicts.extend(
            (i, j) for members in rows for i in _bits(members)
            for j in _bits(cdg.mask[i] & members >> (i + 1) << (i + 1)))
    below = list(itertools.accumulate(reversed(rows), operator.or_))[::-1]  # depth d and deeper
    for cs in cdg.sets:
        if ahead := cs.diverging & below[depth[cs.vehicle]]:
            report.order_violations.extend((i, cs.vehicle) for i in _bits(ahead))
    report.ok = not report.same_depth_conflicts and not report.order_violations
    return report


class _GrowingTree:
    """A spanning tree grown one vehicle at a time, with the index its step reads.

    ``layers[d]`` is the bitset of the nodes at depth d, the leader's bit 0
    in ``layers[0]``, and ``placed`` the bitset of all of them; ``open[d]`` is
    a heap of (children, node) over depth d, in which an entry whose count
    lags the node's ``children`` is stale and skipped.  ``_place`` keeps all
    of it up to date, so placing a vehicle never rescans the tree, and
    rebuilds it (``index``) after ``_lay_layers``, which leaves ``open`` None.
    """

    def __init__(self, tree: SpanningTree):
        self.tree = tree
        self.index()

    def index(self) -> None:
        self.children = Counter(self.tree.parent.values())
        self.layers: list[int] = []
        self.placed = 0
        self.open: list[list[tuple[int, int]]] | None = []
        for node, d in {0: 0, **self.tree.depth}.items():
            self._enter(node, d)

    def _enter(self, node: int, d: int) -> None:
        while len(self.layers) <= d:
            self.layers.append(0)
            self.open.append([])
        self.layers[d] |= 1 << node
        self.placed |= 1 << node
        heapq.heappush(self.open[d], (self.children[node], node))

    def least_loaded(self, d: int) -> int:
        """The node at depth d with the fewest children, then the lowest id."""
        heap = self.open[d]
        while heap[0][0] != self.children[heap[0][1]]:
            heapq.heappop(heap)
        return heap[0][1]

    def attach(self, i: int, k: int, target: int) -> None:
        """Place vehicle i at depth ``target``, as the child of node k one layer up."""
        self.tree.parent[i] = k
        self.tree.depth[i] = target
        self.children[k] += 1
        heapq.heappush(self.open[target - 1], (self.children[k], k))
        self._enter(i, target)


def _deepest(layers: list[int], parents: int) -> int:
    """The deepest depth whose bitset holds one of ``parents``; one must be placed."""
    d = len(layers) - 1
    while not layers[d] & parents:
        d -= 1
    return d


def _target_depth(layers: list[int], fixed: int, exchangeable: int) -> int:
    """idfst's layer: the shallowest one just below some parent that lies
    below every fixed-order parent and on no exchangeable parent's layer."""
    d = _deepest(layers, fixed) if fixed else next(
        d for d, layer in enumerate(layers) if layer & exchangeable)
    d += 1
    while d < len(layers) and layers[d] & exchangeable:
        d += 1
    return d


def _place(growing: _GrowingTree, i: int, fixed: int, exchangeable: int,
           improved: bool) -> None:
    """Add vehicle i to a partial tree: the per-vehicle step of dfst and idfst.

    ``fixed`` and ``exchangeable`` are the bitsets of its placed predecessors
    (the CDG's in batch, the online conflict sets' in the engine), tested
    depth by depth against the per-depth bitsets.  dfst hangs it under its
    deepest parent (the lowest id at the deepest depth holding one); idfst
    takes ``_target_depth`` and attaches to the least-loaded node one layer
    up (read off the per-depth heap).  Neither looks past the parents and
    the index.
    """
    parents = fixed | exchangeable
    if not parents or parents & ~growing.placed:
        raise ContractError(f"vehicle {i}: its parents must be nonempty and already placed")
    if growing.open is None:  # layers were laid since the last step
        growing.index()
    if improved:
        target = _target_depth(growing.layers, fixed, exchangeable)
        k = growing.least_loaded(target - 1)
    else:
        target = _deepest(growing.layers, parents) + 1
        hit = growing.layers[target - 1] & parents
        k = (hit & -hit).bit_length() - 1
    growing.attach(i, k, target)


def _grow(cdg: ConflictDirectedGraph, improved: bool) -> SpanningTree:
    """Place vehicles 1..n in arrival order with ``_place``."""
    growing = _GrowingTree(SpanningTree(parent={}, depth={}))
    for i in range(1, cdg.n + 1):
        _place(growing, i, cdg.fixed[i], cdg.exchangeable[i], improved)
    return growing.tree


def dfst_schedule(cdg: ConflictDirectedGraph) -> SpanningTree:
    """Baseline tree: one layer below the deepest conflict parent of any kind."""
    return _grow(cdg, improved=False)


def idfst_schedule(cdg: ConflictDirectedGraph) -> SpanningTree:
    """Improved tree: exchangeable-order parents no longer set a depth floor.

    Same-lane and reachability parents must stay strictly above the new
    vehicle; crossing and converging parents only exclude their own layers,
    so the new vehicle may slot in front of them.  Each vehicle then takes
    the shallowest admissible layer and attaches to the least-loaded node
    one layer up.  The step tests the parents against one bitset per depth
    and finds the least-loaded node in a per-depth heap kept as the tree
    grows (``_GrowingTree``), so a vehicle costs O(log n) plus one ``&`` per
    depth it tests, not a scan of the tree.
    """
    return _grow(cdg, improved=True)


def mcc_greedy(cug: CoexistenceGraph) -> CliqueCover:
    """Greedy clique cover: color the complement graph in BFS order.

    The breadth-first order runs over the pool along its conflicts.  Each
    component starts at its most conflicted vehicle (conflicts counted within
    the pool), so that the hardest vehicles are colored while all group
    indices are still open, and the frontier expands by ascending id.  Each
    vehicle, in that order, takes the lowest group index not used by any
    conflicting vehicle; groups are cliques of the coexistence graph.

    The work goes by twin class: the vehicles with one closed conflict set
    (their conflicts and themselves, within the pool).  Twins conflict with
    each other and with the same others, so a class enters the frontier
    whole, at one expansion, and only its first member popped adds fresh
    vertices.  A twin's scan for a group resumes past the group its previous
    twin took: groups only grow, so a group that holds a conflict of one
    twin holds one of the rest.  Each class expands once and scans each
    group at most once, O(classes * groups + n) tests, where vehicle by
    vehicle they were O(n * groups).  The order and the cover are the
    vehicle-by-vehicle ones; deterministic for a fixed graph.
    """
    pool, conflict = cug.pool, cug.conflict
    lowest: dict[int, int] = {}  # closed conflict set -> its class's lowest member
    class_of = {v: lowest.setdefault(pool & (conflict[v] | 1 << v), v) for v in _bits(pool)}
    closed = {c: members for members, c in lowest.items()}  # per class, by lowest member
    resume: dict[int, int] = {}  # per class expanded, the group its scan goes on from
    groups: list[int] = []  # member bitset per group index
    visited = 0
    for start in sorted(closed, key=lambda c: (-closed[c].bit_count(), c)):
        if visited >> start & 1:
            continue  # its class was reached whole
        visited |= 1 << start
        queue = [start]
        for node in queue:  # the loop reads the vertices appended as it goes
            c = class_of[node]
            g = resume.get(c)
            if g is None:  # the class's first member popped: expand it
                fresh = closed[c] & ~visited
                visited |= fresh
                queue.extend(_bits(fresh))
                g = 0
            while g < len(groups) and groups[g] & closed[c]:
                g += 1
            if g == len(groups):
                groups.append(0)
            groups[g] |= 1 << node
            resume[c] = g + 1  # group g now holds a twin
    return CliqueCover(subsets=tuple(groups))


BRUTE_CAP = 12  # most vehicles the exact cover takes, in batch and online
_ORDER_BUDGET = 200_000  # backtracking steps of one ``order_layers`` search


def check_cap(size: int) -> None:
    """Refuse an exact cover over more than ``BRUTE_CAP`` vehicles (``SizeLimitError``)."""
    if size > BRUTE_CAP:
        raise SizeLimitError(f"exact clique cover capped at {BRUTE_CAP} vehicles "
                             f"(got {size}); use mcc_greedy")


def _ranked_covers(cug: CoexistenceGraph) -> Iterator[CliqueCover]:
    """One minimum cover per quotient cover, in preference order: buckets of
    equal layer rank (``conflicts._layer_rank``) best first, each quotient cover
    as its least dealing in canonical order (``CoexistenceGraph._least_dealings``,
    kept on the graph per bucket reached).  Twins share a lane, so the dealings
    of one quotient cover present the same lane tuples and ``order_layers``
    orders all of them or none: the first in canonical order stands for all."""
    check_cap(cug.pool.bit_count())
    for k in range(len(cug._covers_by_rank)):
        yield from map(CliqueCover, cug._least_dealings(k))


def mcc_bruteforce(cug: CoexistenceGraph) -> CliqueCover:
    """Exact minimum clique cover; prefers front-loaded covers.

    Among minimum covers the one minimizing the ordered layer-rank objective
    wins; remaining ties go to the lexicographically smallest canonical form.
    It is the first cover of ``_ranked_covers``, built from the best rank
    bucket's quotient covers without dealing any of them out.
    """
    return next(_ranked_covers(cug))


def order_layers(
    subsets: Iterable[int],
    lanes: list[list[int]],
    conflict: Sequence[int],
) -> list[tuple[int, ...]] | None:
    """Order cover subsets (member bitsets) into conflict-free layers via
    lane-slot substitution; ``lanes`` lists each lane's vehicles in id order
    and ``conflict[v]`` is vehicle v's conflict bitset.  The subsets cover
    the lanes' vehicles, each once, and hold at most one vehicle per lane.

    Each emitted layer substitutes, for every member, the earliest still
    unscheduled vehicle of that member's lane: vehicles of one lane are
    route-interchangeable, so this generalizes the pairwise exchange that
    restores arrival order along a lane.  A substitution can still collide
    with a reachability conflict (those are not lane-symmetric); the search
    prefers larger subsets first and backtracks over the emission order,
    for at most ``_ORDER_BUDGET`` steps.

    A subset enters the search only through its kind, the sorted lanes of
    its members, so a state is the multiset of kinds still to emit (keyed by
    a mixed-radix sum) and fixes the lane heads.  A step tries each kind
    once, where its first unemitted subset stands in ``_sorted_groups``
    order, and never enters a state proven dead.  Once one is, the lane-pair
    projection proves states dead before they are entered: for two lanes a
    kind joins whose vehicles conflict, the subsets left that hold either
    must interleave so that each holding both meets non-conflicting heads
    (``_interleaves``).  A step checks the pairs of the emitted kind's lanes
    but those settled above it: no vehicles of a and b left conflict, or no
    subset left holds both; and a kind found to clash is not tried below
    while the kinds emitted share none of its lanes.  Both cuts drop only
    branches that fail, so the search finds the ordering a plain depth-first
    search would, with fewer steps.

    The search's first descent takes the subsets in ``_sorted_groups``
    order, the first untried place at each step, until a group clashes.  So
    that walk runs first, on the lane heads alone (``_walk``), and its layers
    are returned when no group clashes; the kinds, the state keys and the
    projection are built only when one does, and the search then starts
    from the root.

    Returns None if no ordering is found within the budget.
    """
    groups = _sorted_groups(subsets)
    lane_of = {v: ln for ln, lane in enumerate(lanes) for v in lane}
    walked = _walk(groups, lanes, lane_of, conflict)
    if walked is not None and len(groups) < _ORDER_BUDGET:  # as the search: len(groups) + 1 steps
        return walked
    kind_of: dict[tuple[int, ...], int] = {}
    kind_at = [kind_of.setdefault(tuple(sorted(lane_of[v] for v in s)), len(kind_of))
               for s in groups]  # per place in _sorted_groups order
    kinds = list(kind_of)
    counts = Counter(kind_at)
    # mixed-radix weights: a multiset of kinds has exactly one weighted sum
    weight = list(itertools.accumulate([counts[k] + 1 for k in range(len(kinds) - 1)],
                                       operator.mul, initial=1))
    swap: list[tuple[int, ...]] = [()] * len(kind_at)  # a place and its kind's next one
    first: dict[int, int] = {}
    for place in reversed(range(len(kind_at))):
        nxt = first.get(kind_at[place])
        swap[place] = (place,) if nxt is None else (place, nxt)
        first[kind_at[place]] = place
    fronts = set(first.values())  # each kind's first unemitted place
    heads = [0] * len(lanes)
    dead: set[int] = set()  # keys of states with no ordering
    layers_out: list[tuple[int, ...]] = []
    fuel = [_ORDER_BUDGET]
    # The lane-pair projection, set up by ``project`` once a state is proven dead.
    # Per kind: the pairs of two of its lanes, and the pairs of one or two, each
    # with what emitting it adds to the heads of a and b and takes from the
    # subsets holding both.  Per pair: those subsets left.  Per lane and head: the
    # bitsets of the lane's vehicles from there on, and of all their conflicts.
    pairs: list[tuple[int, ...]] = []  # (index, lane a, lane b, 0, 0, 0), a < b
    joined: list[list[int]] = [[] for _ in kinds]
    touching: list[list[tuple[int, ...]]] = [[] for _ in kinds]
    both: list[int] = []
    tails: list[list[int]] = []
    reach: list[list[int]] = []
    fits: dict[tuple[int, int, int, int], bool] = {}  # (pair, head a, head b, both) -> verdict
    # per kind, the kinds whose group, so whose clash, stays when it is emitted; set up
    # with the projection, so a search that never backtracks passes no clash down
    keeps = [0] * len(kinds)

    def project() -> None:
        def suffixes(bitsets: list[int]) -> list[int]:  # the OR from each index on; 0 at the end
            return [*itertools.accumulate(bitsets[::-1], operator.or_, initial=0)][::-1]

        on = [sum(1 << ln for ln in t) for t in kinds]
        keeps[:] = [~sum(1 << j for j, other in enumerate(on) if other & mine) for mine in on]
        tails[:] = [suffixes([1 << v for v in lane]) for lane in lanes]
        reach[:] = [suffixes([conflict[v] for v in lane]) for lane in lanes]
        found = sorted({(a, b) for t in kinds for a, b in itertools.combinations(t, 2)
                        if reach[b][0] & tails[a][0]})
        pairs[:] = [(p, a, b, 0, 0, 0) for p, (a, b) in enumerate(found)]
        for k, t in enumerate(kinds):
            joined[k] = [p for p, a, b, *_ in pairs if a in t and b in t]
            touching[k] = [(p, a, b, a in t, b in t, a in t and b in t)
                           for p, a, b, *_ in pairs if a in t or b in t]
        front = {kind_at[place]: place for place in fronts}
        both[:] = [0] * len(pairs)
        for place, k in enumerate(kind_at):
            for p in joined[k] if place >= front.get(k, len(kind_at)) else ():
                both[p] += 1

    def holds(checks: list[tuple[int, ...]], settled: int) -> int | None:
        # the pairs settled after the move, or None if one of ``checks`` fails then
        for entry in checks:
            if settled >> entry[0] & 1:
                continue
            p, a, b, step_a, step_b, step_both = entry
            head_a, head_b, left = heads[a] + step_a, heads[b] + step_b, both[p] - step_both
            if not left or not reach[b][head_b] & tails[a][head_a]:
                settled |= 1 << p
                continue
            key = (p, head_a, head_b, left)
            if key not in fits:
                fits[key] = _interleaves(lanes[a][head_a:], lanes[b][head_b:], left, conflict)
            if not fits[key]:
                return None
        return settled

    def emit(key: int, settled: int, clashing: int) -> bool:
        # settled: the pairs settled here (-1 before the first check); clashing: kinds that clash
        fuel[0] -= 1
        if fuel[0] < 0:  # out of budget: no ordering
            return False
        if not key:
            return True
        for place in sorted(fronts):
            k = kind_at[place]
            rest = key - weight[k]  # the state after emitting this kind
            if rest in dead or clashing >> k & 1:
                continue
            group = tuple([lanes[ln][heads[ln]] for ln in kinds[k]])
            if _clashes(group, conflict):
                clashing |= 1 << k
                continue
            child = settled if settled < 0 else holds(touching[k], settled)
            if child is None:
                dead.add(rest)
                continue
            for ln in kinds[k]:
                heads[ln] += 1
            for p in joined[k]:
                both[p] -= 1
            fronts.symmetric_difference_update(swap[place])
            layers_out.append(group)
            if emit(rest, child, clashing & keeps[k]):
                return True
            layers_out.pop()
            fronts.symmetric_difference_update(swap[place])
            for p in joined[k]:
                both[p] += 1
            for ln in kinds[k]:
                heads[ln] -= 1
            if dead and settled < 0:  # entered before the first dead state: check it in full
                settled = holds(pairs, 0)
                if settled is None:
                    break
        if fuel[0] >= 0:  # searched in full, not cut by the budget
            if not dead:
                project()
            dead.add(key)
        return False

    if emit(sum(map(weight.__getitem__, kind_at)), -1, 0):
        return layers_out
    return None


def _walk(groups: list[tuple[int, ...]], lanes: list[list[int]], lane_of: dict[int, int],
          conflict: Sequence[int]) -> list[tuple[int, ...]] | None:
    """Emit the groups in the order given, each by lane-slot substitution (a
    member's place taken by its lane's head), members by lane; None at the
    first group that clashes."""
    heads = [0] * len(lanes)
    layers: list[tuple[int, ...]] = []
    for members in groups:
        kind = sorted(lane_of[v] for v in members)
        group = tuple([lanes[ln][heads[ln]] for ln in kind])
        if _clashes(group, conflict):
            return None
        for ln in kind:
            heads[ln] += 1
        layers.append(group)
    return layers


def _interleaves(a: list[int], b: list[int], both: int, conflict: Sequence[int]) -> bool:
    """Can the steps left on lanes a and b (the lanes from their heads on),
    ``both`` of them taking a vehicle of each and the others one of either,
    interleave so that no step on both takes conflicting vehicles?  After k
    steps on both, the (a-only, b-only) counts reached form a staircase, kept
    as the least b-only count per a-only count."""
    only_a, only_b = len(a) - both, len(b) - both
    low = [0] * (only_a + 1)
    for k in range(both):
        reach = only_b + 1
        for i, j in enumerate(low):
            while j < reach and conflict[b[j + k]] >> a[i + k] & 1:
                j += 1
            low[i] = reach = min(reach, j)
        if low[only_a] > only_b:
            return False
    return True


def _clashes(group: tuple[int, ...], conflict: Sequence[int]) -> bool:
    """Do any two members of a group conflict?  Each member is tested only
    against the earlier ones, so a bitset may hold its own vehicle's bit
    (``build_cug``'s lane-blocked bitsets do)."""
    seen = 0
    for v in group:
        if conflict[v] & seen:
            return True
        seen |= 1 << v
    return False


def _lay_layers(growing: _GrowingTree, layers: Sequence[Sequence[int]],
                fixed: Sequence[int], exchangeable: Sequence[int]) -> bool:
    """Lay ordered layers into a tree's index, around the nodes already placed.

    Placed nodes keep their depths.  Each layer takes idfst's depth
    (``_target_depth``) for its members' ``fixed`` and ``exchangeable``
    bitsets, read against the index's rows less the members, with the
    layers laid before it; the previous layer (the leader before the
    first) is one more fixed parent.  Precondition: ``exchangeable[v]``
    holds every placed node that may pass v (other members and unplaced
    vehicles move no depth).  A member hangs under the lowest id one layer
    up.  The maps, rows and ``placed`` are written in place and ``open``
    left None; returns whether a member moved, to another depth or parent."""
    parent, depth = growing.tree.parent, growing.tree.depth
    members = sum(1 << m for layer in layers for m in layer)
    rows = [row & ~members for row in growing.layers]  # rows[0] holds the leader
    while not rows[-1]:  # else each layer's floor search would start at the old bottom
        rows.pop()
    above = 1  # the previous layer's members: the leader before the first layer
    moved = False
    for layer in layers:
        floor, banned = above, 0
        for m in layer:
            floor, banned = floor | fixed[m], banned | exchangeable[m]
        d = _target_depth(rows, floor, banned)
        if d == len(rows):
            rows.append(0)
        anchor = (rows[d - 1] & -rows[d - 1]).bit_length() - 1
        above = sum(1 << m for m in layer)
        rows[d] |= above
        for m in layer:
            moved = moved or depth.get(m, d) != d or parent.get(m, anchor) != anchor
            depth[m], parent[m] = d, anchor
    growing.layers, growing.placed, growing.open = rows, growing.placed | members, None
    return moved


def _tree_from_layers(layers: list[tuple[int, ...]], cdg: ConflictDirectedGraph) -> SpanningTree:
    tree = SpanningTree(parent={}, depth={})
    _lay_layers(_GrowingTree(tree), layers, cdg.fixed, cdg.exchangeable)
    report = verify_feasible(tree, cdg)
    if not report.ok:
        raise RepairError(
            "cover ordering left violations: "
            f"same-layer {report.same_depth_conflicts}, order {report.order_violations}"
        )
    return tree


def _cover_layers(cug: CoexistenceGraph, exact: bool) -> list[tuple[int, ...]] | None:
    """Conflict-free layers from a clique cover: the cover route of batch and online.

    The exact route walks the minimum covers in preference order, the greedy
    route takes the greedy cover; the layers of the first cover that orders
    are returned, or None when none does (reachability conflicts are not
    lane-symmetric, so a cover can admit no lane-consistent layer order).
    The graph's lane bitsets, cut to the pool, give the lanes, and groups
    are tested against its own conflict bitsets; batch and online alike
    keep the vehicles' ids throughout.
    """
    lanes = [list(_bits(members)) for lane in cug.lanes if (members := lane & cug.pool)]
    covers = _ranked_covers(cug) if exact else [mcc_greedy(cug)]
    for cover in covers:
        layers = order_layers(cover.subsets, lanes, cug.conflict)
        if layers is not None:
            return layers
    return None


def schedule_cover_tree(cug: CoexistenceGraph, cdg: ConflictDirectedGraph,
                        exact: bool) -> SpanningTree:
    """Cover-based schedule as a tree; idfst's tree when no cover orders (``_cover_layers``)."""
    layers = _cover_layers(cug, exact)
    return idfst_schedule(cdg) if layers is None else _tree_from_layers(layers, cdg)
