"""Per-vehicle conflict sets and the two graphs derived from them.

Each arriving vehicle is checked against the earlier vehicles still inside
the control zone.  Route conflicts (crossing, diverging, converging) come
from the movement table; the reachability conflict is kinematic: a vehicle
entering the zone cannot catch a conflict-free predecessor that is already
too close to the stopping line.

Every vehicle set is a Python-int bitset (bit k is vehicle k), so a pair
test is a shift and a group test ``&``.  The per-vehicle step
(``conflict_sets_for``) cuts the entering movement's class bitsets (one OR
per class over the movements the table puts there, ``class_masks``) to the
predecessors in the zone and to those of them already uncatchable.  Batch
analysis (``build_conflict_sets``) keeps these two bitsets in one sweep
under the nominal approach profile, the online engine from its live state.

The conflict directed graph (CDG) adds a virtual leader node 0 and keeps,
per node, bitsets of its fixed-order and exchangeable predecessors and of
its neighbours.  The coexistence graph is a vertex pool read against per-id
conflict bitsets (all of 1..n in batch, the unlocked vehicles online, under
their own ids); it carries the lanes, one bitset each, and searches the
minimum clique covers over its twin classes, of which the exact route tries
one vehicle cover per class cover.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .scenario import IntersectionConfig


class ContractError(ValueError):
    """Caller violated a documented precondition."""


@dataclass(frozen=True)
class VehicleRecord:
    """A vehicle indexed by arrival order at the control-zone border."""

    id: int  # 1-based arrival index
    movement: int  # movement id in the scenario
    entry_time: float  # seconds
    entry_speed: float  # m/s at the zone border


@dataclass(frozen=True)
class ConflictSets:
    """Conflict sets of one vehicle against its predecessors, as bitsets.

    Bit k is vehicle k.  All members are strictly smaller ids; the virtual
    leader 0 (bit 0) appears only in ``diverging`` and only for the first
    vehicle scheduled on its lane.
    """

    vehicle: int
    crossing: int
    diverging: int
    converging: int
    reachability: int

    def __post_init__(self):
        c, d, v, r = self.crossing, self.diverging, self.converging, self.reachability
        if c < 0 or d < 0 or v < 0 or r < 0:
            raise ContractError(f"vehicle {self.vehicle}: negative conflict bitset")
        if c & d | (c | d) & v | (c | d | v) & r:
            raise ContractError(f"vehicle {self.vehicle}: conflict sets overlap")
        top = (c | d | v | r).bit_length() - 1
        if top >= self.vehicle:
            raise ContractError(f"vehicle {self.vehicle}: conflict member {top} does not precede it")
        if (c | v | r) & 1:
            raise ContractError(f"vehicle {self.vehicle}: virtual leader allowed only in diverging set")

    @property
    def fixed(self) -> int:
        """Predecessors it must follow: same lane, uncatchable."""
        return self.diverging | self.reachability

    @property
    def exchangeable(self) -> int:
        """Predecessors it may pass: crossing, converging."""
        return self.crossing | self.converging


def _horizon(cfg: IntersectionConfig) -> float:
    return cfg.control_zone_length / cfg.v_max + cfg.v_max / (2.0 * cfg.a_max)


def reachability_conflict(preceding_distance: float, cfg: IntersectionConfig) -> bool:
    """True when the entering vehicle cannot catch the preceding one in time."""
    if preceding_distance < 0:
        raise ContractError("preceding_distance must be nonnegative")
    return preceding_distance / cfg.platoon_speed < _horizon(cfg)


def nominal_remaining(records: Sequence[VehicleRecord],
                      cfg: IntersectionConfig) -> Callable[[int, float], float]:
    """Remaining-distance model used when no live simulation state exists.

    Returns (vehicle id, time) -> distance to the stopping line at that time.
    Approach profile: accelerate at a_max from the entry speed to the platoon
    design speed, then cruise.  Negative values mean the vehicle has nominally
    passed the stopping line.  Never increases over time: the full zone
    length before entry, then a distance that only shrinks.
    """
    by_id = {r.id: r for r in records}

    def remaining(vehicle_id: int, t: float) -> float:
        rec = by_id[vehicle_id]
        elapsed = t - rec.entry_time
        if elapsed <= 0:
            return cfg.control_zone_length
        v0, vp = rec.entry_speed, cfg.platoon_speed
        t_ramp = abs(vp - v0) / cfg.a_max
        if elapsed <= t_ramp:
            a = cfg.a_max if vp >= v0 else -cfg.a_max
            travelled = v0 * elapsed + 0.5 * a * elapsed * elapsed
        else:
            travelled = 0.5 * (v0 + vp) * t_ramp + vp * (elapsed - t_ramp)
        return cfg.control_zone_length - travelled

    return remaining


def _nominal_time(rec: VehicleRecord, distance: float, cfg: IntersectionConfig) -> float:
    """When ``nominal_remaining`` brings ``rec`` to ``distance`` from the line.

    The profile inverted in closed form; ``-inf`` when it starts there.
    Only orders the sweep of ``build_conflict_sets``, which still decides
    membership with ``nominal_remaining`` itself.
    """
    travel = cfg.control_zone_length - distance
    if travel <= 0:
        return -math.inf
    v0, vp = rec.entry_speed, cfg.platoon_speed
    t_ramp = abs(vp - v0) / cfg.a_max
    ramp = 0.5 * (v0 + vp) * t_ramp
    if travel > ramp:
        return rec.entry_time + t_ramp + (travel - ramp) / vp
    a = cfg.a_max if vp >= v0 else -cfg.a_max
    return rec.entry_time + (math.sqrt(v0 * v0 + 2.0 * a * travel) - v0) / a


def class_masks(movement: int, lanes: Mapping[int, int], cfg: IntersectionConfig) -> tuple:
    """Per ``ConflictClass``, the vehicles of ``lanes`` (movement id -> bitset) that an
    entrant on ``movement`` meets (``IntersectionConfig.class_lists``); lanes are
    disjoint, so a sum is an OR.  An unknown movement raises ``ValidationError``."""
    classes = cfg.class_lists[cfg.movement(movement).id]
    return tuple(sum(lanes.get(m, 0) for m in ids) for ids in classes)


def conflict_sets_for(vehicle: VehicleRecord, zone: int, uncatchable: int,
                      masks: tuple[int, int, int, int]) -> ConflictSets:
    """One vehicle's conflict sets from bitsets of its in-zone predecessors.

    ``zone`` holds the predecessors still in the zone (remaining distance
    positive) and ``uncatchable`` those of them the vehicle cannot catch
    (``reachability_conflict``); ``masks`` are its movement's class bitsets
    (``class_masks``) over any superset of the in-zone vehicles, each cut to
    the zone.  The diverging set keeps only the immediate same-lane
    predecessor, or the virtual leader 0 when none is left in the zone.
    """
    if zone & 1 or zone >> vehicle.id:
        raise ContractError("zone members must be vehicles that precede the entrant")
    crossing, lane, converging, free = masks
    return ConflictSets(vehicle.id, zone & crossing, 1 << max((zone & lane).bit_length() - 1, 0),
                        zone & converging, zone & uncatchable & free)


def build_conflict_sets(vehicles: Sequence[VehicleRecord],
                        cfg: IntersectionConfig) -> list[ConflictSets]:
    """Conflict sets for a whole arrival sequence under the nominal approach.

    One sweep in entry order keeps a bitset ``zone`` of the vehicles that
    have not yet nominally crossed the line and a bitset ``near`` of those
    already too close to catch.  A vehicle leaves ``zone``, and enters
    ``near``, at most once: the sweep walks two lists sorted by the nominal
    times of those events (``_nominal_time``) and moves each vehicle when
    ``nominal_remaining`` at the entrant's entry time says so, the same
    predicates as a pairwise check.  With each movement's class bitsets made
    once (``class_masks``), an entrant's sets are a few word-parallel ANDs
    (``conflict_sets_for``), so the model is evaluated O(n) times, not per pair.

    Precondition: the nominal distance never increases over time, so that
    a vehicle once crossed or uncatchable stays so for every later entrant.
    """
    ids = [v.id for v in vehicles]
    if ids != sorted(ids) or len(set(ids)) != len(ids):
        raise ContractError("vehicles must be sorted by id with unique ids")
    lanes: dict[int, int] = {}
    for v in vehicles:
        lanes[v.movement] = lanes.get(v.movement, 0) | 1 << v.id
    masks = {m: class_masks(m, lanes, cfg) for m in lanes}  # unknown movements fail here
    remaining = nominal_remaining(vehicles, cfg)
    horizon = _horizon(cfg)
    near_at = cfg.platoon_speed * horizon
    to_near = sorted(vehicles, key=lambda r: (_nominal_time(r, near_at, cfg), r.entry_time, r.id))
    to_gone = sorted(vehicles, key=lambda r: (_nominal_time(r, 0.0, cfg), r.entry_time, r.id))
    zone = sum(1 << i for i in ids)
    near = 0
    next_near = next_gone = 0
    out: dict[int, ConflictSets] = {}
    for vehicle in sorted(vehicles, key=lambda r: (r.entry_time, r.id)):
        t = vehicle.entry_time
        while (next_near < len(to_near)
               and remaining(to_near[next_near].id, t) / cfg.platoon_speed < horizon):
            near |= 1 << to_near[next_near].id
            next_near += 1
        while next_gone < len(to_gone) and remaining(to_gone[next_gone].id, t) <= 0:
            zone &= ~(1 << to_gone[next_gone].id)
            next_gone += 1
        ahead = zone & ((1 << vehicle.id) - 2)  # the predecessors, without the leader's bit
        out[vehicle.id] = conflict_sets_for(vehicle, ahead, ahead & near, masks[vehicle.movement])
    return [out[i] for i in ids]


def _bits(mask: int) -> Iterator[int]:
    """Members of a bitset, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class ConflictDirectedGraph:
    """Conflict graph over nodes {0, 1, .., n}; 0 is the virtual leader.

    Every edge joins a node to a later one.  The graph is its adjacency, per
    node bitsets of the predecessors it must follow (``fixed``: same lane,
    uncatchable), of those it may pass (``exchangeable``: crossing,
    converging) and of its neighbours in either sense (``mask``).  The four
    edge families keep their origin for reports and tests; they are views of
    the conflict sets the graph was built from, derived on first use.
    """

    n: int
    sets: tuple[ConflictSets, ...]  # what ``build_cdg`` assembled, in its order
    fixed: tuple[int, ...]
    exchangeable: tuple[int, ...]
    mask: tuple[int, ...]

    @cached_property
    def lane_edges(self) -> frozenset[tuple[int, int]]:
        """(predecessor, follower) on one lane; 0 before the first of a lane."""
        return frozenset((i, cs.vehicle) for cs in self.sets for i in _bits(cs.diverging))

    @cached_property
    def reach_edges(self) -> frozenset[tuple[int, int]]:
        """(uncatchable leader, late entrant)."""
        return frozenset((i, cs.vehicle) for cs in self.sets for i in _bits(cs.reachability))

    @cached_property
    def crossing_edges(self) -> frozenset[tuple[int, int]]:
        """Normalized (low, high) pairs."""
        return frozenset((i, cs.vehicle) for cs in self.sets for i in _bits(cs.crossing))

    @cached_property
    def converging_edges(self) -> frozenset[tuple[int, int]]:
        """Normalized (low, high) pairs."""
        return frozenset((i, cs.vehicle) for cs in self.sets for i in _bits(cs.converging))

    def connected(self, i: int, j: int) -> bool:
        """True when any edge links i and j, in either sense."""
        return bool(self.mask[i] >> j & 1)

    def to_dict(self) -> dict:
        """Nodes and edge lists; each edge is a fresh list, so YAML writes no aliases."""
        def edges(pairs: frozenset[tuple[int, int]]) -> list[list[int]]:
            return [list(e) for e in sorted(pairs)]

        return {
            "nodes": list(range(self.n + 1)),
            "unidirectional": edges(self.lane_edges | self.reach_edges),
            "bidirectional": edges(self.crossing_edges | self.converging_edges),
            "lane": edges(self.lane_edges),
            "reachability": edges(self.reach_edges),
            "crossing": edges(self.crossing_edges),
            "converging": edges(self.converging_edges),
        }


@dataclass(frozen=True)
class CoexistenceGraph:
    """Coexistence over a vertex pool, read off the callers' conflict bitsets.

    ``pool`` is the bitset of the vehicles in the graph and ``conflict[i]``
    the bitset of those vehicle i may not share a layer with, both over the
    vehicles' own ids; bits outside the pool are ignored.  Members coexist
    when neither is in the other's bitset, so the coexistence view of a
    member is one ``&``.  ``lanes`` holds one bitset per lane, whose
    vehicles cross in id order and never together; every pool member is in
    one of them.  The conflict bitsets must be symmetric, as both callers
    build them.  The minimum covers of the twin-class quotient are found on
    first use and kept on the graph, as ``edges`` is, and so is each rank
    bucket's list of least dealings once a caller reaches it.
    """

    pool: int
    conflict: Sequence[int]  # per vehicle id; read, never copied
    lanes: Sequence[int]  # one bitset per lane; read, never copied

    def coexist(self, i: int) -> int:
        """Bitset of the pool's vehicles i may cross with."""
        return self.pool & ~(self.conflict[i] | 1 << i)

    def adjacent(self, i: int, j: int) -> bool:
        return bool(self.coexist(i) >> j & 1)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Normalized (low, high) pairs, derived on first use."""
        return frozenset((i, j) for i in _bits(self.pool)
                         for j in _bits(self.coexist(i) >> (i + 1) << (i + 1)))

    @cached_property
    def _classes(self) -> list[int]:
        """The pool's twin classes, largest first: bitsets of the vehicles of one
        lane with one coexistence bitset.  Twins never coexist (a vehicle is
        outside its own bitset) and are interchangeable in every cover; being of
        one lane, every way to deal them gives a cover of the same lane tuples."""
        twins: dict[tuple[int, int], int] = {}
        for lane in self.lanes:
            for v in _bits(lane & self.pool):
                key = (self.coexist(v), lane)
                twins[key] = twins.get(key, 0) | 1 << v
        return sorted(twins.values(), key=lambda m: (-m.bit_count(), m & -m))

    @cached_property
    def _covers_by_rank(self) -> tuple[list[tuple[int, ...]], ...]:
        """Every minimum cover of the twin-class quotient in buckets of equal layer
        rank, best first.  A clique is the bitset of its classes (bit j is
        ``_classes[j]``) and holds one vehicle of each, so a cover ranks as the
        vehicle covers it stands for; covers are ranked once per profile of
        clique sizes.  Exponential: reach it only through ``scheduling``'s
        capped wrappers."""
        classes = self._classes
        coexist = [self.coexist((m & -m).bit_length() - 1) for m in classes]
        accepts = [sum(1 << k for k, other in enumerate(classes) if other & shared)
                   for shared in coexist]
        covers = _minimum_covers(accepts, [m.bit_count() for m in classes])
        profiles: dict[tuple[int, ...], list[tuple[int, ...]]] = {}  # by clique sizes, in order
        for cover in covers:
            profiles.setdefault(tuple(map(int.bit_count, cover)), []).append(cover)
        buckets: dict[int, list[tuple[int, ...]]] = {}
        for profile, alike in profiles.items():
            buckets.setdefault(_layer_rank(profile), []).extend(alike)
        return tuple(buckets[rank] for rank in sorted(buckets))

    @cached_property
    def _dealings(self) -> dict[int, list[tuple[int, ...]]]:
        """Per rank bucket reached so far, its list from ``_least_dealings``."""
        return {}

    def _least_dealings(self, k: int) -> list[tuple[int, ...]]:
        """Bucket k of ``_covers_by_rank`` as one vehicle cover per quotient cover,
        its least dealing (``_least_dealing``), in the order of their keys; built
        when a caller first reaches the bucket, then kept.  A vehicle cover stands
        for one quotient cover, so no two keys are equal, and the first element is
        the bucket's first vehicle cover in canonical order."""
        if k not in self._dealings:
            dealt = sorted(map(self._least_dealing, self._covers_by_rank[k]))
            self._dealings[k] = [cover for _, cover in dealt]
        return self._dealings[k]

    def _least_dealing(self, cover: tuple[int, ...]
                       ) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """The least canonical form (a group's sorted ids, groups by descending
        size, then by ids) among the vehicle covers a quotient cover stands for,
        and that vehicle cover, cliques by lowest member.  Cliques are filled
        largest first: each open clique of the largest size left takes the lowest
        unused vehicle of each of its classes, and the one whose ids then come
        first is fixed.  No clique can do better than those vehicles, and
        equal-size groups compare by their ids, so each fixed group is the least
        the canonical form can hold in its place."""
        unused = list(self._classes)
        key: list[tuple[int, ...]] = []
        groups: list[int] = []
        for size in sorted({c.bit_count() for c in cover}, reverse=True):
            open_ = [c for c in cover if c.bit_count() == size]
            while open_:
                ids, clique, group = min(
                    (tuple(_bits(group)), c, group) for c in open_
                    for group in [sum(unused[j] & -unused[j] for j in _bits(c))])
                open_.remove(clique)
                for j in _bits(clique):
                    unused[j] &= unused[j] - 1
                key.append(ids)
                groups.append(group)
        return tuple(key), tuple(sorted(groups, key=lambda m: m & -m))

    def to_dict(self) -> dict:
        return {"nodes": list(_bits(self.pool)), "edges": sorted(self.edges)}


def _minimum_covers(accepts: Sequence[int], sizes: Sequence[int]) -> list[tuple[int, ...]]:
    """Every minimum clique cover over classes of interchangeable vertices, each
    a tuple of class bitsets (bit j is class j) in the order its cliques opened.
    Class j has ``sizes[j]`` vertices (maybe none), which never share a clique,
    and ``accepts[j]`` is the bitset of the classes whose vertices coexist with
    its own.  Branch and bound: the m vertices of class j join m distinct
    cliques, open ones that accept it (of identical ones the first, so no cover
    repeats) or new ones, and branches with more cliques than the best cover
    are cut.  With each vertex its own class, this is the plain vertex-by-vertex
    enumeration."""
    sizes = [*sizes, -1]  # the sentinel ends the last class
    best = sum(sizes) + 1
    covers: list[tuple[int, ...]] = []
    cliques: list[int] = []  # class bitset per open clique
    common: list[int] = []  # per open clique, the classes that coexist with all of its own

    def place(j: int, placed: int, last: int) -> None:
        # class j's next vertex joins a clique past ``last`` (first of a kind) or a new one
        nonlocal best
        while placed == sizes[j]:  # a class of no vertices is passed over
            j, placed, last = j + 1, 0, -1
        if j == len(accepts):
            if len(cliques) < best:
                best = len(cliques)
                covers.clear()
            covers.append(tuple(cliques))
            return
        bit, accept = 1 << j, accepts[j]
        for c in range(last + 1, len(cliques)):
            clique, shared = cliques[c], common[c]
            if shared & bit and cliques.index(clique) == c:
                cliques[c], common[c] = clique | bit, shared & accept
                place(j, placed + 1, c)
                cliques[c], common[c] = clique, shared
        if len(cliques) < best:
            cliques.append(bit)
            common.append(accept)
            place(j, placed + 1, len(cliques) - 1)
            del cliques[-1], common[-1]

    place(0, 0, -1)
    return covers


def _layer_rank(sizes: Iterable[int]) -> int:
    """Total layer rank of the members once groups are ordered largest first."""
    ordered = sorted(sizes, reverse=True)
    return sum(map(operator.mul, range(1, len(ordered) + 1), ordered))


def build_cdg(sets: Sequence[ConflictSets]) -> ConflictDirectedGraph:
    """Assemble the conflict directed graph from per-vehicle conflict sets.

    The predecessor bitsets are ORs of the conflict sets.  The neighbour
    bitsets need each node's successors too: the predecessor bitsets are
    unpacked into one boolean matrix, which is made symmetric and packed
    into one bitset per row, all byte-parallel, so no pair is visited one at
    a time.  The matrix takes (n + 1)² bytes for the duration of the call.
    """
    sets = tuple(sets)
    n = max((cs.vehicle for cs in sets), default=0)
    fixed = [0] * (n + 1)
    exchangeable = [0] * (n + 1)
    for cs in sets:
        j = cs.vehicle
        fixed[j] |= cs.fixed
        exchangeable[j] |= cs.exchangeable
    width = (n + 8) // 8  # bytes per row of n + 1 bits
    preds = b"".join((f | x).to_bytes(width, "little") for f, x in zip(fixed, exchangeable))
    linked = np.unpackbits(np.frombuffer(preds, np.uint8).reshape(n + 1, width), axis=1,
                           count=n + 1, bitorder="little").view(bool)  # [j, i]: i precedes j
    linked |= linked.T
    packed = np.packbits(linked, axis=1, bitorder="little")
    return ConflictDirectedGraph(
        n=n,
        sets=sets,
        fixed=tuple(fixed),
        exchangeable=tuple(exchangeable),
        mask=tuple(int.from_bytes(row.tobytes(), "little") for row in packed),
    )


def build_cug(cdg: ConflictDirectedGraph) -> CoexistenceGraph:
    """The coexistence graph of the real vehicles 1..n: an edge means "may coexist".

    The lanes come from one pass over the conflict sets in id order: a
    vehicle joins the lane of its same-lane (``diverging``) predecessor, or
    starts a lane when that is the leader, so lanes are ordered by their
    first vehicle.  A lane that forks (an entrant overtakes on the nominal
    profile, and two followers name one predecessor) stays one lane.  Lane
    edges only record the immediate predecessor, but no two vehicles of one
    lane can ever cross together, so each member's conflict bitset blocks
    its whole lane.
    """
    ahead = {cs.vehicle: cs.diverging & ~1 for cs in cdg.sets}
    lane_of: dict[int, int] = {}
    lanes: list[int] = []
    for v in range(1, cdg.n + 1):
        k = lane_of[v] = lane_of.get(ahead.get(v, 0).bit_length() - 1, len(lanes))
        if k == len(lanes):
            lanes.append(0)
        lanes[k] |= 1 << v
    blocked = list(cdg.mask)
    for lane in lanes:
        for v in _bits(lane):
            blocked[v] |= lane
    return CoexistenceGraph(pool=(1 << cdg.n + 1) - 2, conflict=blocked, lanes=lanes)
