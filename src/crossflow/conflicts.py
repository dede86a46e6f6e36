"""Per-vehicle conflict sets and the two graphs derived from them.

Each arriving vehicle is checked against the earlier vehicles still inside
the control zone.  Route conflicts (crossing, diverging, converging) come
from the movement table; the reachability conflict is kinematic: a vehicle
entering the zone cannot catch a conflict-free predecessor that is already
too close to the stopping line.

Every vehicle set is a Python-int bitset (bit k is vehicle k), so a pair
test is a shift and a group test ``&``.  The per-vehicle step
(``conflict_sets_for``) ORs each movement's vehicles into the classes the
table puts it in, cut to the predecessors in the zone and to those of them
already uncatchable.  Batch analysis (``build_conflict_sets``) keeps these
two bitsets in one sweep under the nominal approach profile, the online
engine from its live state.

The conflict directed graph (CDG) adds a virtual leader node 0 and keeps,
per node, bitsets of its fixed-order and exchangeable predecessors and of
its neighbours.  The coexistence graph is a vertex pool read against per-id
conflict bitsets (all of 1..n in batch, the unlocked vehicles online, under
their own ids); it carries the lanes, one bitset each, and finds the exact
clique covers over its twin classes.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .scenario import ConflictClass, IntersectionConfig


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
        groups = (self.crossing, self.diverging, self.converging, self.reachability)
        if min(groups) < 0:
            raise ContractError(f"vehicle {self.vehicle}: negative conflict bitset")
        if any(a & b for a, b in itertools.combinations(groups, 2)):
            raise ContractError(f"vehicle {self.vehicle}: conflict sets overlap")
        top = max(map(int.bit_length, groups)) - 1
        if top >= self.vehicle:
            raise ContractError(f"vehicle {self.vehicle}: conflict member {top} does not precede it")
        if (self.crossing | self.converging | self.reachability) & 1:
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


def conflict_sets_for(
    vehicle: VehicleRecord,
    zone: int,
    uncatchable: int,
    lanes: Mapping[int, int],
    cfg: IntersectionConfig,
) -> ConflictSets:
    """One vehicle's conflict sets from bitsets of its in-zone predecessors.

    ``zone`` holds the predecessors still in the zone (remaining distance
    positive) and ``uncatchable`` those of them the vehicle cannot catch
    (``reachability_conflict``); ``lanes`` maps movement ids to bitsets of
    their vehicles, any superset of the in-zone ones.  Each conflict class
    is one OR of the movements the conflict table puts in it, cut to the
    zone.  The diverging set keeps only the immediate same-lane predecessor,
    or the virtual leader 0 when none is left in the zone.
    """
    if zone & 1 or zone >> vehicle.id:
        raise ContractError("zone members must be vehicles that precede the entrant")
    classes = cfg.conflict_table[cfg.movement(vehicle.movement).id]
    crossing = converging = lane = free = 0
    for movement, members in lanes.items():
        cls = classes[movement]
        if cls is ConflictClass.CROSSING:
            crossing |= members
        elif cls is ConflictClass.CONVERGING:
            converging |= members
        elif cls is ConflictClass.DIVERGING:
            lane |= members
        else:
            free |= members
    return ConflictSets(
        vehicle=vehicle.id,
        crossing=zone & crossing,
        diverging=1 << max((zone & lane).bit_length() - 1, 0),
        converging=zone & converging,
        reachability=zone & uncatchable & free,
    )


def build_conflict_sets(vehicles: Sequence[VehicleRecord],
                        cfg: IntersectionConfig) -> list[ConflictSets]:
    """Conflict sets for a whole arrival sequence under the nominal approach.

    One sweep in entry order keeps a bitset ``zone`` of the vehicles that
    have not yet nominally crossed the line and a bitset ``near`` of those
    already too close to catch.  A vehicle leaves ``zone``, and enters
    ``near``, at most once: the sweep walks two lists sorted by the nominal
    times of those events (``_nominal_time``) and moves each vehicle when
    ``nominal_remaining`` at the entrant's entry time says so, the same
    predicates as a pairwise check.  Each entrant's sets are then a few
    word-parallel ORs and ANDs (``conflict_sets_for``), so the model is
    evaluated O(n) times instead of once per pair.

    Precondition: the nominal distance never increases over time, so that
    a vehicle once crossed or uncatchable stays so for every later entrant.
    """
    ids = [v.id for v in vehicles]
    if ids != sorted(ids) or len(set(ids)) != len(ids):
        raise ContractError("vehicles must be sorted by id with unique ids")
    lanes: dict[int, int] = {}
    for v in vehicles:
        cfg.movement(v.movement)  # unknown movements fail before any sweep
        lanes[v.movement] = lanes.get(v.movement, 0) | 1 << v.id
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
        out[vehicle.id] = conflict_sets_for(vehicle, ahead, ahead & near, lanes, cfg)
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

    @property
    def unidirectional(self) -> frozenset[tuple[int, int]]:
        return self.lane_edges | self.reach_edges

    @property
    def bidirectional(self) -> frozenset[tuple[int, int]]:
        return self.crossing_edges | self.converging_edges

    def connected(self, i: int, j: int) -> bool:
        """True when any edge links i and j, in either sense."""
        return bool(self.mask[i] >> j & 1)

    def to_dict(self) -> dict:
        return {
            "nodes": list(range(self.n + 1)),
            "unidirectional": sorted(self.unidirectional),
            "bidirectional": sorted(self.bidirectional),
            "lane": sorted(self.lane_edges),
            "reachability": sorted(self.reach_edges),
            "crossing": sorted(self.crossing_edges),
            "converging": sorted(self.converging_edges),
        }


@dataclass(frozen=True)
class CoexistenceGraph:
    """Coexistence over a vertex pool, read off the callers' conflict bitsets.

    ``pool`` is the bitset of the vehicles in the graph and ``conflict[i]``
    the bitset of those vehicle i may not share a layer with, both over the
    vehicles' own ids; bits outside the pool are ignored.  Members coexist
    when neither is in the other's bitset, so the coexistence and conflict
    views of a member are each one ``&``.  ``lanes`` holds one bitset per
    lane, whose vehicles cross in id order and never together; every pool
    member is in one of them.  The conflict bitsets must be symmetric, as
    both callers build them.  The minimum clique covers are found over the
    twin classes on first use and kept on the graph, as ``edges`` is.
    """

    pool: int
    conflict: Sequence[int]  # per vehicle id; read, never copied
    lanes: Sequence[int]  # one bitset per lane; read, never copied

    def coexist(self, i: int) -> int:
        """Bitset of the pool's vehicles i may cross with."""
        return self.pool & ~(self.conflict[i] | 1 << i)

    def conflicts(self, i: int) -> int:
        """Bitset of the pool's vehicles i may not share a layer with."""
        return self.pool & self.conflict[i] & ~(1 << i)

    def adjacent(self, i: int, j: int) -> bool:
        return bool(self.coexist(i) >> j & 1)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Normalized (low, high) pairs, derived on first use."""
        return frozenset((i, j) for i in _bits(self.pool)
                         for j in _bits(self.coexist(i) >> (i + 1) << (i + 1)))

    @cached_property
    def _classes(self) -> list[int]:
        """The pool's twin classes, largest first: bitsets of the vehicles with one
        coexistence bitset.  Twins never coexist (a vehicle is outside its own
        bitset) and are interchangeable in every cover."""
        twins: dict[int, int] = {}
        for v in _bits(self.pool):
            twins[self.coexist(v)] = twins.get(self.coexist(v), 0) | 1 << v
        return sorted(twins.values(), key=lambda m: (-m.bit_count(), m & -m))

    @cached_property
    def _covers_by_rank(self) -> tuple[tuple[list[tuple[int, ...]], list[tuple[int, ...]]], ...]:
        """Every minimum cover of the twin-class quotient in buckets of equal layer
        rank, best first, each paired with a list for its vehicle covers, filled
        by ``_ranked_bucket``.  A clique is the bitset of its classes (bit j is
        ``_classes[j]``) and holds one vehicle of each, so a cover ranks as the
        vehicle covers it stands for.  Branch and bound: the m vehicles of class j
        join m distinct cliques, open ones that accept it (of identical ones the
        first, so no cover repeats) or new ones, and branches with more cliques
        than the best cover are cut.  Exponential: reach it only through
        ``scheduling``'s capped wrappers."""
        classes = self._classes
        accepts = [sum(1 << k for k, other in enumerate(classes)
                       if other & self.coexist(next(_bits(m)))) for m in classes]
        best = self.pool.bit_count()
        covers: list[tuple[int, ...]] = []
        cliques: list[int] = []  # class bitset per open clique
        common: list[int] = []  # per open clique, the classes that coexist with all of its own

        def place(j: int, placed: int, last: int) -> None:
            # class j's next vehicle joins a clique past ``last`` (first of a kind) or a new one
            nonlocal best
            if j < len(classes) and placed == classes[j].bit_count():
                j, placed, last = j + 1, 0, -1
            if j == len(classes):
                if len(cliques) < best:
                    best = len(cliques)
                    covers.clear()
                covers.append(tuple(cliques))
                return
            for c in range(last + 1, len(cliques)):
                clique, shared = cliques[c], common[c]
                if shared >> j & 1 and clique not in cliques[:c]:
                    cliques[c], common[c] = clique | 1 << j, shared & accepts[j]
                    place(j, placed + 1, c)
                    cliques[c], common[c] = clique, shared
            if len(cliques) < best:
                cliques.append(1 << j)
                common.append(accepts[j])
                place(j, placed + 1, len(cliques) - 1)
                del cliques[-1], common[-1]

        place(0, 0, -1)
        buckets: dict[int, list[tuple[int, ...]]] = {}
        for cover in covers:
            buckets.setdefault(_layer_rank(map(int.bit_count, cover)), []).append(cover)
        return tuple((buckets[rank], []) for rank in sorted(buckets))

    def _ranked_bucket(self, k: int) -> list[tuple[int, ...]]:
        """Bucket k of ``_covers_by_rank`` as vehicle covers, cliques by lowest member,
        in canonical order (``_sorted_groups``); expanded on first use, then kept.
        Each class's vehicles are dealt over its cliques; identical cliques take
        their lowest class's in order, so no vehicle cover repeats."""
        quotient, covers = self._covers_by_rank[k]
        if covers:
            return covers
        for cover in map(sorted, quotient):  # identical cliques side by side
            options = []  # per class, each way to deal its vehicles: clique -> vehicle bit
            for j, members in enumerate(self._classes):
                at = [c for c, clique in enumerate(cover) if clique >> j & 1]
                runs = [len(list(run)) for _, run in itertools.groupby(
                    at, lambda c: cover[c] if cover[c] & -cover[c] == 1 << j else ~c)]
                options.append([dict(zip(at, dealt)) for dealt in
                                _dealt(tuple(1 << v for v in _bits(members)), runs)])
            for deal in itertools.product(*options):
                cliques = (sum(d.get(c, 0) for d in deal) for c in range(len(cover)))
                covers.append(tuple(sorted(cliques, key=lambda m: m & -m)))
        ids = {m: tuple(_bits(m)) for m in set(itertools.chain.from_iterable(covers))}
        covers.sort(key=lambda c: _sorted_groups(c, ids.get))
        return covers

    def to_dict(self) -> dict:
        return {"nodes": list(_bits(self.pool)), "edges": sorted(self.edges)}


def _dealt(vehicles: tuple[int, ...], runs: list[int]) -> list[tuple[int, ...]]:
    """Each order of ``vehicles`` that rises within consecutive runs of these lengths."""
    if not runs:
        return [()]
    return [head + tail for head in itertools.combinations(vehicles, runs[0])
            for tail in _dealt(tuple(v for v in vehicles if v not in head), runs[1:])]


def _sorted_groups(subsets: Iterable[int],
                   ids: Callable[[int], tuple[int, ...]] = lambda s: tuple(_bits(s))
                   ) -> list[tuple[int, ...]]:
    """Member bitsets as ascending id tuples (``ids``), by descending size, then member order."""
    return sorted(map(ids, subsets), key=lambda s: (-len(s), s))


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
