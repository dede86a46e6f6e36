"""Per-vehicle conflict sets and the two graphs derived from them.

Each arriving vehicle is checked against the earlier vehicles still inside
the control zone.  Route conflicts (crossing, diverging, converging) come
from the movement table; the reachability conflict is kinematic: a vehicle
entering the zone cannot catch a conflict-free predecessor that is already
too close to the stopping line.

The per-vehicle step (``conflict_sets_for``) reads bitsets (bit k is
vehicle k): the predecessors in the zone, those of them already
uncatchable, and each movement's vehicles, so every conflict class is one
OR over the movements the table puts in it.  Batch analysis
(``build_conflict_sets``) keeps the first two bitsets in one sweep under the
nominal approach profile: a vehicle leaves the zone, or becomes
uncatchable, once, in order of its nominal time for it, so the distance
model is evaluated O(n) times instead of once per pair.  The online engine
fills the same bitsets from its live state.

The conflict directed graph (CDG) adds a virtual leader node 0 and splits
edges into unidirectional ones (fixed passing order: same lane, reachability)
and bidirectional ones (order exchangeable: crossing, converging).  The
coexistence graph is its complement over the real vehicles; an edge there
means the two vehicles may cross the stopping line together.

Both graphs keep one adjacency, built once, that every scheduler reads: per
node a Python-int bitset and, on the CDG, the fixed-order and exchangeable
predecessor sets.  A pair test is a shift, a group test ``&``.  The CDG's
bitsets are assembled byte-parallel from the conflict sets; its four edge
families are views derived on first use.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .scenario import ConflictClass, IntersectionConfig, ScenarioError


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
    """Conflict sets of one vehicle against its predecessors.

    All members are strictly smaller ids; the virtual leader 0 appears only
    in ``diverging`` and only for the first vehicle scheduled on its lane.
    """

    vehicle: int
    crossing: frozenset[int]
    diverging: frozenset[int]
    converging: frozenset[int]
    reachability: frozenset[int]

    def __post_init__(self):
        groups = [g for g in (self.crossing, self.diverging, self.converging,
                              self.reachability) if g]
        if not all(a.isdisjoint(b) for a, b in itertools.combinations(groups, 2)):
            raise ContractError(f"vehicle {self.vehicle}: conflict sets overlap")
        top = max(map(max, groups), default=-1)
        if top >= self.vehicle:
            raise ContractError(f"vehicle {self.vehicle}: conflict member {top} does not precede it")
        low = min(map(min, groups), default=0)
        if low < 0:
            raise ContractError(f"vehicle {self.vehicle}: negative member {low}")
        for g in (self.crossing, self.converging, self.reachability):
            if 0 in g:
                raise ContractError(
                    f"vehicle {self.vehicle}: virtual leader allowed only in diverging set"
                )


def reachability_threshold(cfg: IntersectionConfig) -> float:
    """Remaining distance below which a preceding vehicle is uncatchable.

    A vehicle entering the zone needs at least L/v_max + v_max/(2*a_max)
    seconds to reach the stopping line; a conflict-free predecessor closer
    than v_0 times that horizon will cross first no matter what.
    """
    if cfg.platoon_speed <= 0 or cfg.v_max <= 0 or cfg.a_max <= 0:
        raise ScenarioError("reachability needs positive v_0, v_max and a_max")
    return cfg.platoon_speed * _horizon(cfg)


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
        crossing=_members(zone & crossing),
        diverging=frozenset({max((zone & lane).bit_length() - 1, 0)}),
        converging=_members(zone & converging),
        reachability=_members(zone & uncatchable & free),
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


def _members(mask: int) -> frozenset[int]:
    """A bitset as a frozenset: bit by bit when sparse, byte-parallel when dense.

    Bit by bit costs a big-int operation per member, unpacking a fixed numpy
    overhead; on 400-bit masks they cross near 24 members.
    """
    if mask.bit_count() <= 24:
        return frozenset(_bits(mask))
    raw = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), np.uint8)
    return frozenset(np.flatnonzero(np.unpackbits(raw, bitorder="little")).tolist())


def _bits(mask: int) -> Iterator[int]:
    """Members of a bitset, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class ConflictDirectedGraph:
    """Conflict graph over nodes {0, 1, .., n}; 0 is the virtual leader.

    Every edge joins a node to a later one.  The graph is its adjacency:
    per node the predecessors it must follow (``fixed``: same lane,
    uncatchable), the predecessors it may pass (``exchangeable``: crossing,
    converging) and the bitset of all its neighbours in either sense
    (``mask``).  The four edge families keep their origin for reports and
    tests; they are views of the conflict sets the graph was built from,
    derived on first use.
    """

    n: int
    sets: tuple[ConflictSets, ...]  # what ``build_cdg`` assembled, in its order
    fixed: tuple[frozenset[int], ...]
    exchangeable: tuple[frozenset[int], ...]
    mask: tuple[int, ...]

    @cached_property
    def lane_edges(self) -> frozenset[tuple[int, int]]:
        """(predecessor, follower) on one lane; 0 before the first of a lane."""
        return frozenset((i, cs.vehicle) for cs in self.sets for i in cs.diverging)

    @cached_property
    def reach_edges(self) -> frozenset[tuple[int, int]]:
        """(uncatchable leader, late entrant)."""
        return frozenset((i, cs.vehicle) for cs in self.sets for i in cs.reachability)

    @cached_property
    def crossing_edges(self) -> frozenset[tuple[int, int]]:
        """Normalized (low, high) pairs."""
        return frozenset((i, cs.vehicle) for cs in self.sets for i in cs.crossing)

    @cached_property
    def converging_edges(self) -> frozenset[tuple[int, int]]:
        """Normalized (low, high) pairs."""
        return frozenset((i, cs.vehicle) for cs in self.sets for i in cs.converging)

    @property
    def unidirectional(self) -> frozenset[tuple[int, int]]:
        return self.lane_edges | self.reach_edges

    @property
    def bidirectional(self) -> frozenset[tuple[int, int]]:
        return self.crossing_edges | self.converging_edges

    def connected(self, i: int, j: int) -> bool:
        """True when any edge links i and j, in either sense."""
        return bool(self.mask[i] >> j & 1)

    def hard_parents(self, j: int) -> frozenset[int]:
        """Nodes that must cross strictly before j (same lane or uncatchable)."""
        return self.fixed[j]

    def lane_chains(self) -> list[list[int]]:
        """Per-lane vehicle sequences in arrival order, derived from lane edges."""
        succ = {i: j for (i, j) in self.lane_edges if i != 0}
        heads = [j for (i, j) in self.lane_edges if i == 0]
        chains = []
        for head in sorted(heads):
            chain = [head]
            while chain[-1] in succ:
                chain.append(succ[chain[-1]])
            chains.append(chain)
        return chains

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
    """Complement of the CDG over real vehicles {1, .., n}, one bitset per vehicle."""

    n: int
    coexist: tuple[int, ...]  # per vehicle, the bitset of those it may cross with; [0] empty

    @classmethod
    def complement(cls, n: int, conflicts: Sequence[int]) -> CoexistenceGraph:
        """Graph of the vehicles 1..n whose bits are absent from ``conflicts[i]``."""
        full = (1 << (n + 1)) - 2
        return cls(n=n, coexist=(0, *(full & ~(conflicts[i] | 1 << i) for i in range(1, n + 1))))

    def adjacent(self, i: int, j: int) -> bool:
        return bool(self.coexist[i] >> j & 1)

    def conflicts(self, i: int) -> int:
        """Bitset of the vehicles i may not share a layer with."""
        return ((1 << (self.n + 1)) - 2) & ~(self.coexist[i] | 1 << i)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Normalized (low, high) pairs, derived on first use."""
        return frozenset((i, j) for i in range(1, self.n + 1)
                         for j in _bits(self.coexist[i] >> (i + 1) << (i + 1)))

    @cached_property
    def _minimum_covers(self) -> tuple[tuple[int, ...], ...]:
        """Every minimum clique cover, each a tuple of member bitsets; found on first use.

        Branch-and-bound set partitioning: vehicles are placed in id order
        into an open clique whose members all coexist with them (one ``&``
        with the clique's common coexistence bitset) or into a fresh one, and
        branches with more cliques than the best cover so far are cut.  Id
        order reaches every partition once, with its cliques in order of their
        lowest member, so no cover repeats.  Exponential in n: reach it only
        through ``scheduling``'s capped wrappers (``minimum_clique_covers``,
        ``mcc_bruteforce`` and the exact cover route).
        """
        best = self.n
        covers: list[tuple[int, ...]] = []
        members: list[int] = []
        common: list[int] = []  # per open clique, the vehicles that coexist with all members

        def place(v: int) -> None:
            nonlocal best
            if v > self.n:
                if len(members) < best:
                    best = len(members)
                    covers.clear()
                covers.append(tuple(members))
                return
            bit = 1 << v
            for c in range(len(members)):
                m, shared = members[c], common[c]
                if shared & bit:
                    members[c], common[c] = m | bit, shared & self.coexist[v]
                    place(v + 1)
                    members[c], common[c] = m, shared
            if len(members) < best:
                members.append(bit)
                common.append(self.coexist[v])
                place(v + 1)
                members.pop()
                common.pop()

        place(1)
        return tuple(covers)

    @cached_property
    def _covers_by_rank(self) -> tuple[list[tuple[int, ...]], ...]:
        """The minimum covers in buckets of equal layer rank, best first.

        Each cover is ranked once per graph, off its bitsets' popcounts; the
        buckets keep enumeration order (``scheduling._ranked_covers`` sorts
        the ones it walks).
        """
        buckets: dict[int, list[tuple[int, ...]]] = {}
        for masks in self._minimum_covers:
            buckets.setdefault(_layer_rank(map(int.bit_count, masks)), []).append(masks)
        return tuple(buckets[rank] for rank in sorted(buckets))

    def to_dict(self) -> dict:
        return {"nodes": list(range(1, self.n + 1)), "edges": sorted(self.edges)}


def _layer_rank(sizes: Iterable[int]) -> int:
    """Total layer rank of the members once groups are ordered largest first."""
    ordered = sorted(sizes, reverse=True)
    return sum(map(operator.mul, range(1, len(ordered) + 1), ordered))


def build_cdg(sets: Sequence[ConflictSets]) -> ConflictDirectedGraph:
    """Assemble the conflict directed graph from per-vehicle conflict sets.

    The predecessor sets are unions of the conflict sets.  The neighbour
    bitsets need each node's successors too: the predecessors fill one
    boolean matrix, which is made symmetric and packed into one bitset per
    row, all byte-parallel, so no pair is visited one at a time.  The matrix
    takes (n + 1)² bytes for the duration of the call.
    """
    sets = tuple(sets)
    n = max((cs.vehicle for cs in sets), default=0)
    fixed = [frozenset()] * (n + 1)
    exchangeable = [frozenset()] * (n + 1)
    for cs in sets:
        j = cs.vehicle
        fixed[j] = fixed[j].union(cs.diverging, cs.reachability)
        exchangeable[j] = exchangeable[j].union(cs.crossing, cs.converging)
    linked = np.zeros((n + 1, n + 1), dtype=bool)  # [j, i]: i precedes j
    rows = np.repeat(np.arange(n + 1), [len(f) + len(x) for f, x in zip(fixed, exchangeable)])
    preds = itertools.chain.from_iterable(itertools.chain.from_iterable(zip(fixed, exchangeable)))
    linked[rows, np.fromiter(preds, dtype=np.intp, count=len(rows))] = True
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
    """Complement the CDG over real vehicles: an edge means "may coexist".

    Lane edges only record the immediate predecessor, but no two vehicles of
    one lane can ever cross together, so the whole lane chain is excluded
    from coexistence, not just adjacent pairs.
    """
    blocked = list(cdg.mask)
    for chain in cdg.lane_chains():
        lane = sum(1 << v for v in chain)
        for v in chain:
            blocked[v] |= lane
    return CoexistenceGraph.complement(cdg.n, blocked)
