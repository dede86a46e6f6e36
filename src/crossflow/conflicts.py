"""Per-vehicle conflict sets and the two graphs derived from them.

Each arriving vehicle is checked against every earlier vehicle still inside
the control zone.  Route conflicts (crossing, diverging, converging) come
from the movement table; the reachability conflict is kinematic: a vehicle
entering the zone cannot catch a conflict-free predecessor that is already
too close to the stopping line.

The conflict directed graph (CDG) adds a virtual leader node 0 and splits
edges into unidirectional ones (fixed passing order: same lane, reachability)
and bidirectional ones (order exchangeable: crossing, converging).  The
coexistence graph is its complement over the real vehicles; an edge there
means the two vehicles may cross the stopping line together.

Both graphs keep one adjacency, built once, that every scheduler reads: per
node a Python-int bitset (bit k is node k) and, on the CDG, the fixed-order
and exchangeable predecessor sets.  A pair test is a shift, a group test ``&``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

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
        groups = (self.crossing, self.diverging, self.converging, self.reachability)
        members = [m for g in groups for m in g]
        if len(members) != len(set(members)):
            raise ContractError(f"vehicle {self.vehicle}: conflict sets overlap")
        for m in members:
            if m >= self.vehicle:
                raise ContractError(
                    f"vehicle {self.vehicle}: conflict member {m} does not precede it"
                )
            if m < 0:
                raise ContractError(f"vehicle {self.vehicle}: negative member {m}")
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


RemainingDistance = Callable[[int, float], float]
"""(vehicle id, time) -> remaining distance to the stopping line at that time."""


def nominal_remaining(records: Sequence[VehicleRecord], cfg: IntersectionConfig) -> RemainingDistance:
    """Remaining-distance model used when no live simulation state exists.

    Approach profile: accelerate at a_max from the entry speed to the platoon
    design speed, then cruise.  Negative values mean the vehicle has nominally
    passed the stopping line.
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


def conflict_sets_for(
    vehicle: VehicleRecord,
    earlier: Sequence[VehicleRecord],
    cfg: IntersectionConfig,
    remaining: RemainingDistance,
) -> ConflictSets:
    """Build one vehicle's conflict sets against in-zone predecessors.

    Predecessors whose remaining distance is already nonpositive have left
    the zone and impose no constraints.  The diverging set keeps only the
    immediate same-lane predecessor, or the virtual leader 0 when none is
    left in the zone.
    """
    crossing: set[int] = set()
    converging: set[int] = set()
    reach: set[int] = set()
    lane_pred: int | None = None
    classes = cfg.conflict_table[cfg.movement(vehicle.movement).id]
    horizon = _horizon(cfg)  # reachability_conflict's test, hoisted out of the loop
    for other in earlier:
        if other.id >= vehicle.id:
            raise ContractError("earlier vehicles must have smaller ids (sorted input)")
        distance = remaining(other.id, vehicle.entry_time)
        if distance <= 0:
            continue
        cls = classes[other.movement]
        if cls is ConflictClass.DIVERGING:
            if lane_pred is None or other.id > lane_pred:
                lane_pred = other.id
        elif cls is ConflictClass.CROSSING:
            crossing.add(other.id)
        elif cls is ConflictClass.CONVERGING:
            converging.add(other.id)
        elif distance / cfg.platoon_speed < horizon:
            reach.add(other.id)
    return ConflictSets(
        vehicle=vehicle.id,
        crossing=frozenset(crossing),
        diverging=frozenset({lane_pred} if lane_pred is not None else {0}),
        converging=frozenset(converging),
        reachability=frozenset(reach),
    )


def build_conflict_sets(
    vehicles: Sequence[VehicleRecord],
    cfg: IntersectionConfig,
    remaining: RemainingDistance | None = None,
) -> list[ConflictSets]:
    """Conflict sets for a whole arrival sequence (batch analysis).

    ``remaining`` defaults to the nominal approach profile; a live simulation
    passes its own ground-truth lookup instead.
    """
    ids = [v.id for v in vehicles]
    if ids != sorted(ids) or len(set(ids)) != len(ids):
        raise ContractError("vehicles must be sorted by id with unique ids")
    if remaining is None:
        remaining = nominal_remaining(vehicles, cfg)
    out = []
    for idx, vehicle in enumerate(vehicles):
        out.append(conflict_sets_for(vehicle, vehicles[:idx], cfg, remaining))
    return out


def _bits(mask: int) -> Iterator[int]:
    """Members of a bitset, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _predecessors(n: int, edges: frozenset[tuple[int, int]]) -> tuple[frozenset[int], ...]:
    preds: list[set[int]] = [set() for _ in range(n + 1)]
    for i, j in edges:
        preds[j].add(i)
    return tuple(frozenset(p) for p in preds)


@dataclass(frozen=True)
class ConflictDirectedGraph:
    """Conflict graph over nodes {0, 1, .., n}; 0 is the virtual leader.

    Edge families keep their origin so schedulers can distinguish conflicts
    with a fixed passing order from exchangeable ones.  Every edge joins a
    node to a later one, so ``fixed`` and ``exchangeable`` (per node, its
    predecessors) and ``mask`` (per node, the bitset of its neighbours) are
    the whole graph; they are built from the edges on first use.
    """

    n: int
    lane_edges: frozenset[tuple[int, int]]  # (predecessor, follower), same lane; 0 allowed first
    reach_edges: frozenset[tuple[int, int]]  # (uncatchable leader, late entrant)
    crossing_edges: frozenset[tuple[int, int]]  # normalized (low, high)
    converging_edges: frozenset[tuple[int, int]]  # normalized (low, high)

    @property
    def unidirectional(self) -> frozenset[tuple[int, int]]:
        return self.lane_edges | self.reach_edges

    @property
    def bidirectional(self) -> frozenset[tuple[int, int]]:
        return self.crossing_edges | self.converging_edges

    @cached_property
    def fixed(self) -> tuple[frozenset[int], ...]:
        """Per node, the predecessors it must follow (same lane, uncatchable)."""
        return _predecessors(self.n, self.unidirectional)

    @cached_property
    def exchangeable(self) -> tuple[frozenset[int], ...]:
        """Per node, the predecessors it may pass (crossing, converging)."""
        return _predecessors(self.n, self.bidirectional)

    @cached_property
    def mask(self) -> tuple[int, ...]:
        """Per node, the bitset of the nodes it shares an edge with."""
        mask = [0] * (self.n + 1)
        for i, j in self.unidirectional | self.bidirectional:
            mask[i] |= 1 << j
            mask[j] |= 1 << i
        return tuple(mask)

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

    def to_dict(self) -> dict:
        return {"nodes": list(range(1, self.n + 1)), "edges": sorted(self.edges)}


def build_cdg(sets: Sequence[ConflictSets]) -> ConflictDirectedGraph:
    """Assemble the conflict directed graph from per-vehicle conflict sets."""
    lane, reach, crossing, converging = set(), set(), set(), set()
    for cs in sets:
        j = cs.vehicle
        for i in cs.diverging:
            lane.add((i, j))
        for i in cs.reachability:
            reach.add((i, j))
        for i in cs.crossing:
            crossing.add((i, j) if i < j else (j, i))
        for i in cs.converging:
            converging.add((i, j) if i < j else (j, i))
    n = max((cs.vehicle for cs in sets), default=0)
    return ConflictDirectedGraph(
        n=n,
        lane_edges=frozenset(lane),
        reach_edges=frozenset(reach),
        crossing_edges=frozenset(crossing),
        converging_edges=frozenset(converging),
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
