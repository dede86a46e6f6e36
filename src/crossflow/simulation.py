"""Arrival generation, schedule orchestration and closed-loop simulation.

Batch mode analyzes the whole arrival list up front (conflicts from entry
conditions under the nominal approach profile), computes one schedule and
then runs the closed loop.  Online mode schedules at every arrival event
through the same scheduling functions as batch: the spanning-tree methods
place the new vehicle with the trees' own per-vehicle step, and the clique
cover methods re-layer all vehicles not yet locked near the stopping line
through the batch cover route (the minimum covers in preference order, or
the greedy cover) and lay the layers into the tree around the locked
vehicles with the batch routine; among unlocked vehicles every cover
orders, so the engine needs no fallback.  The online conflict relation is
one bitset per vehicle, set on arrival from its conflict sets and its lane.

The virtual leader starts ``leader_start`` meters from the stopping line at
t = 0 and advances at the platoon design speed; a vehicle's slot sits one
desired gap behind the leader per layer.

One engine runs the closed loop of ``run`` (both modes) and
``simulate_platoon``; the vehicles in the zone are one int bitset, like
every other vehicle set of the run.  ``control.PlatoonKernel``, the one
implementation of the control law (the test suite's oracles hold its scalar
reference, one vehicle at a time), lives through the whole run and is the
one home of the zone's state: a vehicle becomes a row, with its entry
state, when it enters.  The kernel reads the vehicles' links (each
vehicle's tree parent and children, whose terms it sums in ascending
vehicle id) and spacing offsets from the schedule's tree, at the first step
after an arrival or a reschedule.  At a crossing the engine keeps the
vehicle's state, frozen at its first step past the line, and the kernel
parks its row.  The kernel steps all rows at once, and tests them for the
line only once one could have reached it.  An arrival's conflict sets, the
lock test and ``simulate_platoon``'s samples read the kernel's rows.
Traced and untraced runs take the same step: the trace reads the kernel's
pre-step state and unsaturated input, for the rows not parked.

Each setting has one home.  The scenario holds the physics, the step ``dt``
and the entry speed ``initial_speed`` included, and checks them where it is
made.  ``SimConfig`` holds only what one run draws or chooses: algorithm,
fleet, headway, seed, mode, the leader's start and tracing.
``run`` uses the default ``ControllerGains``; ``simulate_platoon`` takes
others for controller studies.  The exact cover's size limit is
``scheduling.BRUTE_CAP``.
"""

from __future__ import annotations

import math
from collections import deque, namedtuple
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

from .conflicts import (
    CoexistenceGraph,
    ConflictSets,
    ContractError,
    VehicleRecord,
    build_cdg,
    build_conflict_sets,
    build_cug,
    _bits,
    _horizon,
    class_masks,
    conflict_sets_for,
)
from .control import ControllerGains, PlatoonKernel, VehicleState
from .scenario import IntersectionConfig
from .scheduling import (
    BRUTE_CAP,
    SpanningTree,
    _GrowingTree,
    _cover_layers,
    _lay_layers,
    _place,
    dfst_schedule,
    idfst_schedule,
    schedule_cover_tree,
)


class Algorithm(str, Enum):
    DFST = "dfst"
    IDFST = "idfst"
    MCC_GREEDY = "mcc-greedy"
    MCC_BRUTE = "mcc-brute"


class Mode(str, Enum):
    BATCH = "batch"
    ONLINE = "online"


HORIZON = 3600.0  # simulated seconds before a run gives up (``SimulationTimeout``)


class SimulationTimeout(RuntimeError):
    """Simulated horizon exceeded; carries the partial results."""

    def __init__(self, message: str, trace: list, records: list):
        super().__init__(message)
        self.trace = trace
        self.records = records


@dataclass(frozen=True)
class SimConfig:
    """One run: what it draws and chooses; the physics are the scenario's."""

    scenario: IntersectionConfig
    algorithm: Algorithm
    n_vehicles: int
    mean_headway: float  # mean arrival gap per lane, seconds
    seed: int
    mode: Mode = Mode.BATCH
    leader_start: float = 0.0  # leader's distance to the line at t = 0
    collect_trace: bool = False

    def __post_init__(self):
        if self.n_vehicles < 1:
            raise ContractError("n_vehicles must be at least 1")
        if self.seed < 0:
            raise ContractError(f"seed must be nonnegative (got {self.seed})")
        if not 0 < self.mean_headway < math.inf:
            raise ContractError(f"mean_headway must be positive and finite "
                                f"(got {self.mean_headway})")
        if not math.isfinite(self.leader_start):
            raise ContractError(f"leader_start must be finite (got {self.leader_start})")
        if (self.algorithm is Algorithm.MCC_BRUTE and self.mode is Mode.ONLINE
                and self.n_vehicles > BRUTE_CAP):
            # online mode reruns the exact cover over every unlocked vehicle
            raise ContractError(f"mcc-brute in online mode takes at most {BRUTE_CAP} "
                                f"vehicles (got {self.n_vehicles}); use mcc-greedy")


@dataclass(frozen=True)
class CompletionRecord:
    vehicle: int
    t_in: float
    t_out: float
    depth: int


@dataclass
class Metrics:
    evacuation_time: float
    attd: float
    d_all: int
    records: list[CompletionRecord]


TraceRow = namedtuple("TraceRow", "step vehicle p v u depth")


def sample_arrivals(cfg: SimConfig) -> list[VehicleRecord]:
    """Poisson arrivals per lane, merged and truncated to n vehicles.

    Each approach lane draws independent exponential gaps with the configured
    mean; simultaneous arrivals break ties by lane enumeration order.  The
    same seed always reproduces the same list.
    """
    rng = np.random.default_rng(cfg.seed)
    lanes = sorted(cfg.scenario.movement_ids)
    candidates: list[tuple[float, int, int]] = []
    for order, movement in enumerate(lanes):
        gaps = rng.exponential(scale=cfg.mean_headway, size=cfg.n_vehicles)
        t = 0.0
        for gap in gaps.tolist():
            t += gap
            candidates.append((t, order, movement))
    candidates.sort(key=lambda c: (c[0], c[1]))
    records = []
    for idx, (t, _, movement) in enumerate(candidates[: cfg.n_vehicles], start=1):
        records.append(VehicleRecord(id=idx, movement=movement, entry_time=t,
                                     entry_speed=cfg.scenario.initial_speed))
    return records


def evacuation_time(records: Sequence[CompletionRecord]) -> float:
    """Crossing time of the last vehicle."""
    if not records:
        raise ContractError("evacuation_time needs at least one record")
    return max(r.t_out for r in records)


def attd(records: Sequence[CompletionRecord], cfg: IntersectionConfig) -> float:
    """Average travel time delay against free flow at the speed limit."""
    if not records:
        raise ContractError("attd needs at least one record")
    free = cfg.free_flow_time()
    return sum(r.t_out - r.t_in - free for r in records) / len(records)


def schedule_from_graph(cdg, algorithm: Algorithm,
                        cug: CoexistenceGraph | None = None) -> SpanningTree:
    """Schedule a built CDG; the cover routes build its CUG unless given one."""
    if algorithm is Algorithm.DFST:
        return dfst_schedule(cdg)
    if algorithm is Algorithm.IDFST:
        return idfst_schedule(cdg)
    return schedule_cover_tree(cug if cug is not None else build_cug(cdg), cdg,
                               exact=algorithm is Algorithm.MCC_BRUTE)


def schedule_batch(records: Sequence[VehicleRecord], cfg: IntersectionConfig,
                   algorithm: Algorithm) -> SpanningTree:
    """One-shot schedule from entry conditions (no dynamics)."""
    cdg = build_cdg(build_conflict_sets(records, cfg))
    return schedule_from_graph(cdg, algorithm)


@dataclass
class RunResult:
    metrics: Metrics
    trace: list[TraceRow]
    depths: dict[int, int]
    parents: dict[int, int]
    arrivals: list[VehicleRecord]


class _Engine:
    """The closed loop of ``run`` and ``simulate_platoon`` (module docstring).

    The schedule is the ``SpanningTree`` it is given, whose ``depth``/``parent``
    maps the online schedulers grow in place; the kernel reads its links
    from it.  ``zone`` is the bitset of the vehicles that have entered and
    not crossed, the kernel's live rows; ``locked`` is the bitset of those
    within the lock distance at the last arrival, and of those that entered
    within it since; ``frozen`` holds each crossed vehicle's remaining
    distance and speed.
    """

    def __init__(self, scn: IntersectionConfig, size: int, tree: SpanningTree, *,
                 gains: ControllerGains, leader_start: float, collect_trace: bool = False):
        self.scn, self.leader_start, self.collect_trace = scn, leader_start, collect_trace
        self.size = size
        self.zone = 0  # entered and not yet across the stopping line
        self.locked = 0  # within the lock distance at the last arrival, or on entry since
        self._v_0, self._horizon = scn.platoon_speed, _horizon(scn)
        self.kernel = PlatoonKernel(tree, gains, scn)
        self.tree, self.depth, self.parent = tree, tree.depth, tree.parent
        self.growing: _GrowingTree | None = None  # the trees' step index; None: stale
        self.sets: dict[int, ConflictSets] = {}
        self.conflict = [0] * size  # online conflict bitset per vehicle
        self.lane_mask: dict[int, int] = {}  # movement -> bitset of its arrived vehicles
        self.crossed: dict[int, float] = {}
        self.frozen: dict[int, tuple[float, float]] = {}
        self.trace: list[TraceRow] = []

    # --- scheduling -----------------------------------------------------

    def enter(self, vehicle: int, remaining: float, speed: float) -> None:
        """Admit ``vehicle``, the highest id yet, as a kernel row; it joins
        ``locked`` when it enters within the lock distance."""
        self.kernel.append(vehicle, remaining, speed)
        self.zone |= 1 << vehicle
        if self._within_lock(remaining):
            self.locked |= 1 << vehicle

    def arrive(self, record: VehicleRecord) -> None:
        """Online arrival: conflict sets against the zone, then symmetric conflict
        bitsets with every set member and the whole lane, not just its predecessor.

        The zone is the vehicles short of the line: a row that crosses leaves
        it in the step it crosses.  The lock test runs here once per arrival;
        ``locked`` keeps it for the re-cover that follows the entry.
        """
        v = record.id
        zone = self.zone
        masks = class_masks(record.movement, self.lane_mask, self.scn)
        self.locked = self._locked()
        cs = self.sets[v] = conflict_sets_for(record, zone, self.locked, masks)
        lane = self.lane_mask.get(record.movement, 0)
        mask = lane | (cs.fixed | cs.exchangeable) & ~1
        self.conflict[v] = mask
        for u in _bits(mask):
            self.conflict[u] |= 1 << v
        self.lane_mask[record.movement] = lane | 1 << v

    def place_incremental(self, record: VehicleRecord, algorithm: Algorithm) -> None:
        """Place the arriving vehicle with the trees' own per-vehicle step."""
        if self.growing is None:
            self.growing = _GrowingTree(self.tree)
        _place(self.growing, record.id, *self._predecessors(record.id),
               improved=algorithm is not Algorithm.DFST)

    def _locked(self) -> int:
        """The zone members within the lock distance.  An arrival cannot
        catch them, and the cover re-layers none of them."""
        return self._zone_where(self._within_lock)

    def _within_lock(self, remaining):
        """``reachability_conflict``'s test on remaining distances (an array,
        or one), a vehicle past the line counting as at it."""
        return np.maximum(remaining, 0.0) / self._v_0 < self._horizon

    def _zone_where(self, test: Callable[[np.ndarray], np.ndarray]) -> int:
        """The zone members whose remaining distance passes ``test``, read
        off the kernel's rows (its parked rows are not in the zone)."""
        flags = np.zeros(self.size, dtype=bool)
        flags[self.kernel.rows[test(self.kernel.p)]] = True
        return self.zone & int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")

    def _predecessors(self, v: int) -> tuple[int, int]:
        """v's fixed and exchangeable predecessor bitsets (``ConflictSets``):
        what the trees' step and the layering read."""
        cs = self.sets[v]
        return cs.fixed, cs.exchangeable

    def reschedule_cover(self, algorithm: Algorithm) -> None:
        """Recompute the clique cover over unlocked in-zone vehicles, after
        an arrival and its entry, before the next step.

        Locked vehicles (near the stopping line, or already across) keep
        their depths; recomputed layers slot around them.  The locks are
        ``locked``, the arrival's and the entrant's: no step has run since,
        so no remaining distance has moved (none ever grows: the kernel
        clamps speed to [0, v_max], so a locked vehicle stays locked).  The
        kernel relinks only when the layers move a vehicle placed before, to
        another parent or depth; the entrant alone links at the next step,
        as a fresh row.
        """
        unlocked = self.zone & ~self.locked
        if not unlocked:
            return
        self.growing = None  # the layers below are written past the trees' step
        # the batch cover route on a pool of the unlocked vehicles, read
        # against the engine's own conflict and lane bitsets, ids unchanged.
        # Its layers are never None here: a predecessor an arrival cannot
        # catch is already within the lock distance, so it is locked, and no
        # reachability conflict joins two unlocked vehicles.  The conflicts
        # left come from the movements alone, alike for every vehicle of a
        # lane, so lane-slot substitution orders any cover.
        cug = CoexistenceGraph(pool=unlocked, conflict=self.conflict,
                               lanes=[mask for _, mask in sorted(self.lane_mask.items())])
        layers = _cover_layers(cug, exact=algorithm is Algorithm.MCC_BRUTE)
        if _lay_layers(self.parent, self.depth, layers, self._predecessors):
            self.kernel.relink()

    # --- dynamics -------------------------------------------------------

    def step(self, t: float, step_idx: int) -> None:
        """Control and integrate the vehicles in the zone over one step.

        A vehicle that crosses has its state frozen and its row parked."""
        if not self.zone:
            return
        kernel = self.kernel
        reached = kernel.step(self.leader_start - self.scn.platoon_speed * t)
        if self.collect_trace:
            live = kernel.live()
            ids = kernel.rows[live].tolist()
            self.trace += map(TraceRow, repeat(step_idx), ids, kernel.p_prev[live].tolist(),
                              kernel.v_prev[live].tolist(), kernel.u[live].tolist(),
                              [self.depth[i] for i in ids])
        if not reached:
            return
        p, new_p, new_v = kernel.p_prev, kernel.p, kernel.v
        hits = np.flatnonzero((p > 0.0) & (new_p <= 0.0)).tolist()
        for k in hits:
            i, before, after = int(kernel.rows[k]), float(p[k]), float(new_p[k])
            frac = before / max(before - after, 1e-12)
            self.crossed[i] = t + frac * self.scn.dt
            self.zone &= ~(1 << i)
            self.frozen[i] = after, float(new_v[k])
        if hits:
            kernel.park(hits)

    def drive(self, before_step: Callable[[float], bool]) -> None:
        """The stepping loop: ``before_step(t)`` runs first and returns False to stop."""
        t, step_idx, dt = 0.0, 0, self.scn.dt
        while before_step(t):
            self.step(t, step_idx)
            t += dt
            step_idx += 1


def run(cfg: SimConfig) -> RunResult:
    """Run one full simulation and report its traffic metrics.

    Deterministic for a fixed config: identical seed and parameters give
    identical metrics and trace.
    """
    arrivals = sample_arrivals(cfg)
    scn = cfg.scenario
    tree = (schedule_batch(arrivals, scn, cfg.algorithm) if cfg.mode is Mode.BATCH
            else SpanningTree(parent={}, depth={}))
    engine = _Engine(scn, cfg.n_vehicles + 1, tree, gains=ControllerGains(),
                     leader_start=cfg.leader_start, collect_trace=cfg.collect_trace)

    pending = deque(arrivals)
    eps = 1e-9
    n = cfg.n_vehicles

    def admit(t: float) -> bool:
        if len(engine.crossed) >= n:
            return False
        if t > HORIZON:
            raise SimulationTimeout(
                f"simulation exceeded {HORIZON} s with "
                f"{n - len(engine.crossed)} vehicles still inside",
                trace=engine.trace,
                records=_completions(engine, arrivals),
            )
        while pending and pending[0].entry_time <= t + eps:
            rec = pending.popleft()
            if cfg.mode is Mode.ONLINE:
                engine.arrive(rec)
            engine.enter(rec.id, scn.control_zone_length, rec.entry_speed)
            if cfg.mode is Mode.BATCH:
                continue
            if cfg.algorithm in (Algorithm.DFST, Algorithm.IDFST):
                engine.place_incremental(rec, cfg.algorithm)
            else:
                engine.reschedule_cover(cfg.algorithm)
                if rec.id not in engine.depth:
                    # locked on entry, as every vehicle is when the zone is
                    # short for the platoon speed, L/v_0 < L/v_max + v_max/(2 a_max):
                    # nothing is re-layered, and the vehicle is placed as idfst would
                    engine.place_incremental(rec, Algorithm.IDFST)
        return True

    engine.drive(admit)
    records = _completions(engine, arrivals)
    metrics = Metrics(
        evacuation_time=evacuation_time(records),
        attd=attd(records, cfg.scenario),
        d_all=max(r.depth for r in records),
        records=records,
    )
    return RunResult(metrics=metrics, trace=engine.trace,
                     depths=dict(engine.depth), parents=dict(engine.parent),
                     arrivals=arrivals)


def _completions(engine: _Engine, arrivals: Sequence[VehicleRecord]) -> list[CompletionRecord]:
    """One record per crossed vehicle; ``arrivals`` holds ids 1..n in order."""
    return [CompletionRecord(vehicle=i, t_in=arrivals[i - 1].entry_time, t_out=t_out,
                             depth=engine.depth[i])
            for i, t_out in sorted(engine.crossed.items())]


@dataclass
class PlatoonSample:
    t: float
    states: dict[int, VehicleState]
    crossings: dict[int, float]


def simulate_platoon(
    tree: SpanningTree,
    cfg: IntersectionConfig,
    initial: dict[int, VehicleState],
    leader_start: float,
    gains: ControllerGains = ControllerGains(),
    until: float = 300.0,
) -> list[PlatoonSample]:
    """Closed loop over a fixed tree from explicit initial states.

    Used for controller studies: no arrivals, every vehicle present from
    t = 0, in any order of ``initial``.  Samples the full state each step
    until every vehicle has crossed or the time limit is hit.
    """
    ids = list(initial)
    engine = _Engine(cfg, max(ids, default=0) + 1, tree, gains=gains,
                     leader_start=leader_start)
    for i in sorted(ids):
        engine.enter(i, initial[i].remaining, initial[i].speed)
    kernel, history = engine.kernel, []

    def sample(t: float) -> bool:
        if not t < until:
            return False
        live = kernel.live()
        now = zip(kernel.p[live].tolist(), kernel.v[live].tolist())
        states = {**engine.frozen, **dict(zip(kernel.rows[live].tolist(), now))}
        history.append(PlatoonSample(t=t, states={i: VehicleState(*states[i]) for i in ids},
                                     crossings=dict(engine.crossed)))
        return len(engine.crossed) < len(ids)

    engine.drive(sample)
    return history
