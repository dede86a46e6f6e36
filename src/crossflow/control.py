"""Distributed virtual-platoon control over a scheduled spanning tree.

Vehicles from different lanes are controlled as one platoon behind a virtual
leader that advances at constant speed.  Each vehicle exchanges state with
its tree parent (and, symmetrically, its children) and with the leader, and
runs a linear feedback law on spacing and speed errors.  Desired spacing is
proportional to the layer difference, so all vehicles of one layer align and
consecutive layers stay one design gap apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .conflicts import ContractError
from .scenario import IntersectionConfig
from .scheduling import SpanningTree

LEADER = 0


@dataclass
class VehicleState:
    """Longitudinal state: distance left to the stopping line and speed."""

    remaining: float  # meters; negative once past the line
    speed: float  # m/s


@dataclass(frozen=True)
class ControllerGains:
    k_p: float = 0.1  # 1/s^2, spacing error gain
    k_v: float = 0.3  # 1/s, speed error gain

    def __post_init__(self):
        if self.k_p <= 0 or self.k_v <= 0:
            raise ContractError("controller gains must be positive")


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

    def index(self, vehicle: int) -> int:
        return self.ids.index(vehicle)


def build_plf_topology(tree: SpanningTree) -> CommTopology:
    """Communication topology from a spanning tree.

    Each vehicle talks to its tree parent (bidirectionally, so also to its
    children) and every vehicle is pinned to the virtual leader.
    """
    ids = tuple(sorted(tree.depth))
    n = len(ids)
    pos = {v: k for k, v in enumerate(ids)}
    adjacency = np.zeros((n, n))
    for child, parent in tree.parent.items():
        if parent == LEADER:
            continue
        if parent not in pos:
            raise ContractError(f"parent {parent} of {child} missing from the tree")
        adjacency[pos[child], pos[parent]] = 1.0
        adjacency[pos[parent], pos[child]] = 1.0
    pinning = np.eye(n)
    laplacian = np.diag(adjacency.sum(axis=1)) - adjacency
    neighbor_sets = {
        v: frozenset(ids[j] for j in np.flatnonzero(adjacency[pos[v]])) for v in ids
    }
    return CommTopology(
        ids=ids,
        adjacency=adjacency,
        pinning=pinning,
        laplacian=laplacian,
        neighbor_sets=neighbor_sets,
    )


def control_input(
    vehicle: int,
    states: Mapping[int, VehicleState],
    topology: CommTopology,
    depths: Mapping[int, int],
    gains: ControllerGains,
    cfg: IntersectionConfig,
    active: frozenset[int] | set[int] | None = None,
) -> float:
    """Linear feedback acceleration for one vehicle from a state snapshot.

    Spacing error against peer j is p_j - p_i - D_des * (d_j - d_i); the
    leader term always contributes through the pinning gain.  Peers outside
    ``active`` (already past the stopping line) are skipped.  Saturation is
    the integrator's job, not done here.
    """
    if vehicle not in states:
        raise ContractError(f"state of vehicle {vehicle} missing")
    if LEADER not in states:
        raise ContractError("virtual leader state missing")
    me = states[vehicle]
    d_i = depths[vehicle]
    gap = cfg.desired_gap
    u = 0.0
    for j in topology.neighbor_sets[vehicle]:
        if active is not None and j not in active:
            continue
        if j not in states:
            raise ContractError(f"neighbor {j} of vehicle {vehicle} has no state")
        peer = states[j]
        u -= gains.k_p * (peer.remaining - me.remaining - gap * (depths[j] - d_i))
        u -= gains.k_v * (me.speed - peer.speed)
    leader = states[LEADER]
    u -= gains.k_p * (leader.remaining - me.remaining - gap * (0 - d_i))
    u -= gains.k_v * (me.speed - leader.speed)
    return u


def step_dynamics(state: VehicleState, u: float, dt: float, cfg: IntersectionConfig) -> VehicleState:
    """One forward-Euler step of the saturated second-order model.

    Acceleration is clamped to the actuator range first, then the new speed
    is projected into [0, v_max]; the remaining distance decreases at the
    pre-step speed and may go negative past the stopping line.
    """
    if dt <= 0:
        raise ContractError("dt must be positive")
    u_clamped = min(max(u, cfg.a_min), cfg.a_max)
    new_speed = min(max(state.speed + u_clamped * dt, 0.0), cfg.v_max)
    new_remaining = state.remaining - state.speed * dt
    return VehicleState(remaining=new_remaining, speed=new_speed)


@dataclass(frozen=True)
class PlatoonKernel:
    """``control_input`` and ``step_dynamics`` over arrays, bit for bit.

    Holds what stays fixed while neither the tree nor the set of controlled
    vehicles changes.  State arrays are indexed by vehicle id; ``rows`` lists
    the controlled vehicles.  Column k of ``peers`` and
    ``offsets`` holds, for every row, its k-th peer in the order
    ``control_input`` visits it and the desired spacing D_des * (d_j - d_i);
    rows with fewer peers are padded with their own id and a zero offset,
    whose terms are exactly zero for finite states.  The per-step work is in
    methods, not module functions: ``bench/tracer.py`` records every call of
    a public module function as a span.
    """

    rows: np.ndarray  # (m,) vehicle ids
    peers: np.ndarray  # (k, m) peer ids
    offsets: np.ndarray  # (k, m) D_des * (d_j - d_i)
    leader_offsets: np.ndarray  # (m,) D_des * (0 - d_i)
    gains: ControllerGains
    cfg: IntersectionConfig
    dt: float

    @classmethod
    def build(
        cls,
        rows: Sequence[int],
        neighbor_sets: Mapping[int, Iterable[int]],
        depths: Mapping[int, int],
        gains: ControllerGains,
        cfg: IntersectionConfig,
        dt: float,
    ) -> "PlatoonKernel":
        """Links among ``rows``, the active vehicles: as in ``control_input``,
        peers outside them (absent or crossed) are skipped."""
        if dt <= 0:
            raise ContractError("dt must be positive")
        gap = cfg.desired_gap
        active = set(rows)
        lists = [[j for j in neighbor_sets[i] if j in active] for i in rows]
        width = max(map(len, lists), default=0)
        pad = [width - len(ps) for ps in lists]
        peers = [ps + [i] * k for i, ps, k in zip(rows, lists, pad)]
        offsets = [[gap * (depths[j] - depths[i]) for j in ps] + [0.0] * k
                   for i, ps, k in zip(rows, lists, pad)]
        shape = (len(rows), width)
        return cls(
            rows=np.array(rows, dtype=np.intp),
            peers=np.array(peers, dtype=np.intp).reshape(shape).T.copy(),
            offsets=np.array(offsets, dtype=float).reshape(shape).T.copy(),
            leader_offsets=np.array([gap * (0 - depths[i]) for i in rows], dtype=float),
            gains=gains,
            cfg=cfg,
            dt=dt,
        )

    def control_inputs(self, remaining: np.ndarray, speed: np.ndarray,
                       leader_remaining: float, leader_speed: float) -> np.ndarray:
        """Input of every row: peer terms in link order, the leader term last."""
        k_p, k_v = self.gains.k_p, self.gains.k_v
        p = remaining[self.rows]
        v = speed[self.rows]
        spacing = k_p * (remaining[self.peers] - p - self.offsets)
        damping = k_v * (v - speed[self.peers])
        u = np.zeros(len(p))
        for du_p, du_v in zip(spacing, damping):
            u -= du_p
            u -= du_v
        u -= k_p * (leader_remaining - p - self.leader_offsets)
        u -= k_v * (v - leader_speed)
        return u

    def euler_step(self, remaining: np.ndarray, speed: np.ndarray,
                   u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """New (remaining, speed) of the rows whose states and inputs are given.

        The clamps keep Python's ``min``/``max`` tie rules, so a zero keeps its sign.
        """
        cfg, dt = self.cfg, self.dt
        u = _clamp(u, cfg.a_min, cfg.a_max)
        return remaining - speed * dt, _clamp(speed + u * dt, 0.0, cfg.v_max)


def _clamp(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    x = np.where(x < lo, lo, x)
    return np.where(x > hi, hi, x)


def spacing_error(
    vehicle: int,
    states: Mapping[int, VehicleState],
    depths: Mapping[int, int],
    cfg: IntersectionConfig,
) -> float:
    """Deviation from the vehicle's slot behind the leader, in meters."""
    leader = states[LEADER]
    desired = leader.remaining + cfg.desired_gap * depths[vehicle]
    return states[vehicle].remaining - desired
