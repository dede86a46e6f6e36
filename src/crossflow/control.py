"""Distributed virtual-platoon control over a scheduled spanning tree.

Vehicles from different lanes are controlled as one platoon behind a virtual
leader that advances at constant speed.  Each vehicle exchanges state with
its tree parent (and, symmetrically, its children) and with the leader, and
runs a linear feedback law on spacing and speed errors.  Desired spacing is
proportional to the layer difference, so all vehicles of one layer align and
consecutive layers stay one design gap apart.

``PlatoonKernel`` is the one implementation: it applies the law and a
saturated forward-Euler step, over the scenario's step ``dt``, to every
controlled vehicle at once.  Its scalar reference (one vehicle, one peer at
a time) lives in the test suite's oracles, which check the kernel against
it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .conflicts import ContractError
from .scenario import IntersectionConfig

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
class PlatoonKernel:
    """The control law and the integrator over arrays of vehicles.

    Holds what stays fixed while neither the tree nor the set of controlled
    vehicles changes.  State arrays are indexed by vehicle id; ``rows`` lists
    the controlled vehicles.  Column k of ``peers`` and ``offsets`` holds,
    for every row, its k-th peer in the order of its neighbor set and the
    desired spacing D_des * (d_j - d_i); rows with fewer peers are padded
    with their own id and a zero offset, whose terms are exactly zero for
    finite states.  The per-step work is in methods, not module functions:
    ``bench/tracer.py`` records every call of a public module function as a
    span.
    """

    rows: np.ndarray  # (m,) vehicle ids
    peers: np.ndarray  # (k, m) peer ids
    offsets: np.ndarray  # (k, m) D_des * (d_j - d_i)
    leader_offsets: np.ndarray  # (m,) D_des * (0 - d_i)
    gains: ControllerGains
    cfg: IntersectionConfig  # its ``dt`` is the integration step

    @classmethod
    def build(
        cls,
        rows: Sequence[int],
        neighbor_sets: Mapping[int, Iterable[int]],
        depths: Mapping[int, int],
        gains: ControllerGains,
        cfg: IntersectionConfig,
    ) -> "PlatoonKernel":
        """Links among ``rows``, the active vehicles: peers outside them
        (absent or crossed) are skipped."""
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
        )

    def control_inputs(self, remaining: np.ndarray, speed: np.ndarray,
                       leader_remaining: float, leader_speed: float) -> np.ndarray:
        """Input of every row: peer terms in link order, the leader term last.

        Against peer j the spacing error is p_j - p_i - D_des * (d_j - d_i);
        saturation is ``euler_step``'s job.
        """
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

        The input is clamped to the actuator range first, then the new speed
        to [0, v_max]; the remaining distance falls at the pre-step speed and
        may go negative past the stopping line.  The clamps keep Python's
        ``min``/``max`` tie rules, so a zero keeps its sign.
        """
        cfg = self.cfg
        u = _clamp(u, cfg.a_min, cfg.a_max)
        return remaining - speed * cfg.dt, _clamp(speed + u * cfg.dt, 0.0, cfg.v_max)


def _clamp(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    x = np.where(x < lo, lo, x)
    return np.where(x > hi, hi, x)
