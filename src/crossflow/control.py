"""Distributed virtual-platoon control over a scheduled spanning tree.

Vehicles from different lanes are controlled as one platoon behind a virtual
leader that advances at constant speed.  Each vehicle exchanges state with
its tree parent (and, symmetrically, its children) and with the leader, and
runs a linear feedback law on spacing and speed errors.  Desired spacing is
proportional to the layer difference, so all vehicles of one layer align and
consecutive layers stay one design gap apart.

``PlatoonKernel`` is the one implementation.  Built over the controlled
vehicles, it holds their state and steps all of them at once: the law, then
a saturated forward-Euler step over the scenario's step ``dt``, in a fixed
number of in-place numpy calls whatever the number of vehicles.  Its scalar
reference (one vehicle, one peer at a time) lives in the test suite's
oracles, which check the kernel against it bit for bit.
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


class PlatoonKernel:
    """The control law and the integrator over the controlled vehicles.

    Built whenever the tree or the set of controlled vehicles changes, it
    owns the rows' state until then.  ``rows`` lists the vehicle ids; the
    state is a (2, m + 1) array, positions over speeds with the virtual
    leader's last, double-buffered so that a step reads one buffer and
    writes the other, and the pre-step state (``p_prev``, ``v_prev``) stays
    readable beside the new one (``p``, ``v``).

    Column c of the peer table holds every row's c-th peer, as a local
    index in the order of its neighbor set, and the desired spacing
    D_des * (d_j - d_i); rows with fewer peers are padded with their own
    index (zero terms for finite states), and the leader is the last
    column.  A step gathers every (peer, row) pair into one (2k + 3, m)
    buffer whose row 0 is zero, spacing and damping terms interleaved, and
    subtracts its rows in order: each input is 0 - s_0 - d_0 - ... - s_L -
    d_L, the scalar reference's sum bit for bit.  The damping rows hold
    -k_v * (v_j - v_i), not k_v * (v_i - v_j); the two differ at most in the
    sign of a zero, which cannot change a sum that starts at +0.0.  The
    per-step work is in methods, not module functions: ``bench/tracer.py``
    records every call of a public module function as a span.
    """

    def __init__(
        self,
        rows: Sequence[int],
        neighbor_sets: Mapping[int, Iterable[int]],
        depths: Mapping[int, int],
        gains: ControllerGains,
        cfg: IntersectionConfig,
        remaining: np.ndarray,
        speed: np.ndarray,
    ):
        """Links among ``rows``, the controlled vehicles: peers outside them
        (absent or crossed) are skipped.  The rows' state is gathered from
        ``remaining`` and ``speed``, indexed by vehicle id."""
        m = len(rows)
        local = {v: k for k, v in enumerate(rows)}
        lists = [[local[j] for j in neighbor_sets[i] if j in local] for i in rows]
        width = max(map(len, lists), default=0)
        flat = []  # row by row: its peers, its own index k as padding, the leader (m) last
        for k, ps in enumerate(lists):
            flat += ps + [k] * (width - len(ps)) + [m]
        peer = np.array(flat, dtype=np.intp).reshape(m, width + 1).T
        layer = np.array([depths[i] for i in rows] + [0])  # the leader's layer is 0
        self.rows = np.array(rows, dtype=np.intp)
        # flat indices into a state buffer: (column, position or speed, row)
        self._index = peer[:, None, :] + np.array([[0], [m + 1]])
        self._offsets = cfg.desired_gap * (layer[peer] - layer[:m])
        self._gains = np.empty((width + 1, 2, m))
        self._gains[:, 0], self._gains[:, 1] = gains.k_p, -gains.k_v
        # the integrator's constants as 0-d arrays, which ufuncs take faster
        # than Python floats
        self._dt, self._a_min, self._a_max, self._v_max, self._zero = (
            np.array(x) for x in (cfg.dt, cfg.a_min, cfg.a_max, cfg.v_max, 0.0))
        self._terms = np.zeros((2 * width + 3, m))
        self._pairs = self._terms[1:].reshape(width + 1, 2, m)
        self._spacing = self._pairs[:, 0]
        self.u = np.empty(m)  # the last step's input, before saturation
        state = np.empty((2, 2, m + 1))
        state[:, 0, :m] = remaining[self.rows]
        state[:, 1, :m] = speed[self.rows]
        state[:, 1, m] = cfg.platoon_speed
        # per buffer: the flat view the gather reads (the leader's position
        # at flat index m), the rows' state, their positions and their speeds
        self._buffers = [(buf.reshape(-1), buf[:, :m], buf[0, :m], buf[1, :m])
                         for buf in state]
        self.p, self.v = self._buffers[0][2:]
        self.p_prev, self.v_prev = self.p, self.v

    def step(self, leader_remaining: float) -> bool:
        """Apply the law and one saturated forward-Euler step to every row.

        The input is clamped to the actuator range first, then the new speed
        to [0, v_max]; the remaining distance falls at the pre-step speed and
        may go negative past the stopping line.  Each clamp passes its bound
        first: numpy's ``maximum`` and ``minimum`` return the second operand
        on a tie and propagate NaN, as Python's ``max(x, bound)`` does, so a
        zero keeps its sign (the tests pin this).  Returns whether some row
        is now at or past the line.
        """
        (flat, rows, p, v), (_, _, new_p, new_v) = self._buffers
        flat[len(p)] = leader_remaining
        pairs, spacing = self._pairs, self._spacing
        flat.take(self._index, out=pairs, mode="clip")  # "raise" would buffer
        np.subtract(pairs, rows, out=pairs)  # p_j - p_i over v_j - v_i
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

    def store(self, remaining: np.ndarray, speed: np.ndarray) -> None:
        """Write the rows' state into ``remaining`` and ``speed``, indexed by id."""
        remaining[self.rows] = self.p
        speed[self.rows] = self.v
