"""Distributed virtual-platoon control over a scheduled spanning tree.

Vehicles from different lanes are controlled as one platoon behind a virtual
leader that advances at constant speed.  Each vehicle exchanges state with
its tree parent (and, symmetrically, its children) and with the leader, and
runs a linear feedback law on spacing and speed errors, summing its peer
terms in ascending vehicle id and the leader's last.  Desired spacing is
proportional to the layer difference, so all vehicles of one layer align and
consecutive layers stay one design gap apart.

``PlatoonKernel`` is the one implementation, and the one home of the
controlled vehicles' state.  One kernel serves a whole closed loop and
changes only where an event changes it: an arrival appends a row with its
state, a crossing parks one, a re-cover that moves a placed vehicle marks
the peer table stale, and the next step links the new rows or relinks them
all.  A step applies the law and a saturated forward-Euler step over the
scenario's step ``dt`` to every row at once, in at most 12 in-place numpy
calls whatever the number of vehicles.  Its scalar reference (one vehicle,
one peer at a time) and a kernel rebuilt from scratch live in the test
suite's oracles, which check it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from .conflicts import ContractError
from .scenario import IntersectionConfig
from .scheduling import SpanningTree

LEADER = 0

_PARKED = np.finfo(float).max  # where a parked or free slot sits: never near the line
_MIN_CAPACITY = 32
_ROOM = 0.5  # per live row: free slots a compaction leaves, parked rows that start one


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

    One kernel serves a closed loop from its first arrival to its last
    crossing.  Rows are appended in ascending vehicle id, with their state,
    and sit in slots in that order; ``rows`` holds the ids of the slots in
    use.  The next step links the rows appended since the last one, reading
    the tree then, or relinks every row after ``relink`` or a compaction.  A
    crossed row is parked: it keeps its slot, with no peers and a state no
    step moves, until a compaction drops it.  A compaction runs when an
    append finds every slot taken, or when the parked rows reach half the
    live ones; it moves the live rows into fresh arrays with free slots for
    half as many rows again.  A state buffer holds the slots' positions,
    then their speeds, then their clamped inputs, then the virtual leader's
    position and speed.  There are two, so that a step
    reads one and writes the other, and the pre-step state (``p_prev``,
    ``v_prev``) stays readable beside the new one (``p``, ``v``); these and
    the input ``u`` cover the slots in use, parked ones included.

    Column c of the peer table holds every slot's c-th peer, as a slot
    index, and the desired spacing D_des * (d_j - d_i); the leader is the
    last column.  Entries not in use hold the slot itself, whose terms are
    zero for finite states; free and parked slots hold themselves in every
    column, the leader's too, and sit ``_PARKED`` metres from the line at
    speed zero, so their input is zero and their state a fixed point.  A
    step gathers every (peer, slot) pair into one (2k + 3, capacity) buffer
    whose row 0 is zero, spacing and damping terms interleaved, and
    subtracts its rows in order: each input is 0 - s_0 - d_0 - ... - s_L -
    d_L, the scalar reference's sum bit for bit.  A sum that starts at +0.0
    is never -0.0, and subtracting a zero of either sign leaves any other
    value as it is, so a self entry may stand anywhere in a row: a crossed
    peer turns into one where it stood, and an appended peer takes the
    row's next column, after every peer it already has.  The damping rows
    hold -k_v * (v_j - v_i), not k_v * (v_i - v_j); the two differ at most
    in the sign of a zero.  The per-step and per-event work is in methods,
    not module functions: ``bench/tracer.py`` records every call of a
    public module function as a span.
    """

    def __init__(self, tree: SpanningTree, gains: ControllerGains, cfg: IntersectionConfig):
        """An empty kernel over ``tree``, whose ``parent`` and ``depth`` give
        the rows' links and layers when a step links or relinks them."""
        self.tree, self._gap, self._leader_speed = tree, cfg.desired_gap, cfg.platoon_speed
        self._k_p, self._k_v, self._dt = gains.k_p, gains.k_v, cfg.dt
        # the integrator's constants as arrays, which ufuncs take faster than
        # Python floats
        self._a_min, self._a_max, self._v_max, self._zero = (
            np.array(x) for x in (cfg.a_min, cfg.a_max, cfg.v_max, 0.0))
        self._reach = cfg.v_max * cfg.dt  # the farthest a clamped speed moves a row in a step
        self._budget = -np.inf  # lower bound on the rows' distance to the line; see ``step``
        self._slot: dict[int, int] = {}  # live row's vehicle id -> its slot, in ascending id
        self._waiting: dict[int, list[int]] = {}  # parent not yet linked -> its children's ids
        self._last = LEADER  # the last id appended
        self._allocate(_MIN_CAPACITY)

    # --- layout -----------------------------------------------------------

    def _allocate(self, capacity: int) -> None:
        """Fresh arrays of ``capacity`` free slots and a table with the
        leader's column only, every entry the slot itself, to be relinked at
        the next step.  Per state buffer,
        ``_buffers`` keeps the buffer (the gather reads it), the (p, v) and
        (v, clamped u) pairs, the clamped inputs, the speeds and the
        positions; the buffer the next step reads comes first."""
        c = self._capacity = capacity
        self._n = 0
        self._linked = -1  # the slots below it are linked; -1: relink every row
        self._leader = 3 * c  # the leader's position in a state buffer, its speed next
        self._ids = np.zeros(c, dtype=np.intp)
        self._used = [0] * c  # per slot: peer columns taken, crossed ones included
        self._state = np.zeros((2, 3 * c + 2))
        self._state[:, :c] = _PARKED
        self._state[:, -1] = self._leader_speed
        self._u = np.empty(c)
        # positions move by v * -dt, which is - v * dt bit for bit
        self._dt_pair = np.empty((2, c))
        self._dt_pair[0], self._dt_pair[1] = -self._dt, self._dt
        self._own = np.arange(c) + np.array([[0], [c]])  # each slot's position and speed
        self._width = -1
        self._set_width(0)
        self._buffers = [(buf, buf[:2 * c].reshape(2, c), buf[c:3 * c].reshape(2, c),
                          buf[2 * c:3 * c], buf[c:2 * c], buf[:c]) for buf in self._state]

    def _set_width(self, width: int) -> None:
        """Set every table entry to the slot itself, over ``width`` peer
        columns and the leader's."""
        c = self._capacity
        if width != self._width:
            self._width = width
            # indices into a state buffer: (column, position or speed, slot)
            self._index = np.empty((width + 1, 2, c), dtype=np.intp)
            self._offsets = np.empty((width + 1, 2, c))  # zero in the damping rows
            self._gains = np.empty((width + 1, 2, c))
            self._gains[:, 0], self._gains[:, 1] = self._k_p, -self._k_v
            self._terms = np.empty((2 * width + 3, c))
            self._terms[0] = 0.0
            self._pairs = self._terms[1:].reshape(width + 1, 2, c)
        self._index[:] = self._own
        self._offsets.fill(0.0)

    def _link(self, column: int, k: int, j: int, offset: float) -> None:
        """Make slot j, or the leader, the peer in slot k's given column."""
        index = self._index
        index[column, 0, k] = j
        index[column, 1, k] = j + 1 if j == self._leader else j + self._capacity
        self._offsets[column, 0, k] = offset

    def _attach(self, k: int, j: int, offset: float) -> None:
        """Make slot j slot k's next peer, widening the table if k has no column left."""
        if self._used[k] == self._width:
            index, offsets = self._index, self._offsets
            self._set_width(self._width + 1)
            self._index[:-2], self._index[-1] = index[:-1], index[-1]
            self._offsets[:-2], self._offsets[-1] = offsets[:-1], offsets[-1]
        self._link(self._used[k], k, j, offset)
        self._used[k] += 1

    def _put(self, k: int, remaining: float, speed: float) -> None:
        """Write slot k's state into the buffer the next step reads."""
        buf = self._buffers[0][0]
        buf[k], buf[self._capacity + k] = remaining, speed

    # --- events -----------------------------------------------------------

    def append(self, vehicle: int, remaining: float, speed: float) -> None:
        """Add ``vehicle`` as a row with the given state, linked at the next step.

        Ids must ascend from one append to the next.  The tree need not
        place the vehicle until that step.
        """
        if vehicle <= self._last:
            raise ContractError(f"rows are appended in ascending id: {vehicle} after {self._last}")
        if self._n == self._capacity:
            self._compact()
        k = self._n
        self._n, self._last = k + 1, vehicle
        self._ids[k] = vehicle
        self._slot[vehicle] = k
        self._put(k, remaining, speed)
        self._budget = -np.inf  # test the next step: the row may start past v_max

    def park(self, slots: Sequence[int]) -> None:
        """Take the rows in ``slots`` out of the law: their entries in their
        peers' lists and their own columns turn into self entries, and their
        state into the parked fixed point; a row not yet linked never
        links.  Read their state first: parking overwrites it, and may
        compact the slots."""
        index, offsets, used, c = self._index, self._offsets, self._used, self._capacity
        for k in slots:
            del self._slot[int(self._ids[k])]
            for j in index[:used[k], 0, k].tolist():
                if j != k:
                    column = index[:used[j], 0, j].tolist().index(k)
                    index[column, 0, j], index[column, 1, j] = j, j + c
                    offsets[column, 0, j] = 0.0
            index[:, 0, k], index[:, 1, k] = k, k + c
            offsets[:, 0, k] = 0.0
            self._put(k, _PARKED, 0.0)
        if self._n - len(self._slot) >= max(_MIN_CAPACITY, int(len(self._slot) * _ROOM)):
            self._compact()

    def relink(self) -> None:
        """Have the next step rewrite the peer table and the offsets from the
        tree, for every live row, after the tree's links or depths changed;
        no state moves."""
        self._linked = -1

    def _link_fresh(self) -> None:
        """Link the rows appended since the last step, in ascending id, each
        to its tree parent, if that is a linked row, and to the linked rows
        whose tree parent it is; it goes last in each of their peer lists."""
        slot, parent, depth, gap, waiting = (self._slot, self.tree.parent, self.tree.depth,
                                             self._gap, self._waiting)
        for k, v in enumerate(self._ids[self._linked:self._n].tolist(), self._linked):
            if v not in slot:
                continue  # parked before it linked
            peers = [(slot[c], c) for c in waiting.pop(v, ()) if c in slot]
            up = parent[v]
            if up > v:
                waiting.setdefault(up, []).append(v)
            elif up in slot:
                peers.append((slot[up], up))
                peers.sort()
            d = depth[v]
            for j, w in peers:
                self._attach(j, k, gap * (d - depth[w]))
            for j, w in peers:
                self._attach(k, j, gap * (depth[w] - d))
            self._link(self._width, k, self._leader, gap * (0 - d))

    def _relink(self) -> None:
        """Rewrite the whole table from the tree: each live row's peers, its
        parent among the rows and the rows it parents, in ascending slot,
        from one lexsort over the (row, peer) pairs."""
        slot, parent, depth, gap = self._slot, self.tree.parent, self.tree.depth, self._gap
        n, c, m = self._n, self._capacity, len(slot)
        live = self.live()
        ups = np.fromiter(map(parent.__getitem__, slot), dtype=np.intp, count=m)
        late = ups > self._last  # parents not yet rows
        self._waiting = waiting = {}
        for v, up in zip(self._ids[live[late]].tolist(), ups[late].tolist()):
            waiting.setdefault(up, []).append(v)
        up_slots = np.fromiter(map(slot.get, ups.tolist(), repeat(-1)), dtype=np.intp, count=m)
        linked = up_slots >= 0
        children, parents = live[linked], up_slots[linked]
        ks, js = np.concatenate((children, parents)), np.concatenate((parents, children))
        order = np.lexsort((js, ks))
        ks, js = ks[order], js[order]
        used = np.bincount(ks, minlength=n)
        self._used = [*used.tolist(), *repeat(0, c - n)]
        self._set_width(int(used.max(initial=0)))
        columns = np.arange(ks.size) - (np.cumsum(used) - used)[ks]
        layer = np.zeros(n)  # per slot, its depth
        layer[live] = np.fromiter(map(depth.__getitem__, slot), dtype=float, count=m)
        index, offsets, w = self._index, self._offsets, self._width
        index[columns, 0, ks], index[columns, 1, ks] = js, js + c
        offsets[columns, 0, ks] = gap * (layer[js] - layer[ks])
        index[w, 0, live], index[w, 1, live] = self._leader, self._leader + 1
        offsets[w, 0, live] = gap * (0.0 - layer[live])

    def _compact(self) -> None:
        """Move the live rows' ids and state into fresh arrays with room to
        grow, dropping the parked rows; the next step relinks them."""
        keep = self.live()
        m, c = keep.size, self._capacity
        ids, state = self._ids[keep], self._buffers[0][0][[keep, keep + c]]
        self._allocate(m + max(_MIN_CAPACITY, int(m * _ROOM)))
        c = self._capacity
        self._n = m
        self._ids[:m] = ids
        self._state[:, :m], self._state[:, c:c + m] = state
        self._slot = dict(zip(ids.tolist(), range(m)))

    # --- stepping ---------------------------------------------------------

    @property
    def rows(self) -> np.ndarray:
        """The vehicle ids of the slots in use, parked ones included."""
        return self._ids[:self._n]

    @property
    def u(self) -> np.ndarray:
        """The last step's input per slot in use, before saturation."""
        return self._u[:self._n]

    @property
    def p(self) -> np.ndarray:
        return self._buffers[0][5][:self._n]

    @property
    def v(self) -> np.ndarray:
        return self._buffers[0][4][:self._n]

    @property
    def p_prev(self) -> np.ndarray:
        return self._buffers[1][5][:self._n]

    @property
    def v_prev(self) -> np.ndarray:
        return self._buffers[1][4][:self._n]

    def live(self) -> np.ndarray:
        """The slots of the rows not parked, in ascending vehicle id."""
        return np.fromiter(self._slot.values(), dtype=np.intp, count=len(self._slot))

    def step(self, leader_remaining: float) -> bool:
        """Apply the law and one saturated forward-Euler step to every slot.

        The input is clamped to the actuator range first, then the new speed
        to [0, v_max]; the remaining distance falls at the pre-step speed and
        may go negative past the stopping line.  Each clamp passes its bound
        first: numpy's ``maximum`` and ``minimum`` return the second operand
        on a tie and propagate NaN, as Python's ``max(x, bound)`` does, so a
        zero keeps its sign (the tests pin this).

        Returns whether some row is now at or past the line.  Once a step
        has run on the rows, no speed exceeds v_max, so no row moves more
        than v_max * dt a step.  The least distance, found when the rows are
        tested, is a bound that falls by v_max * dt a step, in the rounding a
        row at v_max takes, so it never passes a row: the rows are tested
        again only once the bound is at or past the line, or after an append
        (a new row may start faster than v_max).
        """
        if self._linked != self._n:  # rows appended, or the table stale, since the last step
            if self._linked < 0:
                self._relink()
            else:
                self._link_fresh()
            self._linked = self._n
        (flat, pv, vu, clamped, _, _), (_, new_pv, _, _, new_v, new_p) = self._buffers
        flat[self._leader] = leader_remaining
        pairs = self._pairs
        flat.take(self._index, out=pairs, mode="clip")  # "raise" would buffer
        np.subtract(pairs, pv, out=pairs)  # p_j - p_i over v_j - v_i
        np.subtract(pairs, self._offsets, out=pairs)
        np.multiply(pairs, self._gains, out=pairs)
        np.subtract.reduce(self._terms, axis=0, out=self._u)
        np.maximum(self._a_min, self._u, out=clamped)
        np.minimum(self._a_max, clamped, out=clamped)
        np.multiply(vu, self._dt_pair, out=new_pv)
        np.add(pv, new_pv, out=new_pv)
        np.maximum(self._zero, new_v, out=new_v)
        np.minimum(self._v_max, new_v, out=new_v)
        self._buffers.reverse()
        self._budget -= self._reach
        if self._budget > 0.0:
            return False
        self._budget = float(np.fmin.reduce(new_p, initial=np.inf))
        return self._budget <= 0.0
