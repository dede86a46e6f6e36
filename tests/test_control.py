import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossflow import control
from crossflow.conflicts import ContractError
from crossflow.control import LEADER, ControllerGains, PlatoonKernel, VehicleState
from crossflow.scenario import ValidationError
from crossflow.scheduling import SpanningTree, dfst_schedule, idfst_schedule
from crossflow.simulation import simulate_platoon

from .oracles import (ScratchKernel, build_plf_topology, control_input, matrix_control_inputs,
                      scratch_history, step_dynamics)


def chain_tree(n: int) -> SpanningTree:
    parent = {i: i - 1 for i in range(1, n + 1)}
    depth = {i: i for i in range(1, n + 1)}
    return SpanningTree(parent=parent, depth=depth)


def equilibrium_states(tree: SpanningTree, cfg, leader_remaining: float) -> dict:
    states = {LEADER: VehicleState(leader_remaining, cfg.platoon_speed)}
    for v, d in tree.depth.items():
        states[v] = VehicleState(leader_remaining + cfg.desired_gap * d, cfg.platoon_speed)
    return states


def kernel_for(tree: SpanningTree, states: dict, cfg, gains=ControllerGains(),
               active=None) -> PlatoonKernel:
    """A ``PlatoonKernel`` over the active vehicles (all of the tree by
    default), its state gathered from a snapshot keyed by id."""
    kernel = PlatoonKernel(tree, gains, cfg)
    for v in sorted(active if active is not None else tree.depth):
        kernel.append(v, states[v].remaining, states[v].speed)
    return kernel


def kernel_inputs(tree: SpanningTree, states: dict, cfg, gains=ControllerGains(),
                  active=None) -> dict[int, float]:
    """The input of every active vehicle over one ``PlatoonKernel.step`` from a
    state snapshot keyed by id, the leader's included (it runs at v_0)."""
    leader = states[LEADER]
    assert leader.speed == cfg.platoon_speed
    kernel = kernel_for(tree, states, cfg, gains, active)
    kernel.step(leader.remaining)
    return dict(zip(kernel.rows.tolist(), kernel.u.tolist()))


def kernel_step(cfg, state: VehicleState, leader_remaining: float,
                gains=ControllerGains()) -> tuple[float, VehicleState]:
    """One ``PlatoonKernel.step`` of vehicle 1, alone at depth 1 behind the
    leader: its input and its new state."""
    kernel = PlatoonKernel(chain_tree(1), gains, cfg)
    kernel.append(1, state.remaining, state.speed)
    kernel.step(leader_remaining)
    return float(kernel.u[0]), VehicleState(float(kernel.p[0]), float(kernel.v[0]))


def oracle_step(cfg, state: VehicleState, leader_remaining: float,
                gains=ControllerGains()) -> tuple[float, VehicleState]:
    """``kernel_step`` by the scalar law and integrator."""
    states = {LEADER: VehicleState(leader_remaining, cfg.platoon_speed), 1: state}
    u = control_input(1, states, build_plf_topology(chain_tree(1)), {1: 1}, gains, cfg)
    return u, step_dynamics(state, u, cfg.dt, cfg)


class TestTopology:
    def test_single_vehicle(self):
        topo = build_plf_topology(chain_tree(1))
        assert topo.adjacency.tolist() == [[0.0]]
        assert topo.pinning.tolist() == [[1.0]]
        assert topo.laplacian.tolist() == [[0.0]]
        assert topo.peers == {1: ()}

    def test_chain(self):
        topo = build_plf_topology(chain_tree(2))
        assert topo.adjacency[0, 1] == topo.adjacency[1, 0] == 1.0
        assert np.trace(topo.pinning) == 2
        assert topo.peers[1] == (2,)
        assert topo.peers[2] == (1,)

    def test_example_tree_links_late_vehicle_to_its_parent(self, ex1_cdg):
        tree = idfst_schedule(ex1_cdg)
        topo = build_plf_topology(tree)
        assert tree.parent[7] in topo.peers[7]

    def test_matrix_identities(self, ex1_cdg):
        topo = build_plf_topology(idfst_schedule(ex1_cdg))
        assert np.allclose(topo.adjacency, topo.adjacency.T)
        assert np.allclose(topo.laplacian.sum(axis=1), 0.0)
        assert np.allclose(np.diag(np.diag(topo.pinning)), topo.pinning)
        assert np.trace(topo.pinning) == len(topo.ids)


class TestControlInput:
    def test_equilibrium_is_fixed_point(self, default_cfg, ex1_cdg):
        tree = idfst_schedule(ex1_cdg)
        states = equilibrium_states(tree, default_cfg, leader_remaining=500.0)
        for u in kernel_inputs(tree, states, default_cfg).values():
            assert u == pytest.approx(0.0, abs=1e-12)

    def test_spacing_error_gain(self, default_cfg):
        tree = chain_tree(1)
        # vehicle one meter closer to the line than its slot
        states = {
            LEADER: VehicleState(500.0, 10.0),
            1: VehicleState(500.0 + 30.0 - 1.0, 10.0),
        }
        assert kernel_inputs(tree, states, default_cfg)[1] == pytest.approx(-0.1)

    def test_speed_error_gain(self, default_cfg):
        tree = chain_tree(1)
        states = {
            LEADER: VehicleState(500.0, 10.0),
            1: VehicleState(530.0, 11.0),
        }
        assert kernel_inputs(tree, states, default_cfg)[1] == pytest.approx(-0.3)

    def test_crossed_neighbor_skipped(self, default_cfg):
        tree = chain_tree(2)
        states = {
            LEADER: VehicleState(0.0, 10.0),
            1: VehicleState(-5.0, 10.0),
            2: VehicleState(60.0, 10.0),
        }
        with_parent = kernel_inputs(tree, states, default_cfg)[2]
        without = kernel_inputs(tree, states, default_cfg, active={2})[2]
        assert with_parent != pytest.approx(without)
        # leader-only term: delta_p = 0 - 60 + 60 = 0, delta_v = 0
        assert without == pytest.approx(0.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.data())
    def test_matches_matrix_form(self, default_cfg, seed, data):
        from .instances import random_instance

        _, _, cdg = random_instance(seed)
        tree = idfst_schedule(cdg)
        topo = build_plf_topology(tree)
        gains = ControllerGains()
        states = {LEADER: VehicleState(
            data.draw(st.floats(min_value=-100, max_value=900)), default_cfg.platoon_speed)}
        for v in tree.depth:
            states[v] = VehicleState(
                data.draw(st.floats(min_value=-50, max_value=1200)),
                data.draw(st.floats(min_value=0, max_value=25)),
            )
        oracle = matrix_control_inputs(topo, states, tree.depth, gains, default_cfg)
        for v, u in kernel_inputs(tree, states, default_cfg, gains).items():
            assert u == pytest.approx(oracle[v], rel=1e-9, abs=1e-9)


class TestStepDynamics:
    """One vehicle at depth 1, 30 m behind its leader when at its slot: the
    law's input drives the saturated integrator, bit for bit as the scalar
    reference does."""

    def step(self, cfg, p, v, leader=500.0, gains=ControllerGains()):
        u, out = kernel_step(cfg, VehicleState(p, v), leader, gains)
        want_u, want = oracle_step(cfg, VehicleState(p, v), leader, gains)
        assert bits(u) == bits(want_u)
        assert (bits(out.remaining), bits(out.speed)) == (bits(want.remaining), bits(want.speed))
        return u, out

    def test_euler_step(self, default_cfg):
        u, out = self.step(default_cfg, 532.0, 10.0)  # 2 m behind its slot
        assert u == pytest.approx(0.2)
        assert out.speed == pytest.approx(10.02)
        assert out.remaining == 531.0

    def test_speed_ceiling(self, default_cfg):
        u, out = self.step(default_cfg, 900.0, 25.0)
        assert u > default_cfg.a_max
        assert out.speed == 25.0

    def test_no_reversing(self, default_cfg):
        u, out = self.step(default_cfg, 100.0, 0.0)
        assert u < default_cfg.a_min
        assert out.speed == 0.0
        assert out.remaining == 100.0

    def test_acceleration_clamped_first(self, default_cfg):
        u, out = self.step(default_cfg, 900.0, 10.0)
        assert u > default_cfg.a_max
        assert out.speed == pytest.approx(10.0 + default_cfg.a_max * 0.1)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=-50, max_value=1000),
        st.floats(min_value=0, max_value=25),
        st.floats(min_value=-1000, max_value=1000),
    )
    def test_bounds_always_hold(self, default_cfg, p, v, leader):
        _, out = self.step(default_cfg, p, v, leader)
        assert 0.0 <= out.speed <= default_cfg.v_max
        assert abs(out.speed - v) <= max(default_cfg.a_max, -default_cfg.a_min) * 0.1 + 1e-12

    @pytest.mark.parametrize("excess", [11, 12, 13, 14])
    def test_zero_speed_keeps_its_sign(self, default_cfg, excess):
        """With the smallest subnormal gains, a vehicle at speed -0.0 gets an
        input of a few subnormals below zero, and u * dt underflows to -0.0:
        -0.0 + -0.0 ties the speed floor 0.0, and the floor keeps the -0.0
        as Python's ``max`` does."""
        tiny = ControllerGains(k_p=5e-324, k_v=5e-324)
        u, out = self.step(default_cfg, 500.0, -0.0, 470.0 + excess, tiny)
        assert -2.5e-323 < u < 0.0
        assert bits(out.speed) == bits(-0.0)


def bits(x: float) -> str:
    return float(x).hex()


def assert_step_matches_oracle(kernel, states, tree, topo, gains, cfg, active):
    """The kernel's last step against the scalar law and integrator, bit for bit."""
    for k, v in enumerate(kernel.rows.tolist()):
        want_u = control_input(v, states, topo, tree.depth, gains, cfg, active=active)
        want = step_dynamics(states[v], want_u, cfg.dt, cfg)
        assert bits(kernel.u[k]) == bits(want_u)
        assert bits(kernel.p_prev[k]) == bits(states[v].remaining)
        assert bits(kernel.v_prev[k]) == bits(states[v].speed)
        assert bits(kernel.p[k]) == bits(want.remaining)
        assert bits(kernel.v[k]) == bits(want.speed)
        assert 0.0 <= kernel.v[k] <= cfg.v_max


class TestPlatoonKernel:
    """The array kernel against the oracles' scalar law and integrator, bit for
    bit, and against the matrix form."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.booleans(), st.data())
    def test_matches_scalar_law_and_integrator(self, default_cfg, seed, baseline, data):
        """Spacing errors up to about 1 km push many inputs past both
        actuator bounds, so both clamps are exercised."""
        from .instances import random_instance

        _, _, cdg = random_instance(seed)
        tree = dfst_schedule(cdg) if baseline else idfst_schedule(cdg)
        topo = build_plf_topology(tree)
        gains = ControllerGains()
        ids = sorted(tree.depth)
        active = {v for v in ids if data.draw(st.booleans())}
        leader = VehicleState(data.draw(st.floats(min_value=-100, max_value=900)),
                              default_cfg.platoon_speed)
        speeds = st.one_of(st.sampled_from([0.0, default_cfg.v_max]),
                           st.floats(min_value=0, max_value=default_cfg.v_max))
        states = {LEADER: leader}
        for v in ids:
            states[v] = VehicleState(data.draw(st.floats(min_value=-50, max_value=1200)),
                                     data.draw(speeds))
        kernel = kernel_for(tree, states, default_cfg, gains, active)
        kernel.step(leader.remaining)
        assert_step_matches_oracle(kernel, states, tree, topo, gains, default_cfg, active)
        if active == set(ids):
            oracle = matrix_control_inputs(topo, states, tree.depth, gains, default_cfg)
            for k, v in enumerate(kernel.rows.tolist()):
                assert kernel.u[k] == pytest.approx(oracle[v], rel=1e-9, abs=1e-9)

    def test_consecutive_steps_alternate_buffers(self, default_cfg, ex1_cdg):
        """Steps alternate the kernel's two buffers; each reads the state the
        last one wrote, and the rows keep each vehicle's state under its id:
        a ``ScratchKernel`` stepped as often from the start states agrees."""
        tree = idfst_schedule(ex1_cdg)
        topo = build_plf_topology(tree)
        gains = ControllerGains()
        states = {LEADER: VehicleState(400.0, default_cfg.platoon_speed)}
        for v in sorted(tree.depth):
            states[v] = VehicleState(350.0 + 40.0 * v, 2.0 * v)
        kernel = kernel_for(tree, states, default_cfg, gains)
        ids = sorted(tree.depth)
        scratch = ScratchKernel(ids, tree, gains, default_cfg,
                                np.array([0.0] + [states[v].remaining for v in ids]),
                                np.array([0.0] + [states[v].speed for v in ids]))
        for n in range(5):
            leader = 400.0 - default_cfg.platoon_speed * default_cfg.dt * n
            states[LEADER] = VehicleState(leader, default_cfg.platoon_speed)
            kernel.step(leader)
            scratch.step(leader)
            assert_step_matches_oracle(kernel, states, tree, topo, gains, default_cfg, None)
            states.update((v, VehicleState(float(p), float(s))) for v, p, s
                          in zip(kernel.rows.tolist(), kernel.p, kernel.v))
        assert kernel.rows.tolist() == ids
        assert list(map(bits, kernel.p)) == list(map(bits, scratch.p))
        assert list(map(bits, kernel.v)) == list(map(bits, scratch.v))

    def test_row_without_peers(self, default_cfg):
        """Vehicle 1 hangs alone under the leader; its padded column adds
        nothing, while 2 and 3 link to each other."""
        tree = SpanningTree(parent={1: LEADER, 2: LEADER, 3: 2}, depth={1: 1, 2: 1, 3: 2})
        topo = build_plf_topology(tree)
        assert topo.peers[1] == ()
        states = {LEADER: VehicleState(300.0, default_cfg.platoon_speed),
                  1: VehicleState(337.5, 9.0), 2: VehicleState(320.25, 12.5),
                  3: VehicleState(361.0, 8.0)}
        kernel = kernel_for(tree, states, default_cfg)
        kernel.step(300.0)
        assert_step_matches_oracle(kernel, states, tree, topo, ControllerGains(), default_cfg,
                                   None)

    def test_row_whose_parent_crossed(self, default_cfg):
        """Vehicle 1 is past the line and out of the rows: vehicle 2 follows
        its child 3 and the leader only, as the reference skips 1."""
        tree = chain_tree(3)
        topo = build_plf_topology(tree)
        states = {LEADER: VehicleState(-20.0, default_cfg.platoon_speed),
                  1: VehicleState(-3.0, 11.0), 2: VehicleState(21.5, 10.5),
                  3: VehicleState(55.0, 9.5)}
        kernel = kernel_for(tree, states, default_cfg, active={2, 3})
        kernel.step(-20.0)
        assert_step_matches_oracle(kernel, states, tree, topo, ControllerGains(), default_cfg,
                                   {2, 3})
        assert kernel.u[0] != pytest.approx(kernel_inputs(tree, {**states}, default_cfg)[2])

    @pytest.mark.parametrize("active", [None, {1, 3, 4, 5, 6, 7}, {2, 3, 4, 5, 7}])
    def test_peers_ascend_where_a_parent_outnumbers_its_children(self, default_cfg, active):
        """Cover-route trees hang low ids under higher ones: 3 has children 1
        and 4 and parent 6, and 7 has child 5 and parent 6.  Every row's peer
        columns hold its peers among the rows in ascending id, padded with its
        own index, and u matches the reference summing in that order."""
        tree = SpanningTree(parent={6: LEADER, 2: 6, 3: 6, 7: 6, 1: 3, 4: 3, 5: 7},
                            depth={6: 1, 2: 2, 3: 2, 7: 2, 1: 3, 4: 3, 5: 3})
        topo = build_plf_topology(tree)
        assert topo.peers[3] == (1, 4, 6) and topo.peers[6] == (2, 3, 7)
        states = {LEADER: VehicleState(212.3, default_cfg.platoon_speed)}
        for v in range(1, 8):
            states[v] = VehicleState(230.0 + 31.7 * v - 0.13 * v * v, 9.0 + 0.37 * v)
        kernel = kernel_for(tree, states, default_cfg, active=active)
        kernel.step(212.3)
        rows = kernel.rows.tolist()
        columns = kernel._index[:-1, 0, :].T.tolist()  # per row, its peer columns' local indices
        for k, v in enumerate(rows):
            want = [j for j in topo.peers[v] if j in rows]
            assert [rows[c] for c in columns[k][:len(want)]] == want
            assert columns[k][len(want):] == [k] * (len(columns[k]) - len(want))
        assert_step_matches_oracle(kernel, states, tree, topo, ControllerGains(), default_cfg,
                                   active)

    def test_speed_bounds_and_clamps_hit_exactly(self, default_cfg):
        """Four lone vehicles (no peers) whose inputs saturate at a_min and
        a_max and whose speeds saturate at 0 and v_max."""
        tree = SpanningTree(parent={v: LEADER for v in range(1, 5)},
                            depth={v: 1 for v in range(1, 5)})
        topo = build_plf_topology(tree)
        v_max = default_cfg.v_max
        states = {LEADER: VehicleState(500.0, default_cfg.platoon_speed),
                  1: VehicleState(300.0, 12.0),  # far ahead of its slot: a_min
                  2: VehicleState(800.0, 12.0),  # far behind: a_max
                  3: VehicleState(300.0, 0.25),  # a_min below zero speed
                  4: VehicleState(800.0, v_max - 0.25)}  # a_max above v_max
        kernel = kernel_for(tree, states, default_cfg)
        kernel.step(500.0)
        assert_step_matches_oracle(kernel, states, tree, topo, ControllerGains(), default_cfg,
                                   None)
        a_min, a_max = default_cfg.a_min, default_cfg.a_max
        assert kernel.u[0] < a_min and kernel.u[1] > a_max
        assert kernel.v.tolist() == [12.0 + a_min * 0.1, 12.0 + a_max * 0.1, 0.0, v_max]
        assert bits(kernel.v[2]) == bits(0.0)

    def test_nonpositive_step_rejected(self, default_cfg):
        """The step is the scenario's, checked where the scenario is made."""
        for step in (0.0, -0.1):
            with pytest.raises(ValidationError, match="dt"):
                dataclasses.replace(default_cfg, dt=step)

    def test_kernel_steps_with_the_scenario_step(self, default_cfg):
        u, out = kernel_step(dataclasses.replace(default_cfg, dt=0.5), VehicleState(532.0, 10.0),
                             500.0)
        assert out.remaining == 527.0
        assert out.speed == 10.0 + u * 0.5


def random_tree(data, n: int) -> tuple[dict[int, int], dict[int, int]]:
    """Parent and depth maps of a tree over 1..n grown in a drawn order, so a
    vehicle's parent may have a higher id and enter later, as cover trees
    anchor each layer at the lowest id one layer up."""
    order = data.draw(st.permutations(range(1, n + 1)))
    parent, depth = {}, {LEADER: 0}
    for pos, v in enumerate(order):
        up = data.draw(st.sampled_from([LEADER, *order[:pos]]))
        parent[v], depth[v] = up, depth[up] + 1
    del depth[LEADER]
    return parent, depth


class TestKernelUpdates:
    """One kernel through appends, crossings, re-covers and steps against a
    ``ScratchKernel`` rebuilt from scratch after every event, bit for bit."""

    @pytest.mark.parametrize("min_capacity", [1, control._MIN_CAPACITY],
                             ids=["one-slot", "default"])
    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=2, max_value=14), st.data())
    def test_updates_match_a_kernel_rebuilt_after_every_event(self, default_cfg, min_capacity,
                                                              n, data):
        """With room for one row, nearly every append and crossing compacts."""
        with mock.patch.object(control, "_MIN_CAPACITY", min_capacity):
            self.check_updates(default_cfg, n, data)

    @staticmethod
    def check_updates(default_cfg, n, data):
        cfg, gains = default_cfg, ControllerGains()
        tree = SpanningTree(*random_tree(data, n))
        kernel = PlatoonKernel(tree, gains, cfg)
        remaining, speed = np.zeros(n + 1), np.zeros(n + 1)
        live: list[int] = []
        appended = 0
        leader = data.draw(st.floats(min_value=-100, max_value=900))
        events = st.sampled_from(["append", "append", "cross", "recover", "step", "step"])
        for event in data.draw(st.lists(events, min_size=1, max_size=40)):
            if event == "append" and appended < n:
                appended = v = appended + 1
                remaining[v] = data.draw(st.floats(min_value=-50, max_value=1200))
                speed[v] = data.draw(st.sampled_from([0.0, cfg.v_max, 1.5 * cfg.v_max])
                                     | st.floats(min_value=0, max_value=2 * cfg.v_max))
                kernel.append(v, remaining[v], speed[v])
                live.append(v)
            elif event == "cross" and live:
                v = data.draw(st.sampled_from(live))
                kernel.park([kernel.rows.tolist().index(v)])
                live.remove(v)
            elif event == "recover":
                parent, depth = random_tree(data, n)
                tree.parent.update(parent)
                tree.depth.update(depth)
                kernel.relink()
            elif event == "step":
                scratch = ScratchKernel(live, tree, gains, cfg, remaining, speed)
                reached = kernel.step(leader)
                assert reached == scratch.step(leader)
                slots = kernel.live()
                assert kernel.rows[slots].tolist() == live
                for name in ("u", "p", "v", "p_prev", "v_prev"):
                    assert (list(map(bits, getattr(kernel, name)[slots]))
                            == list(map(bits, getattr(scratch, name))))
                scratch.store(remaining, speed)
                leader -= cfg.platoon_speed * cfg.dt
        slots = kernel.live()
        assert kernel.rows[slots].tolist() == live
        assert list(map(bits, kernel.p[slots])) == list(map(bits, remaining[live]))
        assert list(map(bits, kernel.v[slots])) == list(map(bits, speed[live]))

    def test_late_parent_widens_the_table(self, default_cfg):
        """Vehicles 1-3 hang under 4, which enters last: each waits for its
        parent, and 4's three peers widen the table from one column to three."""
        tree = SpanningTree(parent={4: LEADER, 1: 4, 2: 4, 3: 4}, depth={4: 1, 1: 2, 2: 2, 3: 2})
        kernel = PlatoonKernel(tree, ControllerGains(), default_cfg)
        states = {LEADER: VehicleState(300.0, default_cfg.platoon_speed)}
        for v in range(1, 5):
            states[v] = VehicleState(310.0 + 25.0 * v, 9.0 + 0.5 * v)
            kernel.append(v, states[v].remaining, states[v].speed)
        kernel.step(300.0)
        assert kernel._index.shape[0] == 4  # three peer columns and the leader's
        assert_step_matches_oracle(kernel, states, tree, build_plf_topology(tree),
                                   ControllerGains(), default_cfg, None)

    def test_late_child_and_early_parent_sum_in_id_order(self, default_cfg):
        """Vehicle 3 hangs under 1 and is the parent of 2, which entered
        before it: 3's peers are 1 then 2, its waiting child found first."""
        tree = SpanningTree(parent={1: LEADER, 3: 1, 2: 3}, depth={1: 1, 3: 2, 2: 3})
        kernel = PlatoonKernel(tree, ControllerGains(), default_cfg)
        states = {LEADER: VehicleState(212.3, default_cfg.platoon_speed),
                  1: VehicleState(251.7, 9.37), 2: VehicleState(318.9, 7.13),
                  3: VehicleState(263.1, 11.91)}
        for v in range(1, 4):
            kernel.append(v, states[v].remaining, states[v].speed)
        kernel.step(212.3)
        assert kernel._index[:2, 0, 2].tolist() == [0, 1]
        assert_step_matches_oracle(kernel, states, tree, build_plf_topology(tree),
                                   ControllerGains(), default_cfg, None)

    @staticmethod
    def assert_step_matches_scratch(kernel, live, tree, cfg, leader):
        """Step ``kernel`` and a ``ScratchKernel`` built over the ``live`` ids
        from the kernel's own rows; both agree bit for bit."""
        state = np.zeros((2, max(tree.depth) + 1))
        slots = kernel.live()
        assert kernel.rows[slots].tolist() == live
        state[:, live] = kernel.p[slots], kernel.v[slots]
        scratch = ScratchKernel(live, tree, ControllerGains(), cfg, *state)
        assert kernel.step(leader) == scratch.step(leader)
        slots = kernel.live()
        for name in ("u", "p", "v", "p_prev", "v_prev"):
            assert (list(map(bits, getattr(kernel, name)[slots]))
                    == list(map(bits, getattr(scratch, name))))

    @pytest.mark.parametrize("parked", [[2], [4], [1, 4], [5]])
    @pytest.mark.parametrize("steps_before", [0, 1])
    def test_row_parked_before_the_step_that_links_it(self, default_cfg, parked, steps_before):
        """Rows appended and parked before the step that would link them
        never link: a parked late parent (4) leaves its child to the leader
        alone, and a parked child leaves its parent's list.  With a step
        first, row 1 is linked by then and the others are not."""
        tree = SpanningTree(parent={4: LEADER, 1: 4, 2: 1, 3: 1, 5: 2},
                            depth={4: 1, 1: 2, 2: 3, 3: 3, 5: 4})
        kernel = PlatoonKernel(tree, ControllerGains(), default_cfg)
        kernel.append(1, 331.7, 8.5)
        for _ in range(steps_before):
            self.assert_step_matches_scratch(kernel, [1], tree, default_cfg, 280.0)
        for v in range(2, 6):
            kernel.append(v, 300.0 + 31.7 * v, 8.0 + 0.5 * v)
        kernel.park([kernel.rows.tolist().index(v) for v in parked])
        live = [v for v in range(1, 6) if v not in parked]
        for leader in (279.0, 278.0):
            self.assert_step_matches_scratch(kernel, live, tree, default_cfg, leader)

    @pytest.mark.parametrize("relink_first", [True, False])
    def test_relink_and_appends_in_one_step(self, default_cfg, relink_first):
        """A re-cover and new rows between two steps: the step relinks every
        row, the new ones included, whichever came first."""
        tree = SpanningTree(parent={1: LEADER, 2: 1, 3: 1}, depth={1: 1, 2: 2, 3: 2})
        kernel = PlatoonKernel(tree, ControllerGains(), default_cfg)
        for v in (1, 2, 3):
            kernel.append(v, 250.0 + 40.0 * v, 9.0 + 0.3 * v)
        self.assert_step_matches_scratch(kernel, [1, 2, 3], tree, default_cfg, 230.0)
        if relink_first:
            kernel.relink()
        for v in (4, 5):
            kernel.append(v, 250.0 + 40.0 * v, 9.0 + 0.3 * v)
        # the re-cover moves old rows and places the new ones, 5 above 2 and 4
        tree.parent.update({3: LEADER, 5: 3, 2: 5, 4: 5, 1: 2})
        tree.depth.update({3: 1, 5: 2, 2: 3, 4: 3, 1: 4})
        if not relink_first:
            kernel.relink()
        for leader in (229.0, 228.0):
            self.assert_step_matches_scratch(kernel, [1, 2, 3, 4, 5], tree, default_cfg, leader)

    def test_appends_ascend(self, default_cfg):
        kernel = PlatoonKernel(chain_tree(3), ControllerGains(), default_cfg)
        kernel.append(2, 100.0, 10.0)
        with pytest.raises(ContractError, match="ascending"):
            kernel.append(1, 100.0, 10.0)


class TestCrossingBound:
    """A step tests the rows for the line only once one could reach it; the
    crossings come out on the step, and with the t_out, that testing every
    step gives."""

    @pytest.mark.parametrize("speed", [1.0, 2.0], ids=["at-v_max", "twice-v_max"])
    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    @pytest.mark.parametrize("steps", [1, 2, 3, 7, 40])
    def test_row_one_ulp_either_side_of_whole_steps(self, default_cfg, speed, ulps, steps):
        """A lone row steps * v_max * dt from the line, or one ulp nearer or
        farther, at v_max or twice it and far behind its slot, so every step
        after the first moves it by v_max * dt; alone, it sets the bound."""
        reach = default_cfg.v_max * default_cfg.dt
        distance = steps * reach * speed
        if ulps:
            distance = float(np.nextafter(distance, ulps * np.inf))
        initial = {1: VehicleState(distance, speed * default_cfg.v_max)}
        tree = chain_tree(1)
        history = simulate_platoon(tree, default_cfg, initial, -500.0, until=20.0)
        crossed = history[-1].crossings
        want = scratch_history(tree, default_cfg, initial, -500.0, ControllerGains(), 20.0)[-1][2]
        assert set(crossed) == {1}
        assert crossed[1].hex() == want[1].hex()

    def test_vehicle_above_v_max_crosses_on_the_first_step(self, default_cfg):
        """Vehicle 2 starts at three times v_max, 2.5 * v_max * dt from the
        line: the first step after a build is tested whatever the bound."""
        reach = default_cfg.v_max * default_cfg.dt
        tree = chain_tree(3)
        initial = {1: VehicleState(12.0 * reach, default_cfg.v_max),
                   2: VehicleState(2.5 * reach, 3.0 * default_cfg.v_max),
                   3: VehicleState(80.0, 4.0)}
        history = simulate_platoon(tree, default_cfg, initial, 50.0, until=30.0)
        assert history[1].crossings == {2: pytest.approx(2.5 / 3.0 * default_cfg.dt)}
        want = scratch_history(tree, default_cfg, initial, 50.0, ControllerGains(), 30.0)[-1][2]
        assert {v: t.hex() for v, t in history[-1].crossings.items()} == \
            {v: t.hex() for v, t in want.items()}
