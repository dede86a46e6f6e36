import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossflow.control import LEADER, ControllerGains, PlatoonKernel, VehicleState
from crossflow.scenario import ValidationError
from crossflow.scheduling import SpanningTree, dfst_schedule, idfst_schedule

from .oracles import build_plf_topology, control_input, matrix_control_inputs, step_dynamics


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
    rows = sorted(active if active is not None else tree.depth)
    remaining, speed = np.zeros(max(states) + 1), np.zeros(max(states) + 1)
    for v, state in states.items():
        remaining[v], speed[v] = state.remaining, state.speed
    return PlatoonKernel(rows, tree, gains, cfg, remaining, speed)


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
    kernel = PlatoonKernel([1], chain_tree(1), gains, cfg, np.array([0.0, state.remaining]),
                           np.array([0.0, state.speed]))
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

    def test_consecutive_steps_and_store(self, default_cfg, ex1_cdg):
        """Steps alternate the kernel's two buffers; each reads the state the
        last one wrote, and ``store`` writes the rows' state back by id."""
        tree = idfst_schedule(ex1_cdg)
        topo = build_plf_topology(tree)
        gains = ControllerGains()
        states = {LEADER: VehicleState(400.0, default_cfg.platoon_speed)}
        for v in sorted(tree.depth):
            states[v] = VehicleState(350.0 + 40.0 * v, 2.0 * v)
        kernel = kernel_for(tree, states, default_cfg, gains)
        for n in range(5):
            leader = 400.0 - default_cfg.platoon_speed * default_cfg.dt * n
            states[LEADER] = VehicleState(leader, default_cfg.platoon_speed)
            kernel.step(leader)
            assert_step_matches_oracle(kernel, states, tree, topo, gains, default_cfg, None)
            states.update((v, VehicleState(float(p), float(s))) for v, p, s
                          in zip(kernel.rows.tolist(), kernel.p, kernel.v))
        remaining, speed = np.zeros(8), np.zeros(8)
        kernel.store(remaining, speed)
        for v in kernel.rows.tolist():
            assert (remaining[v], speed[v]) == (states[v].remaining, states[v].speed)

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
