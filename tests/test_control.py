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


def kernel_inputs(tree: SpanningTree, states: dict, cfg, gains=ControllerGains(),
                  active=None) -> dict[int, float]:
    """``PlatoonKernel``'s input of every active vehicle (all of the tree by
    default) from a state snapshot keyed by id, the leader's included."""
    rows = sorted(active if active is not None else tree.depth)
    remaining, speed = np.zeros(max(states) + 1), np.zeros(max(states) + 1)
    for v, state in states.items():
        remaining[v], speed[v] = state.remaining, state.speed
    kernel = PlatoonKernel.build(rows, build_plf_topology(tree).neighbor_sets, tree.depth,
                                 gains, cfg)
    leader = states[LEADER]
    return dict(zip(rows, kernel.control_inputs(remaining, speed, leader.remaining,
                                                leader.speed).tolist()))


def kernel_step(cfg, state: VehicleState, u: float) -> VehicleState:
    """One ``PlatoonKernel.euler_step`` of a single vehicle, over the scenario's step."""
    kernel = PlatoonKernel.build([1], {1: ()}, {1: 1}, ControllerGains(), cfg)
    new_p, new_v = kernel.euler_step(np.array([state.remaining]), np.array([state.speed]),
                                     np.array([u]))
    return VehicleState(float(new_p[0]), float(new_v[0]))


class TestTopology:
    def test_single_vehicle(self):
        topo = build_plf_topology(chain_tree(1))
        assert topo.adjacency.tolist() == [[0.0]]
        assert topo.pinning.tolist() == [[1.0]]
        assert topo.laplacian.tolist() == [[0.0]]
        assert topo.neighbor_sets == {1: frozenset()}

    def test_chain(self):
        topo = build_plf_topology(chain_tree(2))
        assert topo.adjacency[0, 1] == topo.adjacency[1, 0] == 1.0
        assert np.trace(topo.pinning) == 2
        assert topo.neighbor_sets[1] == frozenset({2})
        assert topo.neighbor_sets[2] == frozenset({1})

    def test_example_tree_links_late_vehicle_to_its_parent(self, ex1_cdg):
        tree = idfst_schedule(ex1_cdg)
        topo = build_plf_topology(tree)
        assert tree.parent[7] in topo.neighbor_sets[7]

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
    def test_euler_step(self, default_cfg):
        out = kernel_step(default_cfg, VehicleState(500.0, 10.0), 2.0)
        assert out.speed == pytest.approx(10.2)
        assert out.remaining == pytest.approx(499.0)

    def test_speed_ceiling(self, default_cfg):
        out = kernel_step(default_cfg, VehicleState(500.0, 25.0), 5.0)
        assert out.speed == 25.0

    def test_no_reversing(self, default_cfg):
        out = kernel_step(default_cfg, VehicleState(500.0, 0.0), -6.0)
        assert out.speed == 0.0
        assert out.remaining == 500.0

    def test_acceleration_clamped_first(self, default_cfg):
        out = kernel_step(default_cfg, VehicleState(500.0, 10.0), 50.0)
        assert out.speed == pytest.approx(10.0 + default_cfg.a_max * 0.1)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=-50, max_value=1000),
        st.floats(min_value=0, max_value=25),
        st.floats(min_value=-1000, max_value=1000),
    )
    def test_bounds_always_hold(self, default_cfg, p, v, u):
        out = kernel_step(default_cfg, VehicleState(p, v), u)
        assert 0.0 <= out.speed <= default_cfg.v_max
        assert abs(out.speed - v) <= max(default_cfg.a_max, -default_cfg.a_min) * 0.1 + 1e-12


def bits(x: float) -> str:
    return float(x).hex()


class TestPlatoonKernel:
    """The array kernel against the oracles' scalar law and integrator, bit for
    bit, and against the matrix form."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.booleans(), st.data())
    def test_matches_scalar_law_and_integrator(self, default_cfg, seed, baseline, data):
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
        remaining = np.zeros(max(ids) + 1)
        speed = np.zeros(max(ids) + 1)
        for v in ids:
            states[v] = VehicleState(data.draw(st.floats(min_value=-50, max_value=1200)),
                                     data.draw(speeds))
            remaining[v], speed[v] = states[v].remaining, states[v].speed
        rows = sorted(active)
        kernel = PlatoonKernel.build(rows, topo.neighbor_sets, tree.depth, gains, default_cfg)
        u = kernel.control_inputs(remaining, speed, leader.remaining, leader.speed)
        for k, v in enumerate(rows):
            want = control_input(v, states, topo, tree.depth, gains, default_cfg, active=active)
            assert bits(u[k]) == bits(want)
        if active == set(ids):
            oracle = matrix_control_inputs(topo, states, tree.depth, gains, default_cfg)
            for k, v in enumerate(rows):
                assert u[k] == pytest.approx(oracle[v], rel=1e-9, abs=1e-9)

        # inputs far outside the actuator range exercise both clamps
        pushed = np.array([data.draw(st.one_of(st.floats(min_value=-1000, max_value=1000),
                                               st.sampled_from([default_cfg.a_min,
                                                                default_cfg.a_max])))
                           for _ in rows])
        for inputs in (u, pushed):
            new_p, new_v = kernel.euler_step(remaining[kernel.rows], speed[kernel.rows], inputs)
            for k, v in enumerate(rows):
                want = step_dynamics(states[v], float(inputs[k]), default_cfg.dt, default_cfg)
                assert bits(new_p[k]) == bits(want.remaining)
                assert bits(new_v[k]) == bits(want.speed)
                assert 0.0 <= new_v[k] <= default_cfg.v_max

    def test_speed_bounds_and_clamps_hit_exactly(self, default_cfg):
        tree = chain_tree(4)
        kernel = PlatoonKernel.build([1, 2, 3, 4], build_plf_topology(tree).neighbor_sets,
                                     tree.depth, ControllerGains(), default_cfg)
        p = np.array([500.0, 500.0, 500.0, 500.0, 500.0])
        v = np.array([0.0, default_cfg.v_max, 0.05, 24.9, -0.0])
        u = np.array([-6.0, 5.0, -100.0, 100.0, -0.0])
        new_p, new_v = kernel.euler_step(p, v, u)
        for k in range(5):
            want = step_dynamics(VehicleState(p[k], v[k]), u[k], default_cfg.dt, default_cfg)
            assert bits(new_v[k]) == bits(want.speed)
            assert bits(new_p[k]) == bits(want.remaining)
        assert new_v.tolist() == [0.0, default_cfg.v_max, 0.0, default_cfg.v_max, 0.0]
        assert bits(new_v[4]) == bits(-0.0)  # Python's max(-0.0, 0.0) keeps -0.0

    def test_nonpositive_step_rejected(self, default_cfg):
        """The step is the scenario's, checked where the scenario is made."""
        for step in (0.0, -0.1):
            with pytest.raises(ValidationError, match="dt"):
                dataclasses.replace(default_cfg, dt=step)

    def test_kernel_steps_with_the_scenario_step(self, default_cfg):
        out = kernel_step(dataclasses.replace(default_cfg, dt=0.5), VehicleState(500.0, 10.0), 2.0)
        assert (out.remaining, out.speed) == (495.0, 11.0)
