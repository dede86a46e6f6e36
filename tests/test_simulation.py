import dataclasses
import hashlib
import statistics
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossflow.conflicts import (CoexistenceGraph, ContractError, VehicleRecord, _uncatchable,
                                 nominal_remaining)
from crossflow.control import LEADER, ControllerGains, PlatoonKernel, VehicleState
from crossflow.conflicts import build_cdg
from crossflow.scheduling import (SpanningTree, _GrowingTree, _cover_layers, dfst_schedule,
                                  idfst_schedule, mcc_greedy)
from crossflow.simulation import (
    Algorithm,
    CompletionRecord,
    Mode,
    SimConfig,
    SimulationTimeout,
    attd,
    evacuation_time,
    run,
    sample_arrivals,
    simulate_platoon,
    _Engine,
)
from crossflow import simulation
from crossflow.scenario import ValidationError, default_intersection, load_scenario

import yaml

from .conftest import DATA, EXAMPLE1_SETS, dump_scenario, make_sets
from .instances import sampled_instance
from .oracles import (bitset, both_ways, members, reachability_conflict, renumbered_cover_layers,
                      renumbered_greedy_cover, scratch_history, sets_conflict)


def empty_tree() -> SpanningTree:
    return SpanningTree(parent={}, depth={})


def slot_of(engine, vehicle: int) -> int:
    """The slot of ``vehicle``'s kernel row, where the engine keeps its state."""
    return engine.kernel.rows.tolist().index(vehicle)


def recorded_conflict_sets(mp: pytest.MonkeyPatch) -> dict:
    """Wrap ``simulation.conflict_sets_for`` through ``mp``: the returned map
    fills with the conflict sets the engine takes at each arrival, by id."""
    sets = {}
    real = simulation.conflict_sets_for

    def recording(vehicle, *args):
        sets[vehicle.id] = real(vehicle, *args)
        return sets[vehicle.id]

    mp.setattr(simulation, "conflict_sets_for", recording)
    return sets


def v0_25_scenario():
    """The default intersection with v_0 = 25 m/s: every entrant is locked
    (``test_locked_on_entry_cover_places_as_idfst``)."""
    doc = yaml.safe_load(dump_scenario(default_intersection()))
    doc["parameters"]["v_0"] = 25.0
    return load_scenario(yaml.safe_dump(doc))


def arrive_on_nominal_approach(engine, records, rec) -> None:
    """Admit ``rec`` to an engine that does not step: the vehicles in the
    zone first move to their nominal approach positions at its entry time
    (``nominal_remaining``), the state the batch conflict sets assume."""
    nominal = nominal_remaining(records, engine.scn)
    kernel = engine.kernel
    for k in kernel.live().tolist():
        kernel.p[k] = nominal(int(kernel.rows[k]), rec.entry_time)
    engine.arrive(rec)
    engine.enter(rec.id, engine.scn.control_zone_length, rec.entry_speed)


def single_lane_scenario():
    doc = yaml.safe_load((DATA / "example1_scenario.yaml").read_text())
    doc["movements"] = [m for m in doc["movements"] if m["id"] in (3,)]
    doc["crossing_pairs"] = []
    return load_scenario(yaml.safe_dump(doc))


class TestSampleArrivals:
    def test_deterministic(self, default_cfg):
        cfg = SimConfig(scenario=default_cfg, algorithm=Algorithm.DFST,
                        n_vehicles=30, mean_headway=3.0, seed=11)
        assert sample_arrivals(cfg) == sample_arrivals(cfg)

    def test_ids_follow_arrival_order(self, default_cfg):
        cfg = SimConfig(scenario=default_cfg, algorithm=Algorithm.DFST,
                        n_vehicles=40, mean_headway=2.0, seed=5)
        records = sample_arrivals(cfg)
        assert [r.id for r in records] == list(range(1, 41))
        times = [r.entry_time for r in records]
        assert times == sorted(times)

    def test_single_lane_mean_gap(self):
        scenario = single_lane_scenario()
        cfg = SimConfig(scenario=scenario, algorithm=Algorithm.DFST,
                        n_vehicles=10_000, mean_headway=3.0, seed=123)
        records = sample_arrivals(cfg)
        gaps = np.diff([0.0] + [r.entry_time for r in records])
        assert abs(float(np.mean(gaps)) - 3.0) < 0.1

    def test_truncation_to_one(self, default_cfg):
        cfg = SimConfig(scenario=default_cfg, algorithm=Algorithm.DFST,
                        n_vehicles=1, mean_headway=3.0, seed=2)
        records = sample_arrivals(cfg)
        assert len(records) == 1 and records[0].id == 1


class TestMetrics:
    def test_evacuation_time_is_max(self):
        records = [CompletionRecord(i, 0.0, t, 1) for i, t in enumerate([10.0, 20.0, 15.0], 1)]
        assert evacuation_time(records) == 20.0
        assert evacuation_time(records[:1]) == 10.0

    def test_evacuation_time_requires_records(self):
        with pytest.raises(ContractError):
            evacuation_time([])

    def test_attd_mean(self, default_cfg):
        free = default_cfg.free_flow_time()
        assert free == pytest.approx(36.0)
        records = [
            CompletionRecord(1, 0.0, free + 2.0, 1),
            CompletionRecord(2, 1.0, 1.0 + free + 4.0, 2),
        ]
        assert attd(records, default_cfg) == pytest.approx(3.0)

    def test_attd_free_flow_is_zero(self, default_cfg):
        records = [CompletionRecord(1, 5.0, 5.0 + 36.0, 1)]
        assert attd(records, default_cfg) == pytest.approx(0.0)


class TestRun:
    def test_determinism(self, default_cfg):
        cfg = SimConfig(scenario=default_cfg, algorithm=Algorithm.MCC_GREEDY,
                        n_vehicles=15, mean_headway=3.0, seed=7, mode=Mode.ONLINE,
                        collect_trace=True)
        a, b = run(cfg), run(cfg)
        assert a.metrics == b.metrics
        assert a.trace == b.trace

    def test_single_vehicle_cannot_beat_free_flow(self, default_cfg):
        cfg = SimConfig(scenario=default_cfg, algorithm=Algorithm.IDFST,
                        n_vehicles=1, mean_headway=3.0, seed=3)
        result = run(cfg)
        rec = result.metrics.records[0]
        assert rec.t_out - rec.t_in > default_cfg.free_flow_time()

    def test_per_lane_fifo(self, default_cfg):
        cfg = SimConfig(scenario=default_cfg, algorithm=Algorithm.MCC_GREEDY,
                        n_vehicles=40, mean_headway=1.0, seed=9, mode=Mode.ONLINE)
        result = run(cfg)
        out_by_vehicle = {r.vehicle: r.t_out for r in result.metrics.records}
        lanes = {}
        for rec in result.arrivals:
            lanes.setdefault(rec.movement, []).append(rec.id)
        for members in lanes.values():
            outs = [out_by_vehicle[v] for v in members]
            assert outs == sorted(outs)

    def test_batch_equals_online_for_tree_methods(self, default_cfg):
        # incremental placement sees the same conflict sets at this load
        for alg in (Algorithm.DFST, Algorithm.IDFST):
            res = {}
            for mode in (Mode.BATCH, Mode.ONLINE):
                cfg = SimConfig(scenario=default_cfg, algorithm=alg, n_vehicles=20,
                                mean_headway=3.0, seed=21, mode=mode)
                res[mode] = run(cfg)
            assert res[Mode.BATCH].depths == res[Mode.ONLINE].depths

    def test_timeout_carries_partial_results(self, default_cfg, monkeypatch):
        monkeypatch.setattr("crossflow.simulation.HORIZON", 1.0)
        cfg = SimConfig(scenario=default_cfg, algorithm=Algorithm.DFST,
                        n_vehicles=5, mean_headway=3.0, seed=1)
        with pytest.raises(SimulationTimeout) as err:
            run(cfg)
        assert err.value.records == []

    def test_brute_cap_guard(self, default_cfg):
        from crossflow.scheduling import SizeLimitError

        cfg = SimConfig(scenario=default_cfg, algorithm=Algorithm.MCC_BRUTE,
                        n_vehicles=20, mean_headway=3.0, seed=1)
        with pytest.raises(SizeLimitError):
            run(cfg)

    def test_online_brute_above_cap_rejected_up_front(self, default_cfg):
        with pytest.raises(ContractError, match="mcc-brute"):
            SimConfig(scenario=default_cfg, algorithm=Algorithm.MCC_BRUTE, n_vehicles=13,
                      mean_headway=1.0, seed=1, mode=Mode.ONLINE)
        SimConfig(scenario=default_cfg, algorithm=Algorithm.MCC_BRUTE, n_vehicles=12,
                  mean_headway=1.0, seed=1, mode=Mode.ONLINE)

    @pytest.mark.parametrize("name,value", [
        ("dt", 0.0), ("dt", -0.1), ("dt", float("nan")), ("dt", float("inf")),
        ("initial_speed", -3.0), ("initial_speed", float("nan")),
        ("initial_speed", float("inf")), ("leader_start", float("nan")),
        ("leader_start", float("inf")), ("leader_start", float("-inf")),
        ("mean_headway", float("nan")), ("mean_headway", float("inf")),
        ("seed", -1),
    ])
    def test_bad_override_rejected_up_front(self, default_cfg, name, value):
        """The scenario checks the step and entry speed, the config the leader
        start, headway and seed it will run with, instead of simulating the
        horizon and timing out, or failing in the arrival sampler."""
        if name in ("dt", "initial_speed"):
            with pytest.raises(ValidationError, match=name):
                dataclasses.replace(default_cfg, **{name: value})
            return
        base = dict(scenario=default_cfg, algorithm=Algorithm.DFST, n_vehicles=3,
                    mean_headway=3.0, seed=1)
        with pytest.raises(ContractError, match=name):
            SimConfig(**{**base, name: value})

    def test_boundary_overrides_accepted(self, default_cfg):
        scenario = dataclasses.replace(default_cfg, dt=0.05, initial_speed=0.0)
        cfg = SimConfig(scenario=scenario, algorithm=Algorithm.DFST, n_vehicles=3,
                        mean_headway=3.0, seed=1, leader_start=-100.0)
        assert {r.entry_speed for r in sample_arrivals(cfg)} == {0.0}
        assert (cfg.scenario.dt, cfg.leader_start) == (0.05, -100.0)

    def test_mcc_brute_small_run(self, default_cfg):
        cfg = SimConfig(scenario=default_cfg, algorithm=Algorithm.MCC_BRUTE,
                        n_vehicles=8, mean_headway=3.0, seed=4, mode=Mode.ONLINE)
        result = run(cfg)
        assert result.metrics.d_all >= 1


class TestMatchedSeeds:
    def test_arrivals_independent_of_algorithm(self, default_cfg):
        lists = []
        for alg in Algorithm:
            cfg = SimConfig(scenario=default_cfg, algorithm=alg, n_vehicles=25,
                            mean_headway=3.0, seed=31)
            lists.append(tuple(sample_arrivals(cfg)))
        assert len(set(lists)) == 1

    def test_mean_evacuation_ordering(self, default_cfg):
        means = {}
        for alg in (Algorithm.DFST, Algorithm.IDFST, Algorithm.MCC_GREEDY):
            values = []
            for seed in range(1, 11):
                cfg = SimConfig(scenario=default_cfg, algorithm=alg, n_vehicles=50,
                                mean_headway=3.0, seed=seed, mode=Mode.ONLINE)
                values.append(run(cfg).metrics.evacuation_time)
            means[alg] = statistics.mean(values)
        # ties between the cover and improved-tree methods resolve within one
        # integration step
        step = default_cfg.dt
        assert means[Algorithm.MCC_GREEDY] <= means[Algorithm.IDFST] + step
        assert means[Algorithm.IDFST] <= means[Algorithm.DFST]

    def test_thirty_vehicle_case_study_shape(self, default_cfg):
        """Matched arrivals, thirty vehicles: the three methods land in the
        published ballpark and keep their order (the exact realization behind
        the published 14/11/10 triple is unavailable)."""
        depths = {}
        for alg in (Algorithm.DFST, Algorithm.IDFST, Algorithm.MCC_GREEDY):
            values = []
            for seed in range(1, 6):
                cfg = SimConfig(scenario=default_cfg, algorithm=alg, n_vehicles=30,
                                mean_headway=3.0, seed=seed)
                values.append(run(cfg).metrics.d_all)
            depths[alg] = statistics.mean(values)
        assert depths[Algorithm.MCC_GREEDY] <= depths[Algorithm.IDFST] < depths[Algorithm.DFST]
        assert 10 <= depths[Algorithm.DFST] <= 24
        assert 7 <= depths[Algorithm.IDFST] <= 16
        assert 6 <= depths[Algorithm.MCC_GREEDY] <= 15

# SHA-256 pins of closed-loop outputs: every t_in/t_out (as float hex),
# depth, parent and trace row must come out bit for bit the same.  n=40,
# lambda=2, seed 1.  Captured when the kernel began summing each vehicle's
# peer terms in ascending id; the test ids leave the digest out, so a
# re-capture keeps them.
RUN_GOLDEN = [
    ("batch", "dfst", 0.0, "4237564257997d539f934af6ae8e367a44ce332538c85f139f0793638be50f1f"),
    ("batch", "dfst", 600.0, "7ecbaf47c1a86e665f29cc1156b4198857b71c1f09e40d566326aa35a44c84f7"),
    ("batch", "idfst", 0.0, "5e5d368bd34a96843be31a32776c57795890d2d71ce37fc7bedf6653bcacfe7e"),
    ("batch", "idfst", 600.0, "a3bcd20efbd456a7c6d4a359ea481bf792ea2a95e3b69ff41284761743e6ae35"),
    ("batch", "mcc-greedy", 0.0, "eabd61e0eb85f2520a4757daa5039c9ebcc45d62dca6e2cf4018347827a4145a"),
    ("batch", "mcc-greedy", 600.0, "29d4c56bc772d6e718249b595bc4d99b538993f4f97d08c4f8b456eb1fa9043b"),
    ("online", "dfst", 0.0, "4237564257997d539f934af6ae8e367a44ce332538c85f139f0793638be50f1f"),
    ("online", "dfst", 600.0, "7ecbaf47c1a86e665f29cc1156b4198857b71c1f09e40d566326aa35a44c84f7"),
    ("online", "idfst", 0.0, "5e5d368bd34a96843be31a32776c57795890d2d71ce37fc7bedf6653bcacfe7e"),
    ("online", "idfst", 600.0, "a3bcd20efbd456a7c6d4a359ea481bf792ea2a95e3b69ff41284761743e6ae35"),
    ("online", "mcc-greedy", 0.0, "dc69850f596d4d872e5b5cfdb9cf77e4e4c659b0571353ab7ef1a48ad1577628"),
    ("online", "mcc-greedy", 600.0, "f572be279b13677a8c9b583886d5f325f94a70d6b75385833f765cae2c00cade"),
]

PLATOON_GOLDEN = "33f513c40631a58760df2055b7172db35c89804269261b468bc30853f888623a"

# SHA-256 pins of online cover runs (``run_digest`` without a trace: records,
# depths and parents), captured while the engine still renumbered its
# unlocked vehicles to 1..k: they pin the exact path through
# ``_Engine.reschedule_cover``.  lambda=1, seed 1.  The n=800 pin, at fleet
# scale, was captured before the greedy cover went by twin classes.
ONLINE_COVER_GOLDEN = [
    ("mcc-greedy", 200, 600.0, "e685c5eca10c94c21f3bc497dca1a8430a856bc817fb77d077cd31a2da77d700"),
    ("mcc-greedy", 800, 600.0, "02bcabd67b22a2c7ec6494693fe77f422bf63821f36e6e3a710e248e9542c77f"),
    ("mcc-brute", 12, 0.0, "b76a3bcc22db48be340e617614ac02f58c189b0954839c93d4d3f1037f8006f4"),
]


def run_digest(result) -> str:
    h = hashlib.sha256()
    for r in result.metrics.records:
        h.update(f"{r.vehicle},{r.t_in.hex()},{r.t_out.hex()},{r.depth}\n".encode())
    h.update(repr(sorted(result.depths.items())).encode())
    h.update(repr(sorted(result.parents.items())).encode())
    for row in result.trace:
        h.update(f"{row.step},{row.vehicle},{row.p.hex()},{row.v.hex()},"
                 f"{row.u.hex()},{row.depth}\n".encode())
    return h.hexdigest()


def platoon_digest(history) -> str:
    h = hashlib.sha256()
    for sample in history:
        h.update(sample.t.hex().encode())
        for i, st in sorted(sample.states.items()):
            h.update(f"|{i},{st.remaining.hex()},{st.speed.hex()}".encode())
        for i, t in sorted(sample.crossings.items()):
            h.update(f"|{i}@{t.hex()}".encode())
        h.update(b"\n")
    return h.hexdigest()


class TestGolden:
    @pytest.mark.parametrize("mode,algorithm,leader,digest", RUN_GOLDEN,
                             ids=[f"{m}-{a}-{leader}" for m, a, leader, _ in RUN_GOLDEN])
    def test_run_bit_identical(self, default_cfg, mode, algorithm, leader, digest):
        cfg = SimConfig(scenario=default_cfg, algorithm=Algorithm(algorithm),
                        n_vehicles=40, mean_headway=2.0, seed=1, mode=Mode(mode),
                        leader_start=leader, collect_trace=True)
        result = run(cfg)
        for row in result.trace[:200] + result.trace[-200:]:
            assert [type(x) for x in row] == [int, int, float, float, float, int]
        for r in result.metrics.records:
            assert (type(r.t_in), type(r.t_out), type(r.depth)) == (float, float, int)
        assert all(type(rec.entry_time) is float for rec in result.arrivals)
        assert run_digest(result) == digest

    @pytest.mark.parametrize("algorithm,n,leader,digest", ONLINE_COVER_GOLDEN,
                             ids=[f"{a}-{n}-{leader}" for a, n, leader, _ in ONLINE_COVER_GOLDEN])
    def test_online_cover_bit_identical(self, default_cfg, algorithm, n, leader, digest):
        result = run(SimConfig(scenario=default_cfg, algorithm=Algorithm(algorithm),
                               n_vehicles=n, mean_headway=1.0, seed=1, mode=Mode.ONLINE,
                               leader_start=leader))
        assert run_digest(result) == digest

    def test_platoon_bit_identical(self, default_cfg):
        tree = idfst_schedule(build_cdg(make_sets(EXAMPLE1_SETS)))
        initial = {v: VehicleState(640.0 + 23.0 * v + 7.5 * d, 2.5 * v)
                   for v, d in sorted(tree.depth.items())}
        history = simulate_platoon(tree, default_cfg, initial, 600.0, until=150.0)
        assert len(history) == 722 and set(history[-1].crossings) == set(tree.depth)
        assert platoon_digest(history) == PLATOON_GOLDEN


@pytest.mark.parametrize("algorithm", [Algorithm.IDFST, Algorithm.MCC_GREEDY])
def test_trace_reads_the_one_stepping_path(default_cfg, algorithm):
    """Traced and untraced runs step alike: the trace only reads the state
    and the input of the step the untraced run takes."""
    cfg = SimConfig(scenario=default_cfg, algorithm=algorithm, n_vehicles=30,
                    mean_headway=1.0, seed=1, mode=Mode.ONLINE, leader_start=600.0)
    traced, plain = run(dataclasses.replace(cfg, collect_trace=True)), run(cfg)
    assert traced.trace and not plain.trace
    assert traced.metrics.records == plain.metrics.records
    assert traced.depths == plain.depths
    assert traced.parents == plain.parents


@pytest.mark.parametrize("algorithm", [Algorithm.IDFST, Algorithm.MCC_GREEDY])
def test_engine_reads_positions_off_the_kernel_rows(monkeypatch, default_cfg, algorithm):
    """At every arrival of online runs with locks (n=60, leader at the line;
    a 40 m zone locks every vehicle on entry), ``_locked`` is the zone
    members that the oracle's scalar rule (``reachability_conflict``) puts
    within the lock distance, a member past the line counting as at it (the
    engine applies the package's one rule, ``_uncatchable``, to the rows'
    positions unclamped), and so, at every re-cover, are the locks it reads
    (``locked``: the arrival's, and the entrant's own); the zone an
    arrival's conflict sets read is the members short of the line.  Members
    are the vehicles entered and not crossed: rows appended since the last
    step count, parked rows never do.  Each member's position is read off
    its own row."""
    entered, fresh, zones = [], [], []
    counts = {"fresh": 0, "locked": 0}
    real_sets, real_enter, real_step = (simulation.conflict_sets_for, _Engine.enter,
                                        _Engine.step)
    real_arrive, real_recover = _Engine.arrive, _Engine.reschedule_cover

    def members_and_positions(engine):
        in_zone = set(entered) - set(engine.crossed)
        assert set(members(engine.zone)) == in_zone
        rows = engine.kernel.rows.tolist()
        return {i: float(engine.kernel.p[rows.index(i)]) for i in in_zone}

    def check_locked(engine, found):
        positions = members_and_positions(engine)
        locked = {i for i, p in positions.items()
                  if reachability_conflict(max(p, 0.0), engine.scn)}
        assert set(members(found)) == locked
        counts["locked"] += bool(locked)

    def arrive(engine, record):
        check_locked(engine, engine._locked())
        positions = members_and_positions(engine)
        counts["fresh"] += bool(fresh)
        real_arrive(engine, record)
        assert set(members(zones.pop())) == {i for i, p in positions.items() if p > 0}

    def reschedule_cover(engine, algorithm):
        check_locked(engine, engine.locked)
        real_recover(engine, algorithm)

    def conflict_sets_for(record, zone, locked, masks):
        zones.append(zone)
        return real_sets(record, zone, locked, masks)

    def enter(engine, vehicle, remaining, speed):
        entered.append(vehicle)
        fresh.append(vehicle)
        real_enter(engine, vehicle, remaining, speed)

    def step(engine, t, step_idx):
        fresh.clear()
        real_step(engine, t, step_idx)

    monkeypatch.setattr(simulation, "conflict_sets_for", conflict_sets_for)
    for name, wrapper in (("arrive", arrive), ("reschedule_cover", reschedule_cover),
                          ("enter", enter), ("step", step)):
        monkeypatch.setattr(_Engine, name, wrapper)
    short = dataclasses.replace(default_cfg, control_zone_length=40.0)  # locked on entry
    for scn, headway in ((default_cfg, 5.0), (default_cfg, 20.0), (short, 3.0)):
        entered.clear()
        run(SimConfig(scenario=scn, algorithm=algorithm, n_vehicles=60,
                      mean_headway=headway, seed=1, mode=Mode.ONLINE))
    assert counts["fresh"] > 0 and counts["locked"] > 0, counts


class TestOnlineLocking:
    def test_locked_vehicle_keeps_depth(self, monkeypatch, ex1_scenario, ex1_records):
        """A vehicle near the stopping line is excluded from rescheduling."""
        sets = recorded_conflict_sets(monkeypatch)
        cfg = SimConfig(scenario=ex1_scenario, algorithm=Algorithm.MCC_GREEDY,
                        n_vehicles=7, mean_headway=3.0, seed=1, mode=Mode.ONLINE)
        # replay the worked example's arrival pattern through the online engine
        engine = _Engine(ex1_scenario, cfg.n_vehicles + 1, empty_tree(),
                         gains=ControllerGains(), leader_start=cfg.leader_start)
        records = ex1_records
        # drive manually: place the first six at entry states, then push one
        # deep into the zone and lock it by a seventh arrival
        for rec in records[:6]:
            engine.arrive(rec)
            engine.enter(rec.id, ex1_scenario.control_zone_length, 2.0)
            engine.reschedule_cover(Algorithm.MCC_GREEDY)
        # vehicle 1 is now 300 m from the line: uncatchable for newcomers
        k = slot_of(engine, 1)
        engine.kernel.p[k], engine.kernel.v[k] = 300.0, 10.0
        depth_before = engine.depth[1]
        rec = records[6]
        engine.arrive(rec)
        engine.enter(rec.id, ex1_scenario.control_zone_length, 2.0)
        engine.reschedule_cover(Algorithm.MCC_GREEDY)
        # locked: in the zone and within the lock distance
        assert engine.zone >> 1 & 1
        assert reachability_conflict(float(engine.kernel.p[slot_of(engine, 1)]), ex1_scenario)
        assert engine.depth[1] == depth_before
        assert 1 in members(sets[7].reachability)


@pytest.mark.parametrize("seed", range(1, 6))
def test_locked_on_entry_cover_places_as_idfst(seed):
    """With v_0 = 25 m/s on the default 900 m zone, L/v_0 = 36 s is below the
    reachability horizon L/v_max + v_max/(2 a_max) = 38.5 s: every vehicle is
    locked on entry, the cover re-layers nothing, and online mcc-greedy falls
    back to idfst's placement for every arrival."""
    scn = v0_25_scenario()
    assert _uncatchable(scn.control_zone_length, scn)
    results = {alg: run(SimConfig(scenario=scn, algorithm=alg, n_vehicles=30,
                                  mean_headway=2.0, seed=seed, mode=Mode.ONLINE))
               for alg in (Algorithm.IDFST, Algorithm.MCC_GREEDY)}
    idfst, cover = results[Algorithm.IDFST], results[Algorithm.MCC_GREEDY]
    assert cover.depths == idfst.depths
    assert cover.parents == idfst.parents
    assert ([r.t_out for r in cover.metrics.records]
            == [r.t_out for r in idfst.metrics.records])


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=80),
       st.sampled_from((1.0, 5.0)))
def test_online_conflict_masks_match_set_rule(seed, n, headway):
    """The engine's conflict masks equal the rule "one lane, or a member of the later set".

    With the leader at the line, vehicles race ahead, so gap 5 s fleets carry
    reachability members (768 over seeds 0-4 at n = 80).
    """
    scn = default_intersection()
    cfg = SimConfig(scenario=scn, algorithm=Algorithm.IDFST, n_vehicles=n,
                    mean_headway=headway, seed=seed, mode=Mode.ONLINE)
    engine = _Engine(scn, n + 1, empty_tree(), gains=ControllerGains(), leader_start=0.0)
    arrivals = sample_arrivals(cfg)
    records = {rec.id: rec for rec in arrivals}
    pending = deque(arrivals)

    def admit(t: float) -> bool:
        while pending and pending[0].entry_time <= t + 1e-9:
            rec = pending.popleft()
            engine.arrive(rec)
            engine.enter(rec.id, scn.control_zone_length, rec.entry_speed)
            engine.place_incremental(rec, Algorithm.IDFST)
        return bool(pending)

    with pytest.MonkeyPatch.context() as mp:
        sets = recorded_conflict_sets(mp)
        engine.drive(admit)
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            expected = a != b and sets_conflict(records, sets, a, b)
            assert bool(engine.conflict[a] >> b & 1) is expected


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(((30, 1.0), (60, 20.0))))
def test_online_placement_equals_batch_trees(seed, fleet):
    """With the nominal approach as the live state, placing each arrival in
    the engine gives exactly the batch dfst and idfst trees."""
    n, headway = fleet
    records, _, cdg = sampled_instance(seed, n, headway)
    scn = default_intersection()
    for algorithm, schedule in ((Algorithm.DFST, dfst_schedule),
                                (Algorithm.IDFST, idfst_schedule)):
        engine = _Engine(scn, n + 1, empty_tree(), gains=ControllerGains(), leader_start=0.0)
        for rec in records:
            arrive_on_nominal_approach(engine, records, rec)
            engine.place_incremental(rec, algorithm)
        batch = schedule(cdg)
        assert engine.depth == batch.depth
        assert engine.parent == batch.parent


class TestSimulatePlatoon:
    def test_equal_trees_drive_equal_bits(self, default_cfg):
        """One tree, its maps filled in two orders, gives one closed loop bit
        for bit: peers are summed in id order, not in the maps' order."""
        parent = {1: LEADER, 2: 1, 10: 1, 18: 1, 3: 2, 11: 2}
        depth = {1: 1, 2: 2, 10: 2, 18: 2, 3: 3, 11: 3}
        initial = {v: VehicleState(620.0 + 17.0 * v + 3.5 * depth[v], 1.0 + 0.7 * v)
                   for v in sorted(depth)}
        digests = set()
        for order in (sorted(parent), sorted(parent, reverse=True)):
            tree = SpanningTree(parent={v: parent[v] for v in order},
                                depth={v: depth[v] for v in order})
            digests.add(platoon_digest(simulate_platoon(tree, default_cfg, initial, 600.0,
                                                        until=120.0)))
        assert len(digests) == 1

    def test_initial_order_does_not_matter(self, default_cfg):
        """``initial`` in descending id order gives the history ascending
        order gives, and both match the closed loop that rebuilds a
        ``ScratchKernel`` after every crossing, bit for bit."""
        tree = idfst_schedule(build_cdg(make_sets(EXAMPLE1_SETS)))
        ascending = {v: VehicleState(640.0 + 23.0 * v + 7.5 * d, 2.5 * v)
                     for v, d in sorted(tree.depth.items())}
        descending = {v: ascending[v] for v in sorted(ascending, reverse=True)}
        want = scratch_history(tree, default_cfg, ascending, 600.0, ControllerGains(), 150.0)
        for initial in (ascending, descending):
            history = simulate_platoon(tree, default_cfg, initial, 600.0, until=150.0)
            assert platoon_digest(history) == PLATOON_GOLDEN
            assert len(history) == len(want)
            for sample, (t, states, crossings) in zip(history, want):
                assert sample.t.hex() == t.hex()
                assert {i: (st.remaining.hex(), st.speed.hex())
                        for i, st in sample.states.items()} == \
                    {i: (p.hex(), v.hex()) for i, (p, v) in states.items()}
                assert {i: x.hex() for i, x in sample.crossings.items()} == \
                    {i: x.hex() for i, x in crossings.items()}

    @pytest.mark.parametrize("initial_ids,unplaced", [((1, 2), 2), ((0, 1), 0)])
    def test_initial_state_off_the_tree_is_refused(self, default_cfg, initial_ids, unplaced):
        """An ``initial`` id the tree does not place, the leader 0 included,
        is refused before any step, with the ids named."""
        tree = SpanningTree(parent={1: LEADER}, depth={1: 1})
        initial = {v: VehicleState(700.0, 10.0) for v in initial_ids}
        with pytest.raises(ContractError, match=rf"does not place: \[{unplaced}\]$"):
            simulate_platoon(tree, default_cfg, initial, 600.0, until=10.0)

    def test_layers_cross_aligned(self, default_cfg, ex1_cdg):
        tree = idfst_schedule(ex1_cdg)
        leader_start = 700.0
        initial = {
            v: VehicleState(leader_start + default_cfg.desired_gap * d, default_cfg.platoon_speed)
            for v, d in tree.depth.items()
        }
        history = simulate_platoon(tree, default_cfg, initial, leader_start, until=200.0)
        crossings = history[-1].crossings
        assert set(crossings) == set(tree.depth)
        layers = {}
        for v, t in crossings.items():
            layers.setdefault(tree.depth[v], []).append(t)
        for d, times in layers.items():
            assert max(times) - min(times) < 1.0
        # consecutive layers are one service interval apart
        means = [statistics.mean(layers[d]) for d in sorted(layers)]
        for a, b in zip(means, means[1:]):
            assert b - a == pytest.approx(3.0, abs=0.2)

    def test_safety_gap_near_line_with_binding_leader(self, default_cfg):
        """Conflicting vehicles near the line stay half a design gap apart.

        The leader starts far enough back that every slot is reachable and
        vehicles have settled before their layer crosses; in that regime the
        schedule's layer spacing is realized physically.
        """
        cfg = SimConfig(scenario=default_cfg, algorithm=Algorithm.MCC_GREEDY,
                        n_vehicles=24, mean_headway=1.0, seed=13, mode=Mode.ONLINE,
                        leader_start=600.0,
                        collect_trace=True)
        result = run(cfg)
        sets_by_id = {}
        from crossflow.conflicts import build_conflict_sets

        for cs in build_conflict_sets(result.arrivals, default_cfg):
            sets_by_id[cs.vehicle] = cs

        def conflicting(a, b):
            lo, hi = (a, b) if a < b else (b, a)
            cs = sets_by_id[hi]
            return lo in members(cs.crossing | cs.diverging | cs.converging | cs.reachability)

        by_step = {}
        for row in result.trace:
            by_step.setdefault(row.step, []).append(row)
        gap = default_cfg.desired_gap
        for rows in by_step.values():
            near = [r for r in rows if 0.0 <= r.p <= gap]
            for i in range(len(near)):
                for j in range(i + 1, len(near)):
                    a, b = near[i], near[j]
                    if a.depth == b.depth or not conflicting(a.vehicle, b.vehicle):
                        continue
                    assert abs(a.p - b.p) >= 0.5 * gap


@pytest.mark.parametrize("algorithm,n", [(Algorithm.MCC_GREEDY, 60), (Algorithm.MCC_BRUTE, 12)])
@pytest.mark.parametrize("headway", [1.0, 20.0])
@pytest.mark.parametrize("leader_start", [0.0, 600.0])
def test_online_covers_always_order(monkeypatch, algorithm, n, headway, leader_start):
    """Online, every cover over the unlocked vehicles orders, so the engine
    needs no fallback: an uncatchable predecessor is already locked, and the
    conflicts left among unlocked vehicles are alike for every vehicle of a
    lane."""
    calls = []

    def cover_layers(*args, **kwargs):
        layers = _cover_layers(*args, **kwargs)
        assert layers is not None
        calls.append(len(layers))
        return layers

    monkeypatch.setattr("crossflow.simulation._cover_layers", cover_layers)
    run(SimConfig(scenario=default_intersection(), algorithm=algorithm, n_vehicles=n,
                  mean_headway=headway, seed=1, mode=Mode.ONLINE, leader_start=leader_start))
    assert calls


@pytest.mark.parametrize("n", [20, 60])
def test_locked_arrivals_keep_the_trees_index(monkeypatch, n):
    """In a 40 m zone every arrival is locked on entry, so no reschedule lays
    anything and each arrival is placed by the trees' step: the step's index
    is built once per run, not once per arrival."""
    builds, indexes = [], []

    class CountedTree(_GrowingTree):
        def __init__(self, tree):
            builds.append(len(tree.depth))
            super().__init__(tree)

        def index(self):
            indexes.append(len(self.tree.depth))
            super().index()

    monkeypatch.setattr("crossflow.simulation._GrowingTree", CountedTree)
    scn = dataclasses.replace(default_intersection(), control_zone_length=40.0)
    result = run(SimConfig(scenario=scn, algorithm=Algorithm.MCC_GREEDY, n_vehicles=n,
                           mean_headway=3.0, seed=1, mode=Mode.ONLINE))
    assert len(result.depths) == n
    assert builds == [0]
    assert indexes == [0]


@pytest.mark.parametrize("locked,headway,leader_start",
                         [(False, 1.0, 0.0), (False, 1.0, 600.0), (False, 20.0, 0.0),
                          (False, 20.0, 600.0), (True, 1.0, 0.0)])
def test_trees_index_follows_every_event(monkeypatch, locked, headway, leader_start):
    """After every re-cover and every placement of an online mcc-greedy run
    (n = 60), the engine's one tree index holds the per-depth bitsets and
    the placed bitset that an index built afresh from its tree holds; and
    its exchangeable bitsets are the arrivals' exchangeable sets taken both
    ways."""
    sets = recorded_conflict_sets(monkeypatch)
    events, engines = Counter(), set()

    def checked(name):
        real = getattr(_Engine, name)

        def call(engine, *args):
            real(engine, *args)
            events[name] += 1
            engines.add(engine)
            fresh = _GrowingTree(engine.growing.tree)
            assert engine.growing.layers == fresh.layers
            assert engine.growing.placed == fresh.placed

        monkeypatch.setattr(_Engine, name, call)

    checked("reschedule_cover")
    checked("place_incremental")
    scn = v0_25_scenario() if locked else default_intersection()
    run(SimConfig(scenario=scn, algorithm=Algorithm.MCC_GREEDY, n_vehicles=60,
                  mean_headway=headway, seed=1, mode=Mode.ONLINE, leader_start=leader_start))
    assert events["reschedule_cover"] == 60
    assert events["place_incremental"] == (60 if locked else 0)
    (engine,) = engines
    closure = both_ways({v: cs.exchangeable for v, cs in sets.items()})
    assert engine.exchangeable == [closure.get(v, 0) for v in range(61)]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from(((12, 1.0), (40, 1.0), (40, 20.0))), st.data())
def test_pool_cover_route_matches_renumbered_route(seed, fleet, data):
    """The cover route on a pool over the vehicles' own ids gives what the
    pool renumbered 1..k gives: the greedy cover of the vehicle-by-vehicle
    first fit, and the route's layers, greedy and, on pools of at most 12,
    exact.  Pools are random
    subsets of a sampled fleet, read against the engine's conflict bitsets
    and each movement's vehicles as the lanes (gap 20 s fleets carry
    reachability conflicts, so some covers do not order and both routes give
    None)."""
    n, headway = fleet
    records, _, _ = sampled_instance(seed, n, headway)
    scn = default_intersection()
    engine = _Engine(scn, n + 1, empty_tree(), gains=ControllerGains(), leader_start=0.0)
    for rec in records:
        arrive_on_nominal_approach(engine, records, rec)
    pool = bitset(data.draw(st.sets(st.integers(min_value=1, max_value=n))))
    by_movement: dict[int, int] = {}
    for rec in records:
        by_movement[rec.movement] = by_movement.get(rec.movement, 0) | 1 << rec.id
    lanes = [lane for _, lane in sorted(by_movement.items())]
    cug = CoexistenceGraph(pool=pool, conflict=engine.conflict, lanes=lanes)
    assert list(mcc_greedy(cug).subsets) == renumbered_greedy_cover(pool, engine.conflict)
    for exact in (False, True) if pool.bit_count() <= 12 else (False,):
        assert (_cover_layers(cug, exact)
                == renumbered_cover_layers(pool, engine.conflict, lanes, exact))


def test_online_greedy_covers_match_first_fit(monkeypatch, default_cfg):
    """Every re-cover pool of an online mcc-greedy run (n = 200, gap 1 s,
    leader at 600 m), twin-classed by construction, takes the cover of the
    vehicle-by-vehicle first fit."""
    pools = []

    def cover_layers(cug, exact):
        pools.append((cug.pool, list(cug.conflict), mcc_greedy(cug).subsets))
        return _cover_layers(cug, exact)

    monkeypatch.setattr(simulation, "_cover_layers", cover_layers)
    run(SimConfig(scenario=default_cfg, algorithm=Algorithm.MCC_GREEDY, n_vehicles=200,
                  mean_headway=1.0, seed=1, mode=Mode.ONLINE, leader_start=600.0))
    assert len(pools) == 200
    for pool, conflict, subsets in pools:
        assert list(subsets) == renumbered_greedy_cover(pool, conflict)


@pytest.mark.parametrize("headway", [1.0, 3.0])
def test_recover_that_moves_nothing_keeps_the_links(monkeypatch, default_cfg, headway):
    """A re-cover that leaves every vehicle placed before at its parent and
    depth does not relink the kernel; the entrant links as a fresh row at
    the next step.  Every step's inputs, positions and speeds are, bit for
    bit, those of a run whose kernel relinks after every re-cover."""
    cfg = SimConfig(scenario=default_cfg, algorithm=Algorithm.MCC_GREEDY, n_vehicles=60,
                    mean_headway=headway, seed=1, mode=Mode.ONLINE, leader_start=600.0,
                    collect_trace=True)
    real_recover, real_relink = _Engine.reschedule_cover, PlatoonKernel.relink
    counts = {"relinks": 0, "skips": 0}

    def relink(kernel):
        counts["relinks"] += 1
        real_relink(kernel)

    def reschedule_cover(engine, algorithm):
        before = counts["relinks"]
        real_recover(engine, algorithm)
        counts["skips"] += bool(engine.zone & ~engine.locked) and counts["relinks"] == before

    monkeypatch.setattr(PlatoonKernel, "relink", relink)
    monkeypatch.setattr(_Engine, "reschedule_cover", reschedule_cover)
    skipping = run(cfg)
    assert counts["skips"] > 0 and counts["relinks"] > 0, counts

    def relinking_cover(engine, algorithm):
        real_recover(engine, algorithm)
        engine.kernel.relink()

    monkeypatch.setattr(_Engine, "reschedule_cover", relinking_cover)
    relinking = run(cfg)
    assert len(skipping.trace) == len(relinking.trace)
    assert run_digest(skipping) == run_digest(relinking)
