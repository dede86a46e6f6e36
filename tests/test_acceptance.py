"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all;
failures always show theirs).  One check is known red: the travel-delay
reduction band (6b) is published data from a simulation set-up that this
model does not reproduce; its docstring gives the measured cause and
CHANGES.md the full account.
"""

import csv
import statistics
import time
from collections import defaultdict

import numpy as np
import pytest

from crossflow.conflicts import build_cdg, build_conflict_sets, build_cug
from crossflow.control import ControllerGains, VehicleState
from crossflow.scheduling import (
    CliqueCover,
    dfst_schedule,
    idfst_schedule,
    mcc_bruteforce,
    mcc_greedy,
    schedule_cover_tree,
    verify_feasible,
)
from crossflow.simulation import (
    Algorithm,
    Mode,
    SimConfig,
    run,
    sample_arrivals,
    simulate_platoon,
)
from crossflow.cli import run_cli

from .instances import random_instance
from .oracles import (bitset, canonical_cover, cover_to_tree, min_feasible_depth,
                      minimum_clique_covers, shallowest_admissible_layer)
from .test_scheduling import EXAMPLE1_MIN_COVERS, published_partial_tree

# Layer gate: vehicles enter far enough behind the virtual leader that every
# slot is kinematically reachable; the service structure then binds from the
# first layer.  Used by the sustained-load checks.
BINDING_LEADER = 600.0


def report(criterion: str, ok: bool, detail: str = "") -> None:
    tail = f"  ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01a_baseline_tree_golden(ex1_cdg):
    start = time.perf_counter()
    tree = dfst_schedule(ex1_cdg)
    ok = tree.depth[7] == 6 and tree.d_all == 6
    elapsed = time.perf_counter() - start
    report("1a baseline tree on the worked example", ok and elapsed < 1.0,
           f"d_7={tree.depth[7]}, d_all={tree.d_all}, {elapsed:.3f}s")


def test_criterion_01b_improved_tree_published_table(ex1_cdg):
    """The improved tree on the worked example, checked against the table.

    Each vehicle takes the shallowest admissible layer given the vehicles
    placed before it: same-lane and reachability parents are floors, while
    crossing and converging parents are order-exchangeable and only exclude
    their own layers.  The published table agrees for vehicles 1-4 but
    leaves vehicle 5 at layer 4 although layer 2 is open (its only conflict
    parents are 2 at layer 1 and 4 at layer 3, and it coexists with 3).  The
    table follows only from a rule that floors vehicles below their crossing
    parents, and that rule puts criterion 5's mean depth at 5.35, outside
    its band; see CHANGES.md.  So the table is kept as checked data and its
    vehicle 5 row is asserted to depart from the rule.
    """
    tree = idfst_schedule(ex1_cdg)
    published = published_partial_tree(7)
    vehicles = range(1, 8)
    rule = [shallowest_admissible_layer(ex1_cdg, i, {j: tree.depth[j] for j in range(1, i)})
            for i in vehicles]
    depths = [tree.depth[i] for i in vehicles]
    head = range(1, 5)
    head_agrees = (all(tree.parent[i] == published.parent[i] for i in head)
                   and all(tree.depth[i] == published.depth[i] for i in head))
    table_v5_rule = shallowest_admissible_layer(
        ex1_cdg, 5, {j: published.depth[j] for j in head})
    feasible = verify_feasible(tree, ex1_cdg).ok
    optimum = min_feasible_depth(ex1_cdg)
    baseline = dfst_schedule(ex1_cdg).d_all
    ok = (depths == rule and feasible
          and tree.d_all == optimum < baseline
          and head_agrees
          and published.depth[5] == 4 and table_v5_rule == 2)
    report("1b improved tree against the worked table", ok,
           f"depths={depths} vs rule {rule}, feasible={feasible}, "
           f"d_all={tree.d_all} (optimum {optimum}, baseline {baseline}), "
           f"vehicles 1-4 as published={head_agrees}, "
           f"table vehicle 5 at {published.depth[5]} vs admissible {table_v5_rule}")


def test_criterion_01c_exact_cover_solutions(ex1_cug):
    start = time.perf_counter()
    covers = minimum_clique_covers(ex1_cug)
    thetas = {c.theta for c in covers}
    canon = {canonical_cover(c.subsets) for c in covers}
    elapsed = time.perf_counter() - start
    ok = thetas == {4} and canon == EXAMPLE1_MIN_COVERS and elapsed < 1.0
    report("1c exact cover count and solution set", ok,
           f"theta={sorted(thetas)}, solutions={len(canon)}, {elapsed:.3f}s")


def test_criterion_02_cover_repair(ex1_cdg):
    cover = CliqueCover(subsets=(bitset({1, 3, 6}), bitset({4, 7}), bitset({2}), bitset({5})))
    tree = cover_to_tree(cover, ex1_cdg)
    feasible = verify_feasible(tree, ex1_cdg).ok
    ok = (tree.layers() == [[1, 3, 5], [4, 7], [2], [6]]
          and tree.d_all == 4 and feasible)
    report("2 lane-order repair of an infeasible cover", ok,
           f"layers={tree.layers()}, feasible={feasible}")


def test_criterion_03_oracle_dominance():
    start = time.perf_counter()
    violations = []
    for seed in range(500):
        _, _, cdg = random_instance(seed, n_low=4, n_high=9)
        cug = build_cug(cdg)
        theta = mcc_bruteforce(cug).theta
        greedy = mcc_greedy(cug)
        trees = {
            "dfst": dfst_schedule(cdg),
            "idfst": idfst_schedule(cdg),
            "greedy": schedule_cover_tree(cug, cdg, exact=False),
            "brute": schedule_cover_tree(cug, cdg, exact=True),
        }
        for name, tree in trees.items():
            if not verify_feasible(tree, cdg).ok:
                violations.append((seed, f"{name} infeasible"))
        if theta > greedy.theta:
            violations.append((seed, "exact above greedy"))
        if trees["brute"].d_all != theta:
            violations.append((seed, "exact tree misses its cover size"))
        if not (theta <= trees["idfst"].d_all <= trees["dfst"].d_all):
            violations.append((seed, "depth ordering broken"))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 120.0
    report("3 oracle dominance over 500 instances", ok,
           f"violations={violations[:3]}, {elapsed:.1f}s")


def test_criterion_04_reduction_equivalence():
    start = time.perf_counter()
    violations = []
    for seed in range(100):
        _, _, cdg = random_instance(seed, n_low=2, n_high=7)
        cug = build_cug(cdg)
        oracle = min_feasible_depth(cdg)
        theta = mcc_bruteforce(cug).theta
        if oracle != theta:
            violations.append((seed, oracle, theta))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 300.0
    report("4 minimum tree depth equals exact cover size", ok,
           f"violations={violations[:3]}, {elapsed:.1f}s")


def test_criterion_05_small_fleet_statistics(default_cfg):
    start = time.perf_counter()
    means = {k: [] for k in ("brute", "greedy", "idfst", "dfst")}
    for rep in range(200):
        cfg = SimConfig(scenario=default_cfg, algorithm=Algorithm.DFST,
                        n_vehicles=9, mean_headway=3.0, seed=1000 + rep)
        records = sample_arrivals(cfg)
        sets = build_conflict_sets(records, default_cfg)
        cdg = build_cdg(sets)
        cug = build_cug(cdg)
        means["brute"].append(mcc_bruteforce(cug).theta)
        means["greedy"].append(mcc_greedy(cug).theta)
        means["idfst"].append(idfst_schedule(cdg).d_all)
        means["dfst"].append(dfst_schedule(cdg).d_all)
    avg = {k: statistics.mean(v) for k, v in means.items()}
    elapsed = time.perf_counter() - start
    ordering = avg["brute"] <= avg["greedy"] <= avg["idfst"] <= avg["dfst"]
    gap = avg["greedy"] - avg["brute"]
    in_band = all(3.8 <= avg[k] <= 4.4 for k in ("brute", "greedy", "idfst"))
    ok = ordering and gap <= 0.1 and in_band and elapsed < 300.0
    report("5 small-fleet depth statistics", ok,
           f"means={{brute: {avg['brute']:.3f}, greedy: {avg['greedy']:.3f}, "
           f"idfst: {avg['idfst']:.3f}, dfst: {avg['dfst']:.3f}}}, gap={gap:.3f}, "
           f"{elapsed:.1f}s")


def _efficiency_experiment(default_cfg):
    rows = {a: {"evc": [], "attd": []} for a in
            (Algorithm.DFST, Algorithm.IDFST, Algorithm.MCC_GREEDY)}
    for seed in range(1, 11):
        for alg in rows:
            cfg = SimConfig(scenario=default_cfg, algorithm=alg, n_vehicles=50,
                            mean_headway=3.0, seed=seed, mode=Mode.ONLINE)
            metrics = run(cfg).metrics
            rows[alg]["evc"].append(metrics.evacuation_time)
            rows[alg]["attd"].append(metrics.attd)
    return {a: {k: statistics.mean(v) for k, v in d.items()} for a, d in rows.items()}


@pytest.fixture(scope="module")
def efficiency(default_cfg):
    start = time.perf_counter()
    means = _efficiency_experiment(default_cfg)
    means["elapsed"] = time.perf_counter() - start
    return means


def test_criterion_06a_evacuation_time(efficiency):
    base = efficiency[Algorithm.DFST]["evc"]
    improved = efficiency[Algorithm.IDFST]["evc"]
    cover = efficiency[Algorithm.MCC_GREEDY]["evc"]
    red_i = 100.0 * (base - improved) / base
    red_c = 100.0 * (base - cover) / base
    ok = (
        abs(base - 69.9) <= 0.15 * 69.9
        and abs(improved - 46.2) <= 0.15 * 46.2
        and abs(cover - 46.05) <= 0.15 * 46.05
        and 23.0 <= red_i <= 43.0
        and 23.0 <= red_c <= 43.0
        and efficiency["elapsed"] < 600.0
    )
    report("6a evacuation time levels and reductions", ok,
           f"t_evc={base:.1f}/{improved:.1f}/{cover:.1f}s, "
           f"reductions={red_i:.1f}%/{red_c:.1f}%, {efficiency['elapsed']:.1f}s")


def test_criterion_06b_travel_delay_reduction(efficiency):
    """Known red: the band is published data from a simulation set-up (the
    virtual leader's start in the online runs, the free-flow reference of
    the delay) that this model does not reproduce, so the repository cannot
    say which side is wrong.

    Measured over this fixture (n=50, mean gap 3 s, online, seeds 1-10):
    at the default leader start of 0 m the mean delays of the baseline,
    improved tree and greedy cover are 7.04 / 2.25 / 2.47 s, reductions of
    68.0 / 64.9 percent.  The improved tree and the cover sit within 0.35 s
    of the kinematic floor of 2.12 s (entering at 2 m/s, a vehicle needs
    38.12 s for the zone against 36 s of free flow): the early layer slots
    are unreachable, vehicles chase them at the speed limit, and the least
    crossing gap between conflicting vehicles is 0.00 s for all three.
    Moving the leader start gives reductions of 66.5 / 66.6 percent at
    300 m, 33.8 / 35.6 at 600 m and 21.9 / 23.1 at 900 m; the last is in
    band, but its evacuation times of 165.9 / 136.2 / 136.2 s break 6a.
    See CHANGES.md.
    """
    base = efficiency[Algorithm.DFST]["attd"]
    red_i = 100.0 * (base - efficiency[Algorithm.IDFST]["attd"]) / base
    red_c = 100.0 * (base - efficiency[Algorithm.MCC_GREEDY]["attd"]) / base
    ok = 8.0 <= red_i <= 28.0 and 8.0 <= red_c <= 28.0
    report("6b travel delay reduction band", ok,
           f"attd reductions={red_i:.1f}%/{red_c:.1f}% vs 18%+-10pp")


def test_criterion_07_controller_convergence(default_cfg, ex1_cdg):
    start = time.perf_counter()
    tree = idfst_schedule(ex1_cdg)
    gains = ControllerGains(k_p=0.1, k_v=0.3)
    leader_start = 700.0
    failures = []
    rng = np.random.default_rng(2024)
    for trial in range(50):
        initial = {}
        for v, d in tree.depth.items():
            dp = rng.uniform(-20.0, 20.0)
            dv = rng.uniform(-3.0, 3.0)
            initial[v] = VehicleState(
                leader_start + default_cfg.desired_gap * d + dp,
                default_cfg.platoon_speed + dv,
            )
        history = simulate_platoon(tree, default_cfg, initial, leader_start,
                                   gains=gains, until=200.0)
        converged_at = None
        for sample in history:
            if sample.crossings:
                break
            leader_rem = leader_start - default_cfg.platoon_speed * sample.t
            errs_p = [abs(s.remaining - (leader_rem + default_cfg.desired_gap * tree.depth[v]))
                      for v, s in sample.states.items()]
            errs_v = [abs(s.speed - default_cfg.platoon_speed)
                      for s in sample.states.values()]
            if max(errs_p) < 0.1 and max(errs_v) < 0.1:
                converged_at = sample.t
                break
        if converged_at is None or converged_at > 120.0:
            failures.append((trial, "no convergence within 120 s"))
            continue
        crossings = history[-1].crossings
        if set(crossings) != set(tree.depth):
            failures.append((trial, "not all vehicles crossed"))
            continue
        by_layer = defaultdict(list)
        for v, t in crossings.items():
            by_layer[tree.depth[v]].append(t)
        if any(max(ts) - min(ts) >= 1.0 for ts in by_layer.values()):
            failures.append((trial, "layer crossing spread over 1 s"))
            continue
        for sample in history:
            for s in sample.states.values():
                if not (0.0 <= s.speed <= default_cfg.v_max + 1e-9):
                    failures.append((trial, "speed bound violated"))
                    break
    elapsed = time.perf_counter() - start
    ok = not failures
    report("7 controller convergence over 50 perturbed trials", ok,
           f"failures={failures[:3]}, {elapsed:.1f}s")


def test_criterion_08a_service_interval(default_cfg):
    start = time.perf_counter()
    cfg = SimConfig(scenario=default_cfg, algorithm=Algorithm.MCC_GREEDY,
                    n_vehicles=60, mean_headway=1.0, seed=3, mode=Mode.ONLINE,
                    leader_start=BINDING_LEADER)
    result = run(cfg)
    by_layer = defaultdict(list)
    for rec in result.metrics.records:
        by_layer[rec.depth].append(rec.t_out)
    times = [statistics.mean(by_layer[d]) for d in sorted(by_layer)]
    gaps = [b - a for a, b in zip(times, times[1:])]
    mean_gap = statistics.mean(gaps)
    elapsed = time.perf_counter() - start
    ok = 0.95 * 3.0 <= mean_gap <= 1.05 * 3.0
    report("8a sustained-load service interval", ok,
           f"mean layer gap={mean_gap:.3f}s over {len(gaps)} layer steps, {elapsed:.1f}s")


def test_criterion_08b_cover_advantage_when_crowded(default_cfg):
    """At mean gaps under the 3 s service interval the queue binds and the
    cover methods' shallower layering pays off; at larger gaps vehicles
    cross near free flow and the methods tie.
    """
    start = time.perf_counter()
    means = {}
    for headway in (1.0, 2.0, 3.0, 4.0, 5.0):
        for alg in (Algorithm.IDFST, Algorithm.MCC_GREEDY):
            evc = []
            for seed in range(1, 11):
                cfg = SimConfig(scenario=default_cfg, algorithm=alg, n_vehicles=60,
                                mean_headway=headway, seed=seed, mode=Mode.ONLINE)
                evc.append(run(cfg).metrics.evacuation_time)
            means[(headway, alg)] = statistics.mean(evc)
    elapsed = time.perf_counter() - start
    curve = {h: (means[(h, Algorithm.IDFST)], means[(h, Algorithm.MCC_GREEDY)])
             for h in (1.0, 2.0, 3.0, 4.0, 5.0)}
    ok = all(means[(h, Algorithm.MCC_GREEDY)] <= means[(h, Algorithm.IDFST)]
             for h in (1.0, 2.0))
    detail = ", ".join(f"h={h}: idfst {a:.1f} vs mcc {b:.1f}" for h, (a, b) in curve.items())
    report("8b cover advantage at low headways", ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_09_determinism(tmp_path):
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.csv"
        trace = tmp_path / f"{name}_trace.csv"
        code = run_cli(["run", "--vehicles", "25", "--lambda", "2", "--seed", "17",
                        "--algorithm", "mcc-greedy", "--mode", "online",
                        "--out", str(out), "--trace", str(trace)])
        assert code == 0
        outputs.append(out.read_bytes() + trace.read_bytes())
    ok = outputs[0] == outputs[1]
    report("9 byte-identical reruns", ok, f"{len(outputs[0])} bytes compared")
