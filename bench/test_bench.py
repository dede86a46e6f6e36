"""Tests of the benchmark's own helpers.  Run: python3 -m pytest bench -q"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import crossflow  # noqa: E402
import crossflow.cli  # noqa: E402
from crossflow.conflicts import VehicleRecord  # noqa: E402
from crossflow.scenario import default_intersection  # noqa: E402
from crossflow.scheduling import RepairError  # noqa: E402
from crossflow.simulation import CompletionRecord  # noqa: E402

import workloads  # noqa: E402
from tracer import LAYERS, ROOT, Span, Tracer, self_times  # noqa: E402


def _arrival(vehicle, movement):
    return VehicleRecord(id=vehicle, movement=movement, entry_time=float(vehicle), entry_speed=2.0)


def _done(vehicle, t_out):
    return CompletionRecord(vehicle=vehicle, t_in=float(vehicle), t_out=t_out, depth=1)


def test_conflict_gap_counts_only_conflicting_pairs():
    cfg = default_intersection()
    table = workloads.conflicting_movements(cfg)
    ids = cfg.movement_ids
    free_a, free_b = next((a, b) for a in ids for b in ids if a != b and (a, b) not in table)
    crossing_a, crossing_b = next((a, b) for a in ids for b in ids
                                  if a != b and (a, b) in table)
    arrivals = [_arrival(1, free_a), _arrival(2, free_b),
                _arrival(3, crossing_a), _arrival(4, crossing_b), _arrival(5, crossing_a)]
    records = [_done(1, 100.0), _done(2, 100.0),  # coexisting pair, gap 0 is allowed
               _done(3, 110.0), _done(4, 113.5),  # conflicting pair, gap 3.5
               _done(5, 120.0)]  # same movement as vehicle 3, gap 10
    # vehicles 1 and 2 are at least 10 s from 3, 4 and 5, whatever their classes
    assert workloads.conflict_gap_min(records, arrivals, cfg) == 3.5


def test_conflict_gap_same_movement_conflicts():
    cfg = default_intersection()
    m = cfg.movement_ids[0]
    arrivals = [_arrival(1, m), _arrival(2, m)]
    assert workloads.conflict_gap_min([_done(1, 50.0), _done(2, 50.25)], arrivals, cfg) == 0.25


def test_self_time_subtracts_direct_children_and_rollups():
    spans = [
        Span(1, "simulation.run", 0.0, 10.0, ROOT, 0, None),
        Span(2, "scheduling.mcc_greedy", 1.0, 4.0, 1, 0, None),
        Span(3, "scheduling.order_layers", 5.0, 6.0, 1, 0, None),
    ]
    rollups = {(2, "conflicts.CoexistenceGraph.adjacent"): [5, 1.0],
               (1, "control.control_input"): [100, 2.5]}
    selfs = self_times(spans, rollups)
    assert selfs["simulation.run"] == 10.0 - 3.0 - 1.0 - 2.5
    assert selfs["scheduling.mcc_greedy"] == 3.0 - 1.0
    assert selfs["scheduling.order_layers"] == 1.0
    assert selfs["conflicts.CoexistenceGraph.adjacent"] == 1.0
    assert selfs["control.control_input"] == 2.5
    assert sum(selfs.values()) == 10.0


def _job(name, work, check=lambda result: workloads.Outcome(rows=[])):
    return workloads.Job(name=name, vehicles=7, key={"seed": 1, "n": 7}, algorithms=("a", "b"),
                         work=work, check=check)


def test_failures_are_counted_by_class_and_do_not_abort():
    def refuse():
        raise RepairError("no ordering")

    def crash():
        raise ValueError("defect")

    def bad_output(result):
        raise workloads.CheckError("tree infeasible")

    jobs = [_job("refused", refuse), _job("checked", lambda: 1, bad_output),
            _job("crashed", crash),
            _job("ok", lambda: 2, lambda r: workloads.Outcome(rows=[{"algorithm": "a"}],
                                                              depths=[r]))]
    tally = workloads.execute(jobs)
    assert (tally.attempted, tally.failed, tally.vehicles_ok) == (4, 3, 7)
    assert dict(tally.by_class) == {"RepairError": 1, "check": 1, "ValueError": 1}
    assert tally.defects == 2  # the refusal is documented behaviour, the others are not
    assert tally.depths == [2]
    assert {"seed": 1, "n": 7, "algorithm": "b", "d_all": "RepairError"} in tally.rows
    assert any("tree infeasible" in r for r in tally.reasons)


def test_tracer_wraps_calls_between_modules_and_restores_them():
    modules = {layer: getattr(crossflow, layer) for layer in LAYERS}
    original = crossflow.scheduling.mcc_greedy
    cfg = default_intersection()
    jobs = workloads.build_jobs("batch-search", 1, 0.05, cfg)[-1:]  # one exact-cover job
    tracer = Tracer()
    tracer.install(crossflow, modules)
    try:
        assert crossflow.scheduling.mcc_greedy is not original
        tally = workloads.execute(jobs, tracer)
    finally:
        tracer.restore()
    assert crossflow.scheduling.mcc_greedy is original
    assert tally.failed == 0
    by_id = {s.id: s for s in tracer.spans}
    # minimum_clique_covers calls mcc_greedy through its module global
    nested = [s for s in tracer.spans if s.name == "scheduling.mcc_greedy"
              and by_id[s.parent].name == "scheduling.minimum_clique_covers"]
    assert nested and all(s.job == 0 for s in tracer.spans)
    calls, _ = tracer.totals()["conflicts.CoexistenceGraph.adjacent"]
    assert calls > 0
    # the checks ran paused: no span outside the job's own calls
    assert not any(s.name == "scheduling.mcc_greedy" and s.parent == ROOT
                   for s in tracer.spans)


def test_passes_count_jobs_once_and_flag_rows_that_change():
    draws = iter(range(100))

    def varying(result):
        return workloads.Outcome(rows=[{"algorithm": "a", "d_all": next(draws)}])

    steady = _job("steady", lambda: 1, lambda r: workloads.Outcome(rows=[{"d_all": r}]))
    tally = workloads.execute([steady, _job("crashed", lambda: 1 / 0)], passes=3)
    assert (tally.attempted, tally.failed, tally.unrepeatable) == (2, 1, 0)
    assert len(tally.job_seconds) == 2
    assert workloads.execute([_job("varying", lambda: 1, varying)], passes=3).unrepeatable == 2
