"""crossflow benchmark: one workload, end to end or traced layer by layer.

    python3 bench/run.py --workload online-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it runs the same job list once untraced and once
with every public function of the package wrapped, and reports the per-layer
metrics.  Human-readable lines come first, the last line of standard output
is one JSON object.  Result rows, the full report and (traced) the spans are
written to ``bench/out``.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

PASSES = 4  # passes over the job list in an end-to-end run
SETUP_PER_PASS = 3  # set-up probes before each pass
LOAD_REPEATS = 5
# CPU seconds the fresh interpreter has used, start-up included, once the
# package is imported and the default intersection built
SETUP_PROBE = (
    "import time\n"
    "import crossflow\n"
    "crossflow.default_intersection()\n"
    "print(time.process_time(), crossflow.__file__)\n"
)

END_TO_END_UNITS = {
    "veh_per_s": "veh/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "d_all_mean": "layers",
}


def _import_package():
    """Import crossflow from this checkout's source tree, and nowhere else."""
    if not (SRC / "crossflow" / "__init__.py").is_file():
        raise SystemExit(f"bench: no crossflow sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import crossflow
    import crossflow.cli

    if Path(crossflow.__file__).resolve().parent != SRC / "crossflow":
        raise SystemExit(f"bench: imported crossflow from {crossflow.__file__}, not {SRC}")
    return crossflow


def setup_probe() -> float:
    """CPU seconds a fresh interpreter takes to import crossflow and build
    the default intersection."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    seconds, path = proc.stdout.split()
    if Path(path).resolve().parent != SRC / "crossflow":
        raise SystemExit(f"bench: set-up probe imported crossflow from {path}")
    return float(seconds)


def digest_rows(rows: list[dict], cli) -> tuple[str, str]:
    """CSV text of the result rows as written by the CLI, and its SHA-256."""
    buf = io.StringIO()
    cli.write_results(rows, buf, "csv")
    text = buf.getvalue()
    return text, hashlib.sha256(text.encode()).hexdigest()


def end_to_end(tally, setup_s: float) -> dict[str, float]:
    return {
        "veh_per_s": tally.vehicles_ok / tally.seconds,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "d_all_mean": tally.d_all_mean,
    }


def workload_results(tally) -> dict[str, tuple[float, str]]:
    """Result metrics of the paper's experiments, printed for the reader.

    fail_frac is zero on most workloads and the simulated ones exist only
    where the workload simulates, so BENCHMARK.json does not list them; the
    row digest pins the simulated ones.
    """
    out = {"fail_frac": (tally.failed / tally.attempted, "1")}
    if tally.sims:
        evc, attd, gap = zip(*tally.sims)
        out["t_evc_mean_s"] = (statistics.fmean(evc), "s")
        out["t_attd_mean_s"] = (statistics.fmean(attd), "s")
        out["conflict_gap_min_s"] = (min(gap), "s")
    return out


# --- per-layer metrics ------------------------------------------------------

def _observe_cdg(cdg, counters) -> None:
    counters["conflicts.edges_lane"] += len(cdg.lane_edges)
    counters["conflicts.edges_reach"] += len(cdg.reach_edges)
    counters["conflicts.edges_crossing"] += len(cdg.crossing_edges)
    counters["conflicts.edges_converging"] += len(cdg.converging_edges)


def _observe_cug(cug, counters) -> None:
    counters["conflicts.cug_edges"] += len(cug.edges)


OBSERVERS = {"conflicts.build_cdg": _observe_cdg, "conflicts.build_cug": _observe_cug}

COVER_CALLS = ("scheduling.mcc_greedy", "scheduling.minimum_clique_covers")


def _engine_reschedules(spans) -> int:
    """Cover computations made inside a simulation run, not nested in another cover."""
    by_id = {s.id: s for s in spans}
    count = 0
    for s in spans:
        if s.name not in COVER_CALLS:
            continue
        parent = by_id.get(s.parent)
        if parent is not None and parent.name in COVER_CALLS:
            continue
        while parent is not None and parent.name != "simulation.run":
            parent = by_id.get(parent.parent)
        count += parent is not None
    return count


def per_layer(tracer, tally, untraced_s: float, traced_s: float, wall_s: float,
              load_s: float) -> dict[str, tuple[float, str]]:
    from tracer import LAYERS, layer_of, self_times

    totals = tracer.totals()

    def secs(name):
        return totals.get(name, (0, 0.0))[1]

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    selfs = self_times(tracer.spans, tracer.rollups)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, seconds in selfs.items():
        layer_self[layer_of(name)] += seconds
    run_self = selfs.get("simulation.run", 0.0)
    steps = calls("control.control_input")
    c = tracer.counters
    d_sum = sum(d for d, _ in tally.covers)
    theta_sum = sum(t for _, t in tally.covers)
    out = {
        "scenario.load_s": (load_s, "s"),
        "scenario.classify_calls": (calls("scenario.classify_conflict"), "count"),
        "scenario.classify_s": (secs("scenario.classify_conflict"), "s"),
        "conflicts.sets_s": (secs("conflicts.conflict_sets_for"), "s"),
        "conflicts.sets_calls": (calls("conflicts.conflict_sets_for"), "count"),
        "conflicts.cdg_s": (secs("conflicts.build_cdg"), "s"),
        "conflicts.cug_s": (secs("conflicts.build_cug"), "s"),
        "conflicts.connected_calls": (calls("conflicts.ConflictDirectedGraph.connected"), "count"),
        "conflicts.adjacent_calls": (calls("conflicts.CoexistenceGraph.adjacent"), "count"),
        "conflicts.edges_lane": (c["conflicts.edges_lane"], "count"),
        "conflicts.edges_reach": (c["conflicts.edges_reach"], "count"),
        "conflicts.edges_crossing": (c["conflicts.edges_crossing"], "count"),
        "conflicts.edges_converging": (c["conflicts.edges_converging"], "count"),
        "conflicts.cug_edges": (c["conflicts.cug_edges"], "count"),
        "scheduling.dfst_s": (secs("scheduling.dfst_schedule"), "s"),
        "scheduling.idfst_s": (secs("scheduling.idfst_schedule"), "s"),
        "scheduling.greedy_cover_s": (secs("scheduling.mcc_greedy"), "s"),
        "scheduling.exact_cover_s": (secs("scheduling.minimum_clique_covers"), "s"),
        "scheduling.order_layers_s": (secs("scheduling.order_layers"), "s"),
        "scheduling.order_layers_calls": (calls("scheduling.order_layers"), "count"),
        "scheduling.verify_s": (secs("scheduling.verify_feasible"), "s"),
        "scheduling.repair_errors": (tally.by_class["RepairError"], "count"),
        "scheduling.layer_inflation": (d_sum / theta_sum if theta_sum else 0.0, "ratio"),
        "scheduling.d_all_mean": (tally.d_all_mean, "layers"),
        "control.input_calls": (steps, "count"),
        "control.input_s": (secs("control.control_input"), "s"),
        "control.dynamics_s": (secs("control.step_dynamics"), "s"),
        "simulation.run_s": (secs("simulation.run"), "s"),
        "simulation.engine_self_s": (run_self, "s"),
        "simulation.arrivals_s": (secs("simulation.sample_arrivals"), "s"),
        "simulation.reschedules": (_engine_reschedules(tracer.spans), "count"),
        "simulation.sim_s": (sum(evc for evc, _, _ in tally.sims), "s"),
        "simulation.host_us_per_vehicle_step": (
            secs("simulation.run") * 1e6 / steps if steps else 0.0, "us"),
        "cli.write_s": (secs("cli.write_results"), "s"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
        "trace.wall_s": (wall_s, "s"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layer_self[layer], "s")
    return out


# --- runs ---------------------------------------------------------------------

def run_end_to_end(crossflow, jobs):
    import workloads

    # set-up is probed before every pass so that a burst of contention
    # touches few of the samples; the first probe fills bytecode caches
    setup_probe()
    samples = []
    tally = workloads.execute(jobs, passes=PASSES, before_pass=lambda: samples.extend(
        setup_probe() for _ in range(SETUP_PER_PASS)))
    text, digest = digest_rows(tally.rows, crossflow.cli)
    metrics = {k: (v, END_TO_END_UNITS[k])
               for k, v in end_to_end(tally, statistics.median(samples)).items()}
    return tally, text, digest, metrics, [], None


def run_traced(crossflow, jobs):
    import workloads
    from tracer import LAYERS, Tracer

    untraced = workloads.execute(jobs)
    _, untraced_digest = digest_rows(untraced.rows, crossflow.cli)

    tracer = Tracer(observers=OBSERVERS)
    tracer.install(crossflow, {layer: getattr(crossflow, layer) for layer in LAYERS})
    try:
        wall_start = perf_counter()
        for _ in range(LOAD_REPEATS):
            crossflow.scenario.default_intersection()
        tally = workloads.execute(jobs, tracer)
        text, digest = digest_rows(tally.rows, crossflow.cli)
        wall_s = perf_counter() - wall_start
    finally:
        tracer.restore()
    loads = [s.end - s.start for s in tracer.spans if s.name == "scenario.default_intersection"]
    metrics = per_layer(tracer, tally, untraced.seconds, tally.seconds, wall_s,
                        statistics.median(loads))
    problems = []
    if digest != untraced_digest:
        problems.append("traced rows differ from untraced rows")
    self_sum = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
    if self_sum > wall_s:
        problems.append(f"layer self time {self_sum:.3f} s exceeds traced wall {wall_s:.3f} s")
    return tally, text, digest, metrics, problems, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    crossflow = _import_package()
    import workloads  # needs the package on the path

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    cfg = crossflow.scenario.default_intersection()
    # the job list runs PASSES times, or twice (untraced, traced) when tracing
    seconds = args.seconds / (2 if args.trace else PASSES)
    jobs = workloads.build_jobs(args.workload, args.seed, seconds, cfg)
    runner = run_traced if args.trace else run_end_to_end
    tally, text, digest, metrics, problems, tracer = runner(crossflow, jobs)

    if tally.unrepeatable:
        problems.append(f"{tally.unrepeatable} passes wrote rows different from the first")
    correct = tally.defects == 0 and not problems
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {tally.attempted}  failed {tally.failed}  job seconds {tally.seconds:.3f}")
    for name, (value, unit) in {**metrics, **workload_results(tally)}.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    print(f"  failures by class: {dict(sorted(tally.by_class.items())) or 'none'}")
    for reason in tally.reasons[:10]:
        print(f"    {reason}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    print(f"  digest sha256:{digest}")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".csv").write_text(text, encoding="utf-8")
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "digest": digest, "correct": correct,
        "attempted": tally.attempted, "failed": tally.failed,
        "failures_by_class": dict(tally.by_class), "failure_reasons": tally.reasons,
        "job_seconds": {job.name: t for job, t in zip(jobs, tally.job_seconds)},
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in {**metrics, **workload_results(tally)}.items()},
    }
    stem.with_suffix(".json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(stem.with_suffix(".spans.jsonl"))

    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
