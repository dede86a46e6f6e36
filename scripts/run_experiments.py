#!/usr/bin/env python3
"""Run the three standard experiment families and write result CSVs.

Families:
  depth-stats   200 nine-vehicle repetitions, schedule depth per method
                (including the exact cover, which is feasible at this size)
  fleet-size    10..50 vehicles, mean gap 3 s, online runs, 10 repetitions
  volume        60 vehicles, mean gap 1..5 s, online runs, 10 repetitions

The fleet-size and volume families are ``crossflow sweep`` runs (dfst,
idfst and mcc-greedy, leader start 0, seeds 1..10); ``SWEEPS`` holds their
arguments.  Outputs land under results/ as plain CSV; a per-cell summary is
printed.
"""

import argparse
import csv
import pathlib
import statistics
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from crossflow.cli import run_cli, summarize
from crossflow.conflicts import build_cdg, build_conflict_sets, build_cug
from crossflow.scenario import default_intersection
from crossflow.scheduling import dfst_schedule, idfst_schedule, mcc_bruteforce, mcc_greedy
from crossflow.simulation import Algorithm, SimConfig, sample_arrivals

ROOT = pathlib.Path(__file__).resolve().parents[1]
# family -> (CSV name, ``crossflow sweep`` arguments)
SWEEPS = {
    "fleet-size": ("fleet_size", ["--vehicles", "10,20,30,40,50", "--lambda", "3"]),
    "volume": ("volume", ["--vehicles", "60", "--lambda", "1,2,3,4,5"]),
}


def depth_stats(out_dir: pathlib.Path, reps: int = 200) -> None:
    scenario = default_intersection()
    rows = []
    for rep in range(reps):
        cfg = SimConfig(scenario=scenario, algorithm=Algorithm.DFST, n_vehicles=9,
                        mean_headway=3.0, seed=1000 + rep)
        records = sample_arrivals(cfg)
        cdg = build_cdg(build_conflict_sets(records, scenario))
        cug = build_cug(cdg)
        rows.append({
            "rep": rep,
            "dfst": dfst_schedule(cdg).d_all,
            "idfst": idfst_schedule(cdg).d_all,
            "mcc_greedy": mcc_greedy(cug).theta,
            "mcc_exact": mcc_bruteforce(cug).theta,
        })
    path = out_dir / "depth_stats.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    for key in ("mcc_exact", "mcc_greedy", "idfst", "dfst"):
        values = [r[key] for r in rows]
        print(f"  {key:11s} mean d_all {statistics.mean(values):.3f} "
              f"median {statistics.median(values):.1f}")
    print(f"  wrote {path}")


def sweep(out_dir: pathlib.Path, name: str, args: list[str]) -> None:
    path = out_dir / f"{name}.csv"
    if run_cli(["sweep", *args, "--reps", "10", "--mode", "online", "--out", str(path)]):
        sys.exit(f"crossflow sweep failed for {path}")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for cell in summarize(rows):
        print(f"  {cell['algorithm']:11s} n={cell['n']:>3} gap={cell['lambda']}: "
              f"t_evc {cell['t_evc_mean']:6.1f}s  t_attd {cell['t_attd_mean']:6.2f}s  "
              f"d_all {cell['d_all_mean']:5.1f}")
    print(f"  wrote {path}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", choices=["depth-stats", *SWEEPS, "all"],
                        default="all")
    parser.add_argument("--out", default=str(ROOT / "results"))
    args = parser.parse_args()
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.family in ("depth-stats", "all"):
        print("depth statistics, 9 vehicles x 200 repetitions")
        depth_stats(out_dir)
    for family, (name, sweep_args) in SWEEPS.items():
        if args.family in (family, "all"):
            print(f"{family} sweep, online runs")
            sweep(out_dir, name, sweep_args)


if __name__ == "__main__":
    main()
