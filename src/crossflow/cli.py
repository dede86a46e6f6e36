"""Command-line front end: single runs, matched-arrival sweeps, schedule dumps.

Subcommands:

* ``run``      one simulation, metrics row to stdout or a file
* ``sweep``    grid of (vehicles, headway) cells x repetitions x algorithms
               with identical arrivals for every algorithm inside a cell
* ``schedule`` compute and dump a schedule for an arrival file, no dynamics
* ``validate`` check a scenario file

Exit codes: 0 ok, 1 usage error, 2 validation error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import yaml

from .conflicts import ContractError, VehicleRecord, build_cdg, build_conflict_sets, build_cug
from .scenario import (
    IntersectionConfig,
    ParseError,
    ScenarioError,
    ValidationError,
    conflict_summary,
    default_intersection,
    load_scenario_file,
)
from .scheduling import SizeLimitError, check_cap, verify_feasible
from .simulation import (
    Algorithm,
    Mode,
    SimConfig,
    SimulationTimeout,
    run as run_simulation,
    schedule_from_graph,
)

RESULT_COLUMNS = ["algorithm", "seed", "n", "lambda", "mode", "t_evc", "t_attd", "d_all"]
TRACE_COLUMNS = ["step", "vehicle", "p", "v", "u", "depth"]

class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep usage errors at 1
        raise UsageError(message)


def _result_row(algorithm: str, seed: int, n: int, headway: float, mode: str,
                metrics) -> dict:
    return {
        "algorithm": algorithm,
        "seed": seed,
        "n": n,
        "lambda": _fmt(headway),
        "mode": mode,
        "t_evc": _fmt(metrics.evacuation_time),
        "t_attd": _fmt(metrics.attd),
        "d_all": metrics.d_all,
    }


def _fmt(x: float) -> str:
    return f"{x:.6f}"


# libyaml's emitter where pyyaml was built with it: the same bytes as the
# pure-Python one for these documents, in about half the time
_YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def _yaml(doc) -> str:
    return yaml.dump(doc, Dumper=_YAML_DUMPER, sort_keys=False)


def write_results(rows: list[dict], stream, fmt: str) -> None:
    if fmt == "json":
        json.dump(rows, stream, indent=2)
        stream.write("\n")
        return
    writer = csv.DictWriter(stream, fieldnames=RESULT_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)


def write_trace(trace, stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(TRACE_COLUMNS)
    for row in trace:
        writer.writerow([row.step, row.vehicle, _fmt(row.p), _fmt(row.v),
                         _fmt(row.u), row.depth])


def summarize(rows: list[dict]) -> list[dict]:
    """Per-cell statistics: mean, median and quartiles of every metric.

    A cell is one (algorithm, n, lambda, mode) combination; rows of a cell
    are its repetitions.
    """
    if not rows:
        raise ValueError("summarize needs at least one result row")
    cells: dict[tuple, list[dict]] = {}
    for row in rows:
        key = (row["algorithm"], row["n"], row["lambda"], row["mode"])
        cells.setdefault(key, []).append(row)
    out = []
    for key in sorted(cells, key=lambda k: tuple(str(x) for x in k)):
        group = cells[key]
        entry = {"algorithm": key[0], "n": key[1], "lambda": key[2],
                 "mode": key[3], "reps": len(group)}
        for metric in ("t_evc", "t_attd", "d_all"):
            values = np.array([float(r[metric]) for r in group])
            entry[f"{metric}_mean"] = float(np.mean(values))
            entry[f"{metric}_median"] = float(np.median(values))
            entry[f"{metric}_q1"] = float(np.percentile(values, 25))
            entry[f"{metric}_q3"] = float(np.percentile(values, 75))
        out.append(entry)
    return out


def _load_scenario_arg(path: str | None) -> IntersectionConfig:
    if path is None:
        return default_intersection()
    return load_scenario_file(path)


def _parse_int_list(text: str, flag: str) -> list[int]:
    out = []
    try:
        for part in text.split(","):
            part = part.strip()
            if "-" in part and not part.startswith("-"):
                lo, hi = map(int, part.split("-", 1))
                if hi < lo:
                    raise UsageError(f"{flag}: range {part!r} ends below its start")
                out.extend(range(lo, hi + 1))
            else:
                out.append(int(part))
    except ValueError:
        raise UsageError(f"{flag}: expected a comma list of integers or ranges "
                         f"(got {text!r})") from None
    return _nonempty(out, flag, text)


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        out = [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise UsageError(f"{flag}: expected a comma list of numbers (got {text!r})") from None
    return _nonempty(out, flag, text)


def _nonempty(values: list, flag: str, text: str) -> list:
    if not values:
        raise UsageError(f"{flag}: the list {text!r} holds no values")
    return values


def load_arrivals(path: str, entry_speed: float) -> list[VehicleRecord]:
    """Arrival CSV: rows of exactly id, lane (movement id), t_in; ids 1..n, t_in finite, >= 0."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(row for row in fh if not row.startswith("#"))
        header = next(reader, [])  # an empty file has no header either
        cols = [c.strip().lower() for c in header]
        if cols != ["id", "lane", "t_in"]:
            raise ParseError(f"arrival file must have header id,lane,t_in (got {header})")
        for line in reader:
            if not line:
                continue
            try:
                vid, movement, t_in = line  # a row of any other length is a ValueError
                vid, movement, t_in = int(vid), int(movement), float(t_in)
            except ValueError:
                raise ParseError(f"arrival file: bad row {line}") from None
            if not math.isfinite(t_in) or t_in < 0:
                raise ParseError(f"arrival {vid}: t_in must be finite and >= 0 (got {line[2]})")
            records.append(VehicleRecord(id=vid, movement=movement, entry_time=t_in,
                                         entry_speed=entry_speed))
    records.sort(key=lambda r: r.id)
    ids = [r.id for r in records]
    if ids != list(range(1, len(ids) + 1)):
        raise ParseError(f"arrival ids must be 1..{len(ids)}, each once (got {ids})")
    return records


def _sweep_cell(cfg: SimConfig):
    return run_simulation(cfg).metrics


def _check_positive(value, flag: str) -> None:
    if not 0 < value < math.inf:  # also rejects nan
        raise UsageError(f"{flag}: must be positive and finite (got {value})")


def _check_outputs(out: str | None, other: str | None) -> None:
    """Open each output path for appending before any run, so that one that cannot be
    written fails (``OSError``, exit 2) first, then refuse the two if they name one
    file (``UsageError``, exit 1); a file this creates is removed again."""
    for path in filter(None, (out, other)):
        existed = os.path.exists(path)
        open(path, "a", encoding="utf-8").close()
        if not existed:
            os.remove(path)
    if out and other and os.path.realpath(out) == os.path.realpath(other):
        raise UsageError(f"two output flags name one file: {out}")


def cmd_run(args) -> int:
    scenario = _load_scenario_arg(args.scenario)
    _check_positive(args.vehicles, "--vehicles")
    _check_positive(getattr(args, "lambda"), "--lambda")
    cfg = SimConfig(
        scenario=scenario,
        algorithm=Algorithm(args.algorithm),
        n_vehicles=args.vehicles,
        mean_headway=getattr(args, "lambda"),
        seed=args.seed,
        mode=Mode(args.mode),
        leader_start=args.leader_start,
        collect_trace=args.trace is not None,
    )
    _check_outputs(args.out, args.trace)
    result = run_simulation(cfg)
    rows = [_result_row(args.algorithm, args.seed, args.vehicles,
                        getattr(args, "lambda"), args.mode, result.metrics)]
    if args.trace is not None:  # files first: stdout is written only on success
        with open(args.trace, "w", encoding="utf-8", newline="") as fh:
            write_trace(result.trace, fh)
    _emit(rows, args.out, args.format)
    if args.dump_schedule:
        doc = {
            "d_all": result.metrics.d_all,
            "depth": {str(k): v for k, v in sorted(result.depths.items())},
            "parent": {str(k): v for k, v in sorted(result.parents.items())},
        }
        sys.stdout.write(_yaml(doc))
    return 0


def cmd_sweep(args) -> int:
    scenario = _load_scenario_arg(args.scenario)
    try:
        algorithms = [Algorithm(a.strip()) for a in args.algorithms.split(",")]
    except ValueError as exc:
        raise UsageError(f"--algorithms: {exc}") from None
    vehicles = _parse_int_list(args.vehicles, "--vehicles")
    headways = _parse_float_list(getattr(args, "lambda"), "--lambda")
    for n in vehicles:
        _check_positive(n, "--vehicles")
    for headway in headways:
        _check_positive(headway, "--lambda")
    if args.reps < 1:
        raise UsageError(f"--reps: must be at least 1 (got {args.reps})")
    if args.jobs < 1:
        raise UsageError(f"--jobs: must be at least 1 (got {args.jobs})")

    # every configuration is built, hence validated, before the first run
    jobs = [SimConfig(scenario=scenario, algorithm=algorithm, n_vehicles=n,
                      mean_headway=headway, seed=args.seed + rep, mode=Mode(args.mode),
                      leader_start=args.leader_start)
            for n in vehicles for headway in headways for rep in range(args.reps)
            for algorithm in algorithms]
    if Algorithm.MCC_BRUTE in algorithms:  # a batch cover spans the fleet; refuse before any cell
        check_cap(max(vehicles))
    _check_outputs(args.out, args.summary)
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(_sweep_cell, jobs))
    else:
        outcomes = [_sweep_cell(job) for job in jobs]

    rows = [_result_row(cfg.algorithm.value, cfg.seed, cfg.n_vehicles, cfg.mean_headway,
                        cfg.mode.value, metrics) for cfg, metrics in zip(jobs, outcomes)]
    if args.summary:  # files first: stdout is written only on success
        with open(args.summary, "w", encoding="utf-8", newline="") as fh:
            summary = summarize(rows)
            writer = csv.DictWriter(fh, fieldnames=list(summary[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(summary)
    _emit(rows, args.out, args.format)
    return 0


def cmd_schedule(args) -> int:
    scenario = _load_scenario_arg(args.scenario)
    records = load_arrivals(args.arrivals, scenario.initial_speed)
    cdg = build_cdg(build_conflict_sets(records, scenario))
    cug = build_cug(cdg) if args.dump_graph else None
    tree = schedule_from_graph(cdg, Algorithm(args.algorithm), cug=cug)
    doc = tree.to_dict()
    doc["feasible"] = verify_feasible(tree, cdg).ok
    if cug is not None:
        doc["conflict_graph"] = cdg.to_dict()
        doc["coexistence_graph"] = cug.to_dict()
    text = _yaml(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_validate(args) -> int:
    cfg = load_scenario_file(args.scenario_file)
    summary = conflict_summary(cfg)
    sys.stdout.write(_yaml({"ok": True, "summary": summary}))
    return 0


def _emit(rows: list[dict], out: str | None, fmt: str) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            write_results(rows, fh, fmt)
    else:
        buf = io.StringIO()
        write_results(rows, buf, fmt)
        sys.stdout.write(buf.getvalue())


def build_parser() -> _Parser:
    parser = _Parser(prog="crossflow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_algorithm=True):
        p.add_argument("--scenario", help="scenario file (default: built-in intersection)")
        if with_algorithm:
            p.add_argument("--algorithm", default="idfst",
                           choices=sorted(a.value for a in Algorithm))

    p_run = sub.add_parser("run", help="single simulation")
    common(p_run)
    p_run.add_argument("--vehicles", type=int, required=True)
    p_run.add_argument("--lambda", type=float, default=3.0,
                       help="mean arrival gap per lane, seconds")
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--mode", choices=[m.value for m in Mode], default="batch")
    p_run.add_argument("--leader-start", type=float, default=0.0)
    p_run.add_argument("--out")
    p_run.add_argument("--format", choices=["csv", "json"], default="csv")
    p_run.add_argument("--trace", help="write per-step trace CSV to this path")
    p_run.add_argument("--dump-schedule", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid of runs with matched arrivals")
    p_sweep.add_argument("--scenario")
    p_sweep.add_argument("--algorithms", default="dfst,idfst,mcc-greedy")
    p_sweep.add_argument("--vehicles", required=True,
                         help="comma list or range, e.g. 10,20,30 or 10-50")
    p_sweep.add_argument("--lambda", default="3.0", help="comma list of mean gaps")
    p_sweep.add_argument("--reps", type=int, default=1)
    p_sweep.add_argument("--seed", type=int, default=1, help="base seed; rep r uses seed+r")
    p_sweep.add_argument("--mode", choices=[m.value for m in Mode], default="batch")
    p_sweep.add_argument("--leader-start", type=float, default=0.0)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--out")
    p_sweep.add_argument("--summary", help="also write per-cell summary CSV here")
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_sched = sub.add_parser("schedule", help="schedule an arrival file, no dynamics")
    common(p_sched)
    p_sched.add_argument("--arrivals", required=True, help="CSV with id,lane,t_in")
    p_sched.add_argument("--out")
    p_sched.add_argument("--dump-graph", action="store_true")
    p_sched.set_defaults(func=cmd_schedule)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("scenario_file")
    p_val.set_defaults(func=cmd_validate)

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ValidationError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (SizeLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SimulationTimeout, ScenarioError, RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
