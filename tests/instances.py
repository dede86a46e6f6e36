"""Random problem instances for property and acceptance tests."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from crossflow.conflicts import VehicleRecord, build_cdg, build_conflict_sets
from crossflow.scenario import default_intersection
from crossflow.simulation import Algorithm, SimConfig, sample_arrivals

_DEFAULT = default_intersection()

# Headway mix: dense arrivals dominate, sparse ones exercise reachability
# conflicts (a vehicle can only become uncatchable after tens of seconds).
HEADWAYS = (1.0, 2.0, 3.0, 5.0, 30.0, 90.0)


def random_instance(seed: int, n_low: int = 4, n_high: int = 9):
    """One scheduling instance sampled from the default scenario."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_low, n_high + 1))
    headway = HEADWAYS[seed % len(HEADWAYS)]
    cfg = SimConfig(scenario=_DEFAULT, algorithm=Algorithm.DFST, n_vehicles=n,
                    mean_headway=headway, seed=seed)
    records = sample_arrivals(cfg)
    sets = build_conflict_sets(records, _DEFAULT)
    return records, sets, build_cdg(sets)


def sampled_instance(seed: int, n: int, headway: float):
    """Arrivals of ``n`` vehicles at mean gap ``headway`` from the default scenario."""
    cfg = SimConfig(scenario=_DEFAULT, algorithm=Algorithm.DFST, n_vehicles=n,
                    mean_headway=headway, seed=seed)
    records = sample_arrivals(cfg)
    sets = build_conflict_sets(records, _DEFAULT)
    return records, sets, build_cdg(sets)


@st.composite
def graph_instances(draw):
    """A ``random_instance`` or a sampled fleet of up to 80 at gap 1, 5 or 20 s.

    Gaps 1 and 5 s give crowded graphs; at n <= 80 they carry no reachability
    edges, which need a predecessor 52 s into the zone.  Gap 20 s gives
    hundreds of them from n = 40 on.
    """
    seed = draw(st.integers(min_value=0, max_value=10_000))
    if draw(st.booleans()):
        return random_instance(seed)
    return sampled_instance(seed, draw(st.integers(min_value=1, max_value=80)),
                            draw(st.sampled_from((1.0, 5.0, 20.0))))


@st.composite
def mixed_fleets(draw):
    """Arrival records the sampler never makes, from the default scenario.

    Entry speeds mix a standing start, the default, the design speed and a
    speed above it (a braking approach); entry gaps mix simultaneous
    entries, dense ones and gaps long enough for predecessors to cross the
    line before the next vehicle enters (the zone takes about 90 s).
    """
    n = draw(st.integers(min_value=1, max_value=60))
    movements = draw(st.lists(st.sampled_from(_DEFAULT.movement_ids), min_size=n, max_size=n))
    speeds = draw(st.lists(st.sampled_from((0.0, 2.0, 10.0, 14.0)), min_size=n, max_size=n))
    gaps = draw(st.lists(st.sampled_from((0.0, 0.5, 3.0, 40.0, 120.0)), min_size=n, max_size=n))
    records, t = [], 0.0
    for vid, (movement, speed, gap) in enumerate(zip(movements, speeds, gaps), start=1):
        t += gap
        records.append(VehicleRecord(id=vid, movement=movement, entry_time=t, entry_speed=speed))
    return records
