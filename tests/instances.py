"""Random problem instances for property and acceptance tests."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from crossflow.conflicts import build_cdg, build_conflict_sets
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
