"""Conflict-graph scheduling and virtual-platoon simulation for unsignalized intersections."""

from .scenario import (
    ConflictClass,
    IntersectionConfig,
    Leg,
    Movement,
    classify_conflict,
    default_intersection,
    load_scenario,
)
from .conflicts import (
    CoexistenceGraph,
    ConflictDirectedGraph,
    ConflictSets,
    VehicleRecord,
    build_cdg,
    build_conflict_sets,
    build_cug,
)
from .scheduling import (
    CliqueCover,
    SpanningTree,
    dfst_schedule,
    idfst_schedule,
    mcc_bruteforce,
    mcc_greedy,
    schedule_cover_tree,
    verify_feasible,
)
from .control import ControllerGains, VehicleState
from .simulation import (
    Algorithm,
    Metrics,
    Mode,
    SimConfig,
    attd,
    evacuation_time,
    run,
    sample_arrivals,
    schedule_batch,
)

__version__ = "0.1.0"
