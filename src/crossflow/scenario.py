"""Intersection geometry: legs, lane-to-lane movements, and route conflicts.

A scenario is a set of movements (one per approach lane), an explicit table
of crossing pairs, and the physical parameters of the control zone.  Crossing
conflicts are declared rather than derived from curve geometry; a validator
enforces symmetry and the no-shared-lane rule instead.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Mapping

import yaml


class ScenarioError(Exception):
    """Base class for scenario configuration problems."""


class ParseError(ScenarioError):
    """Scenario document is malformed or missing required fields."""


class ValidationError(ScenarioError):
    """Scenario document parsed but violates an invariant."""


class Leg(str, Enum):
    NORTH = "North"
    SOUTH = "South"
    EAST = "East"
    WEST = "West"


class ConflictClass(Enum):
    CROSSING = "crossing"
    DIVERGING = "diverging"
    CONVERGING = "converging"
    NONE = "none"


@dataclass(frozen=True)
class Movement:
    """One lane-to-lane route through the intersection."""

    id: int
    approach_leg: Leg
    approach_lane: int
    exit_leg: Leg
    exit_lane: int

    def approach(self) -> tuple[Leg, int]:
        return (self.approach_leg, self.approach_lane)

    def exit(self) -> tuple[Leg, int]:
        return (self.exit_leg, self.exit_lane)


@dataclass(frozen=True)
class IntersectionConfig:
    """Static intersection description plus control-zone parameters.

    Immutable after construction; safe to share across concurrent runs.
    """

    movements: tuple[Movement, ...]
    crossing_pairs: frozenset[tuple[int, int]]  # normalized (low, high) id pairs
    control_zone_length: float  # L_ctrl, meters
    v_max: float  # m/s
    a_max: float  # m/s^2
    a_min: float  # m/s^2, negative
    platoon_speed: float  # v_0, design speed of the virtual platoon, m/s
    desired_gap: float  # D_des, meters between consecutive layers
    dt: float = 0.1  # simulation step, seconds
    initial_speed: float = 2.0  # entry speed at the control-zone border, m/s
    _by_id: dict[int, Movement] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_by_id", {m.id: m for m in self.movements})
        validate_config(self)

    def movement(self, movement_id: int) -> Movement:
        try:
            return self._by_id[movement_id]
        except KeyError:
            raise ValidationError(f"unknown movement id {movement_id}") from None

    @cached_property
    def conflict_table(self) -> dict[int, dict[int, ConflictClass]]:
        """Class of every movement pair (itself: DIVERGING), built on first use."""
        return {a.id: {b.id: ConflictClass.DIVERGING if a is b else classify_conflict(a, b, self)
                       for b in self.movements} for a in self.movements}

    @cached_property
    def class_lists(self) -> dict[int, tuple[tuple[int, ...], ...]]:
        """Per movement, the ids it meets in each ``ConflictClass``; built on first use."""
        return {a: tuple(tuple(b for b, cls in row.items() if cls is want)
                         for want in ConflictClass) for a, row in self.conflict_table.items()}

    @property
    def movement_ids(self) -> list[int]:
        return [m.id for m in self.movements]

    def free_flow_time(self) -> float:
        """Zone traversal time at the speed limit."""
        return self.control_zone_length / self.v_max


def _normalize_pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _as_int(value, field: str) -> int:
    """``int(value)``, refusing a float or a boolean instead of truncating it."""
    if isinstance(value, (bool, float)):
        raise TypeError(f"{field} must be an integer (got {value!r})")
    return int(value)


def _as_float(value) -> float:
    """``float(value)``, refusing a boolean instead of reading it as 0 or 1."""
    if isinstance(value, bool):
        raise TypeError(f"a boolean is not a number (got {value!r})")
    return float(value)


_PARAM_FIELDS = {
    # file key -> (attribute, human name, the sign its finite value must have)
    "L_ctrl": ("control_zone_length", "control_zone_length", "positive"),
    "v_max": ("v_max", "maximum_speed", "positive"),
    "a_max": ("a_max", "maximum_acceleration", "positive"),
    "a_min": ("a_min", "minimum_acceleration", "negative"),
    "v_0": ("platoon_speed", "platoon_speed", "positive"),
    "D_des": ("desired_gap", "desired_gap", "positive"),
}
_OPTIONAL_PARAM_FIELDS = {
    "dt": ("dt", "simulation_step", "positive"),
    "initial_speed": ("initial_speed", "initial_speed", "nonnegative"),
}
_FILE_PARAMS = {**_PARAM_FIELDS, **_OPTIONAL_PARAM_FIELDS}  # every key, in file order
_SIGNS = {
    "positive": lambda x: x > 0,
    "negative": lambda x: x < 0,
    "nonnegative": lambda x: x >= 0,
}


def validate_config(cfg: IntersectionConfig) -> None:
    """Check every structural invariant; raise ValidationError naming the field.

    The one check of the parameters, the step and the entry speed included:
    each must be finite, with the sign ``_PARAM_FIELDS`` gives it.
    """
    seen_ids: set[int] = set()
    seen_lanes: set[tuple[Leg, int]] = set()
    for m in cfg.movements:
        if m.id in seen_ids:
            raise ValidationError(f"movements: duplicate id {m.id}")
        seen_ids.add(m.id)
        if m.approach_leg == m.exit_leg:
            raise ValidationError(
                f"movements[{m.id}]: approach_leg equals exit_leg (U-turns unsupported)"
            )
        if m.approach() in seen_lanes:
            raise ValidationError(
                f"movements[{m.id}]: approach lane {m.approach_leg.value}:{m.approach_lane}"
                " already hosts another movement"
            )
        seen_lanes.add(m.approach())
        if m.approach_lane < 0 or m.exit_lane < 0:
            raise ValidationError(f"movements[{m.id}]: negative lane index")

    for a, b in cfg.crossing_pairs:
        if a == b:
            raise ValidationError(f"crossing_pairs: self pair ({a},{b})")
        if a not in seen_ids or b not in seen_ids:
            raise ValidationError(f"crossing_pairs: unknown movement id in ({a},{b})")
        if cfg._by_id[a].exit() == cfg._by_id[b].exit():
            raise ValidationError(
                f"crossing_pairs: ({a},{b}) shares an exit lane (that is converging)"
            )

    for key, (attr, _, sign) in _FILE_PARAMS.items():
        value = getattr(cfg, attr)
        if not (math.isfinite(value) and _SIGNS[sign](value)):
            raise ValidationError(f"parameters.{key}: must be finite and {sign} (got {value})")


def classify_conflict(a: Movement, b: Movement, cfg: IntersectionConfig) -> ConflictClass:
    """Classify the route conflict between two distinct movements.

    Diverging wins over converging wins over crossing; pairs in none of those
    relations coexist.  Symmetric in its arguments.
    """
    if a.id not in cfg._by_id or b.id not in cfg._by_id:
        raise ValidationError(f"unknown movement id in pair ({a.id},{b.id})")
    if a.id == b.id:
        raise ValidationError("classify_conflict requires two distinct movements")
    if a.approach() == b.approach():
        return ConflictClass.DIVERGING
    if a.exit() == b.exit():
        return ConflictClass.CONVERGING
    if _normalize_pair(a.id, b.id) in cfg.crossing_pairs:
        return ConflictClass.CROSSING
    return ConflictClass.NONE


def conflict_summary(cfg: IntersectionConfig) -> dict:
    """Counts of pairwise conflict classes plus the largest coexisting group."""
    table = cfg.conflict_table
    counts = {c: 0 for c in ConflictClass}
    for a, b in itertools.combinations(table, 2):
        counts[table[a][b]] += 1
    coexist = {a: {b for b, cls in row.items() if cls is ConflictClass.NONE}
               for a, row in table.items()}
    return {
        "crossing_pairs": counts[ConflictClass.CROSSING],
        "diverging_pairs": counts[ConflictClass.DIVERGING],
        "converging_pairs": counts[ConflictClass.CONVERGING],
        "coexisting_pairs": counts[ConflictClass.NONE],
        "max_coexisting_movements": _max_clique_size(coexist),
    }


def _max_clique_size(adj: Mapping[int, set[int]]) -> int:
    """Exact maximum clique by branch and bound; fine for movement tables."""
    nodes = sorted(adj)
    best = 0

    def grow(clique: list[int], candidates: list[int]) -> None:
        nonlocal best
        if len(clique) > best:
            best = len(clique)
        for i, v in enumerate(candidates):
            if len(clique) + len(candidates) - i <= best:
                return
            grow(clique + [v], [u for u in candidates[i + 1:] if u in adj[v]])

    grow([], nodes)
    return best


# Default 4-leg intersection: three approach lanes per leg, one movement per
# lane (left / straight / right separated by destination).  Movements of the
# north-south axis are mutually compatible, as are those of the east-west
# axis; conflicts run between the axes.  The east and west exit legs are
# single-lane, so all three movements feeding each of them merge (six
# converging pairs); the remaining cross-axis pairs either cross (24) or
# clear each other (8 declared non-conflicting).  At most the six east-west
# movements can run simultaneously.
_DEFAULT_MOVEMENTS = (
    # (id, approach leg, approach lane, exit leg, exit lane)
    (1, Leg.NORTH, 0, Leg.EAST, 1),   # left
    (2, Leg.NORTH, 1, Leg.SOUTH, 0),  # straight
    (3, Leg.NORTH, 2, Leg.WEST, 1),   # right
    (4, Leg.EAST, 0, Leg.SOUTH, 1),
    (5, Leg.EAST, 1, Leg.WEST, 1),
    (6, Leg.EAST, 2, Leg.NORTH, 1),
    (7, Leg.SOUTH, 0, Leg.WEST, 1),
    (8, Leg.SOUTH, 1, Leg.NORTH, 0),
    (9, Leg.SOUTH, 2, Leg.EAST, 1),
    (10, Leg.WEST, 0, Leg.NORTH, 2),
    (11, Leg.WEST, 1, Leg.EAST, 1),
    (12, Leg.WEST, 2, Leg.SOUTH, 2),
)

# Cross-axis crossings; each north-south movement cuts four east-west paths.
_DEFAULT_CROSSING = (
    (1, 4), (1, 5), (1, 6), (1, 10),
    (2, 4), (2, 5), (2, 10), (2, 11),
    (3, 4), (3, 6), (3, 11), (3, 12),
    (7, 4), (7, 6), (7, 10), (7, 11),
    (8, 4), (8, 5), (8, 10), (8, 11),
    (9, 4), (9, 5), (9, 10), (9, 12),
)


def default_intersection() -> IntersectionConfig:
    """The built-in four-leg intersection with its standard parameters."""
    movements = tuple(Movement(i, al, an, el, en) for i, al, an, el, en in _DEFAULT_MOVEMENTS)
    return IntersectionConfig(
        movements=movements,
        crossing_pairs=frozenset(_normalize_pair(a, b) for a, b in _DEFAULT_CROSSING),
        control_zone_length=900.0,
        v_max=25.0,
        a_max=5.0,
        a_min=-6.0,
        platoon_speed=10.0,
        desired_gap=30.0,
        dt=0.1,
        initial_speed=2.0,
    )


def load_scenario(source: str) -> IntersectionConfig:
    """Parse a scenario document (YAML text) into a validated config.

    Raises ParseError for malformed or incomplete documents and
    ValidationError when a parsed document violates an invariant.
    """
    try:
        doc = yaml.safe_load(source)
    except yaml.YAMLError as exc:
        raise ParseError(f"malformed scenario document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a mapping")

    for key in ("legs", "movements", "crossing_pairs", "parameters"):
        if key not in doc:
            raise ParseError(f"missing required section '{key}'")

    legs = doc["legs"]
    valid_legs = sorted(leg.value for leg in Leg)
    if not isinstance(legs, list) or not all(leg in valid_legs for leg in legs):
        raise ParseError(f"legs: expected a list drawn from {valid_legs}")
    for key in ("movements", "crossing_pairs"):
        if not isinstance(doc[key], list):
            raise ParseError(f"{key}: expected a list")

    movements = []
    for idx, entry in enumerate(doc["movements"]):
        if not isinstance(entry, dict):
            raise ParseError(f"movements[{idx}]: expected a mapping")
        try:
            movements.append(
                Movement(
                    id=_as_int(entry["id"], "id"),
                    approach_leg=Leg(entry["approach_leg"]),
                    approach_lane=_as_int(entry["approach_lane"], "approach_lane"),
                    exit_leg=Leg(entry["exit_leg"]),
                    exit_lane=_as_int(entry["exit_lane"], "exit_lane"),
                )
            )
        except KeyError as exc:
            raise ParseError(f"movements[{idx}]: missing field {exc.args[0]!r}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"movements[{idx}]: {exc}") from exc
        if movements[-1].approach_leg.value not in legs or movements[-1].exit_leg.value not in legs:
            raise ParseError(f"movements[{idx}]: references a leg absent from 'legs'")

    pairs = set()
    for idx, entry in enumerate(doc["crossing_pairs"]):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ParseError(f"crossing_pairs[{idx}]: expected an id pair")
        try:
            pairs.add(_normalize_pair(_as_int(entry[0], "id"), _as_int(entry[1], "id")))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"crossing_pairs[{idx}]: {exc}") from exc

    params = doc["parameters"]
    if not isinstance(params, dict):
        raise ParseError("parameters: expected a mapping")
    kwargs = {}
    for key, (attr, human, _) in _FILE_PARAMS.items():
        if key not in params:
            if key in _PARAM_FIELDS:
                raise ParseError(f"parameters.{key} ({human}) is required")
            continue
        try:
            kwargs[attr] = _as_float(params[key])
        except (TypeError, ValueError) as exc:
            raise ParseError(f"parameters.{key} ({human}): expected a number "
                             f"(got {params[key]!r})") from exc

    return IntersectionConfig(
        movements=tuple(movements),
        crossing_pairs=frozenset(pairs),
        **kwargs,
    )


def load_scenario_file(path: str) -> IntersectionConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return load_scenario(fh.read())
