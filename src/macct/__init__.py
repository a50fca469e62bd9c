"""Completion-time analysis for the two-user Gaussian multi-access channel.

Computes the achievable completion-time region, solves weighted-sum and
minimax completion-time problems in closed form, synthesizes time-sharing
schedules that achieve any feasible pair, and cross-checks every closed
form against an independent brute-force grid oracle.

`import macct` loads no layer.  The first use of a public name, or of a layer
module (`capacity`, `constrained`, `ctregion`, `optimize`, `oracle`,
`schedule`, `types`), loads all seven at once.  `macct.cli` is not one of
them: it is an attribute once `import macct.cli` has run.  The `macct`
command loads `types`, `capacity`, `constrained`, `ctregion` and `cli` for
every subcommand; `minimize` adds `optimize`, `--verify` adds `oracle` (and
numpy), and `schedule` adds `schedule`.
"""

__version__ = "0.1.0"

__all__ = [
    "EPS_MEM",
    "Case",
    "ChannelConfig",
    "CompletionTimePair",
    "ConsistencyError",
    "ConstrainedRateQuery",
    "ConvexPiece",
    "GridSpec",
    "HalfPlane",
    "InfeasibleError",
    "OracleReport",
    "Phase",
    "RateDecomposition",
    "RatePair",
    "RegionDescription",
    "Schedule",
    "Thresholds",
    "TrafficLoad",
    "ValidationReport",
    "WeightedSumSolution",
    "boundary_polyline",
    "build_region",
    "clamp_transform",
    "classify_case",
    "compose",
    "constrained_contains",
    "constrained_slacks",
    "corner_points",
    "ct_contains",
    "ct_contains_grid",
    "ct_slacks",
    "decompose_rate",
    "default_grid",
    "dominant_extreme_points",
    "equal_time_vertex",
    "gamma",
    "map_rate_to_ct",
    "minimax",
    "minimize_subregion",
    "minimize_weighted_sum",
    "objective_d",
    "oracle_minimax",
    "oracle_region_equivalence",
    "oracle_weighted_min",
    "outer_bound",
    "point_c",
    "region_contains",
    "standard_capacity_region",
    "synthesize",
    "thresholds",
    "validate",
]

_LAYERS = ("capacity", "constrained", "ctregion", "optimize", "oracle", "schedule", "types")


def __getattr__(name: str):
    """Load the seven layers on the first use of a public name or a layer (PEP 562)."""
    if name not in __all__ and name not in _LAYERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .capacity import (
        corner_points,
        gamma,
        region_contains,
        standard_capacity_region,
    )
    from .constrained import (
        ConstrainedRateQuery,
        RateDecomposition,
        clamp_transform,
        constrained_contains,
        constrained_slacks,
        decompose_rate,
    )
    from .ctregion import (
        Case,
        RegionDescription,
        boundary_polyline,
        build_region,
        classify_case,
        ct_contains,
        ct_contains_grid,
        ct_slacks,
        equal_time_vertex,
        map_rate_to_ct,
        outer_bound,
        point_c,
    )
    from .optimize import (
        Thresholds,
        WeightedSumSolution,
        minimax,
        minimize_subregion,
        minimize_weighted_sum,
        objective_d,
        thresholds,
    )
    from .oracle import (
        GridSpec,
        OracleReport,
        default_grid,
        dominant_extreme_points,
        oracle_minimax,
        oracle_region_equivalence,
        oracle_weighted_min,
    )
    from .schedule import Phase, Schedule, ValidationReport, compose, synthesize, validate
    from .types import (
        EPS_MEM,
        ChannelConfig,
        CompletionTimePair,
        ConsistencyError,
        ConvexPiece,
        HalfPlane,
        InfeasibleError,
        RatePair,
        TrafficLoad,
    )
    namespace = globals()  # the imports above have bound each layer here already
    namespace.update((k, v) for k, v in locals().items() if k in __all__)
    return namespace[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
