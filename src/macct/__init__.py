"""Completion-time analysis for the two-user Gaussian multi-access channel.

Computes the achievable completion-time region, solves weighted-sum and
minimax completion-time problems in closed form, synthesizes time-sharing
schedules that achieve any feasible pair, and cross-checks every closed
form against an independent brute-force grid oracle.

`_EXPORTS` is the one list of what each layer exports: `__all__`, `dir()` and
the lazy loader all read it.  `import macct` loads no layer.  The first use of
a public name, or of a layer module (a key), loads all seven at once.
`macct.cli` is not one of them: it is an attribute once `import macct.cli`
has run.  The `macct` command loads `types`, `capacity`, `constrained`,
`ctregion` and `cli` for every subcommand; `minimize` adds `optimize`,
`--verify` adds `oracle` (and numpy), and `schedule` adds `schedule`.
"""

__version__ = "0.1.0"

_EXPORTS: dict[str, tuple[str, ...]] = {
    "capacity": ("corner_points", "gamma", "region_contains", "standard_capacity_region"),
    "constrained": ("ConstrainedRateQuery", "RateDecomposition", "clamp_transform",
                    "constrained_contains", "constrained_slacks", "decompose_rate"),
    "ctregion": ("Case", "RegionDescription", "boundary_polyline", "build_region",
                 "classify_case", "ct_contains", "ct_contains_grid", "ct_slacks",
                 "equal_time_vertex", "map_rate_to_ct", "outer_bound", "point_c"),
    "optimize": ("Thresholds", "WeightedSumSolution", "minimax", "minimize_subregion",
                 "minimize_weighted_sum", "objective_d", "thresholds"),
    "oracle": ("GridSpec", "OracleReport", "default_grid", "dominant_extreme_points",
               "oracle_minimax", "oracle_region_equivalence", "oracle_weighted_min"),
    "schedule": ("Phase", "Schedule", "ValidationReport", "compose", "synthesize", "validate"),
    "types": ("EPS_MEM", "ChannelConfig", "CompletionTimePair", "ConsistencyError",
              "ConvexPiece", "HalfPlane", "InfeasibleError", "RatePair", "TrafficLoad"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    """Load the seven layers on the first use of a public name or a layer (PEP 562)."""
    if name not in __all__ and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # import_module, not `from . import ...`: its fromlist would ask this hook for each layer.
    from importlib import import_module
    namespace = globals()  # importing a layer binds it here already
    for layer, names in _EXPORTS.items():
        module = import_module(f"{__name__}.{layer}")
        namespace.update((n, getattr(module, n)) for n in names)
    return namespace[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
