"""User and branch indices are the ints 1 and 2; weights are real numbers in [0, 1].

`True == 1` and `True == 1.0`, so a bool passes any check written as a
comparison; every entry point must reject it like any other bad value.
The same holds for the ratio c of a constrained query and for the
resolution and bounds of an oracle grid.
"""

import numpy as np
import pytest

from macct import (
    CompletionTimePair,
    ConstrainedRateQuery,
    GridSpec,
    RatePair,
    compose,
    dominant_extreme_points,
    map_rate_to_ct,
    minimize_subregion,
    minimize_weighted_sum,
    objective_d,
    oracle_weighted_min,
    point_to_point_rate,
    synthesize,
)
from refvals import A_33, CFG33, LOAD_II

R = RatePair(*A_33)
SCHEDULE = synthesize(CFG33, LOAD_II, CompletionTimePair(1.6, 1.0))

INDEX_TAKERS = {
    "point_to_point_rate": lambda k: point_to_point_rate(CFG33, k),
    "Schedule.bits_delivered": lambda k: SCHEDULE.bits_delivered(k),
    "map_rate_to_ct": lambda k: map_rate_to_ct(CFG33, LOAD_II, k, R),
    "objective_d": lambda k: objective_d(CFG33, LOAD_II, k, 0.3, R),
    "minimize_subregion": lambda k: minimize_subregion(CFG33, LOAD_II, k, 0.3),
    "dominant_extreme_points": lambda k: dominant_extreme_points(CFG33, LOAD_II, k),
}

WEIGHT_TAKERS = {
    "minimize_weighted_sum": lambda w: minimize_weighted_sum(CFG33, LOAD_II, w),
    "minimize_subregion": lambda w: minimize_subregion(CFG33, LOAD_II, 1, w),
    "objective_d": lambda w: objective_d(CFG33, LOAD_II, 1, w, R),
    "oracle_weighted_min": lambda w: oracle_weighted_min(CFG33, LOAD_II, w, None),
    "compose": lambda w: compose(SCHEDULE, SCHEDULE, w),
}


@pytest.mark.parametrize("bad", [True, False, 0, 3, 1.0])
@pytest.mark.parametrize("name", sorted(INDEX_TAKERS))
def test_index_rejected(name, bad):
    with pytest.raises(ValueError, match="1 or 2"):
        INDEX_TAKERS[name](bad)


@pytest.mark.parametrize("name", sorted(INDEX_TAKERS))
def test_numpy_int_index_accepted(name):
    for k in (1, 2):
        assert INDEX_TAKERS[name](np.int64(k)) == INDEX_TAKERS[name](k)


@pytest.mark.parametrize("bad", [True, float("nan"), -0.1, 1.1, float("inf"), "0.5"])
@pytest.mark.parametrize("name", sorted(WEIGHT_TAKERS))
def test_weight_rejected(name, bad):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        WEIGHT_TAKERS[name](bad)


@pytest.mark.parametrize("bad", [True, False])
def test_constrained_ratio_rejects_bool(bad):
    with pytest.raises(ValueError, match="boolean"):
        ConstrainedRateQuery(R, bad)


def test_grid_bounds_reject_bool():
    with pytest.raises(ValueError, match="boolean"):
        GridSpec(16, (True, 2.0), (0.5, 2.0))
    with pytest.raises(ValueError, match="boolean"):
        GridSpec(16, (0.5, 2.0), (0.5, True))


@pytest.mark.parametrize("bad", [True, 8, 32.0, "32"])
def test_grid_resolution_rejected(bad):
    with pytest.raises(ValueError, match=f"resolution.*got {bad!r}"):
        GridSpec(bad, (0.5, 2.0), (0.5, 2.0))


def test_numpy_int_grid_resolution_accepted():
    spec = GridSpec(np.int64(32), (0.5, 2.0), (0.5, 2.0))
    assert spec.axes()[0].size == 32
    assert spec.steps() == GridSpec(32, (0.5, 2.0), (0.5, 2.0)).steps()
