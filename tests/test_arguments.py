"""User and branch indices are the ints 1 and 2; weights are real numbers in [0, 1].

`True == 1` and `True == 1.0`, so a bool passes any check written as a
comparison; every entry point must reject it like any other bad value.
The same holds for the ratio c of a constrained query and for the
resolution and bounds of an oracle grid.
"""

import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from macct import (
    ChannelConfig,
    CompletionTimePair,
    ConstrainedRateQuery,
    GridSpec,
    HalfPlane,
    Phase,
    RatePair,
    TrafficLoad,
    compose,
    constrained_contains,
    ct_contains,
    ct_contains_grid,
    decompose_rate,
    dominant_extreme_points,
    gamma,
    map_rate_to_ct,
    minimize_subregion,
    minimize_weighted_sum,
    objective_d,
    oracle_region_equivalence,
    oracle_weighted_min,
    region_contains,
    standard_capacity_region,
    synthesize,
    validate,
)
from refvals import A_33, CFG33, LOAD_II

R = RatePair(*A_33)
SCHEDULE = synthesize(CFG33, LOAD_II, CompletionTimePair(1.6, 1.0))

INDEX_TAKERS = {
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


@pytest.mark.parametrize(
    "bad", [(0.5, 0.5), CompletionTimePair(0.5, 0.5), None], ids=["tuple", "pair", "None"]
)
def test_constrained_rates_must_be_a_rate_pair(bad):
    # Refused when built, as `Phase` refuses them, not when `constrained_contains` reads r1.
    with pytest.raises(ValueError) as err:
        ConstrainedRateQuery(bad, 1.0)
    assert str(err.value) == f"rates must be a RatePair, got {bad!r}"


def test_grid_bounds_reject_bool():
    with pytest.raises(ValueError, match="boolean"):
        GridSpec(16, (True, 2.0), (0.5, 2.0))
    with pytest.raises(ValueError, match="boolean"):
        GridSpec(16, (0.5, 2.0), (0.5, True))


@pytest.mark.parametrize("bad", [5.0, (1.0, 2.0, 3.0), (1.0,), None])
def test_grid_bounds_that_are_not_a_pair_are_refused(bad):
    with pytest.raises(ValueError) as err:
        GridSpec(16, bad, (0.5, 2.0))
    assert str(err.value) == f"d1_bounds must be a pair (lo, hi), got {bad!r}"
    with pytest.raises(ValueError) as err:
        GridSpec(16, (0.5, 2.0), bad)
    assert str(err.value) == f"d2_bounds must be a pair (lo, hi), got {bad!r}"


@pytest.mark.parametrize("bad", [True, 8, 32.0, "32"])
def test_grid_resolution_rejected(bad):
    with pytest.raises(ValueError, match=f"resolution.*got {bad!r}"):
        GridSpec(bad, (0.5, 2.0), (0.5, 2.0))


def test_numpy_int_grid_resolution_accepted():
    spec = GridSpec(np.int64(32), (0.5, 2.0), (0.5, 2.0))
    assert type(spec.resolution) is int  # stored as a builtin, as every other numeric field
    assert repr(spec) == "GridSpec(resolution=32, d1_bounds=(0.5, 2.0), d2_bounds=(0.5, 2.0))"
    assert spec.axes()[0].size == 32
    assert spec.steps() == GridSpec(32, (0.5, 2.0), (0.5, 2.0)).steps()


# Every public function that takes a membership tolerance refuses one that is not a real number
# in [0, 1) before any other work: the pair and the query below are outside the region, and the
# oracle's grid is None.
OUTSIDE = CompletionTimePair(1.0, 1.0)
TOL_TAKERS = {
    "constrained_contains": lambda tol: constrained_contains(
        CFG33, ConstrainedRateQuery(R, 1.0), tol),
    "decompose_rate": lambda tol: decompose_rate(
        CFG33, ConstrainedRateQuery(RatePair(0.9, 0.9), 1.0), tol),
    "ct_contains": lambda tol: ct_contains(CFG33, LOAD_II, OUTSIDE, tol),
    "ct_contains_grid": lambda tol: ct_contains_grid(CFG33, LOAD_II, np.ones(3), np.ones(3), tol),
    "synthesize": lambda tol: synthesize(CFG33, LOAD_II, OUTSIDE, tol),
    "validate": lambda tol: validate(CFG33, LOAD_II, SCHEDULE, tol),
    "region_contains": lambda tol: region_contains(standard_capacity_region(CFG33), A_33, tol),
    "oracle_region_equivalence": lambda tol: oracle_region_equivalence(
        CFG33, LOAD_II, None, tol=tol),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-12, 1.0, True, "1e-9", None, 1j])
@pytest.mark.parametrize("name", sorted(TOL_TAKERS))
def test_tol_rejected(name, bad):
    assert _call_outcome(TOL_TAKERS[name], bad) == (
        f"ValueError: tol: must be a small nonnegative number, got {bad!r}")


@pytest.mark.parametrize("good", [0, 0.5, np.float64(1e-9), Fraction(1, 10**9)])
@pytest.mark.parametrize("name", sorted(TOL_TAKERS))
def test_real_tol_accepted(name, good):
    assert "tol:" not in _call_outcome(TOL_TAKERS[name], good)


# The domain of each value type: one row per input, holding the stored
# field's type and repr, or the exception's type and message, for the value
# placed in the type's first field.  Every other field of a type gives the
# same row with its own name.
DOMAIN_INPUTS = (
    1.5, 0.0, -0.0, 5e-324, 1.7976931348623157e308, -1.0, math.inf, -math.inf, math.nan, 3,
    np.float64(2.5), np.float32(0.1), np.int64(3), Fraction(3, 2), True, 10**400, -10**400,
    Fraction(10**400),
)
DOMAIN = {
    ChannelConfig: (
        'float 1.5',  # 1.5
        'ValueError: p1 must be > 0 (zero power never completes), got 0.0',  # 0.0
        'ValueError: p1 must be > 0 (zero power never completes), got -0.0',  # -0.0
        'float 5e-324',  # 5e-324
        'float 1.7976931348623157e+308',  # 1.7976931348623157e308
        'ValueError: p1 must be > 0 (zero power never completes), got -1.0',  # -1.0
        'ValueError: p1 must be finite, got inf',  # inf
        'ValueError: p1 must be finite, got -inf',  # -inf
        'ValueError: p1 must be finite, got nan',  # nan
        'float 3.0',  # 3
        'float 2.5',  # np.float64(2.5)
        'float 0.10000000149011612',  # np.float32(0.1)
        'float 3.0',  # np.int64(3)
        'float 1.5',  # Fraction(3, 2)
        'ValueError: p1 must be a number, not a boolean, got True',  # True
        'ValueError: p1 must be finite, got int beyond the float range',  # 10**400
        'ValueError: p1 must be finite, got int beyond the float range',  # -10**400
        'ValueError: p1 must be finite, got Fraction beyond the float range',  # Fraction(10**400)
    ),
    TrafficLoad: (
        'float 1.5',  # 1.5
        'ValueError: tau1 must be > 0, got 0.0',  # 0.0
        'ValueError: tau1 must be > 0, got -0.0',  # -0.0
        'float 5e-324',  # 5e-324
        'float 1.7976931348623157e+308',  # 1.7976931348623157e308
        'ValueError: tau1 must be > 0, got -1.0',  # -1.0
        'ValueError: tau1 must be finite, got inf',  # inf
        'ValueError: tau1 must be finite, got -inf',  # -inf
        'ValueError: tau1 must be finite, got nan',  # nan
        'float 3.0',  # 3
        'float 2.5',  # np.float64(2.5)
        'float 0.10000000149011612',  # np.float32(0.1)
        'float 3.0',  # np.int64(3)
        'float 1.5',  # Fraction(3, 2)
        'ValueError: tau1 must be a number, not a boolean, got True',  # True
        'ValueError: tau1 must be finite, got int beyond the float range',  # 10**400
        'ValueError: tau1 must be finite, got int beyond the float range',  # -10**400
        'ValueError: tau1 must be finite, got Fraction beyond the float range',  # Fraction(10**400)
    ),
    CompletionTimePair: (
        'float 1.5',  # 1.5
        'ValueError: d1 must be > 0, got 0.0',  # 0.0
        'ValueError: d1 must be > 0, got -0.0',  # -0.0
        'float 5e-324',  # 5e-324
        'float 1.7976931348623157e+308',  # 1.7976931348623157e308
        'ValueError: d1 must be > 0, got -1.0',  # -1.0
        'ValueError: d1 must be finite, got inf',  # inf
        'ValueError: d1 must be finite, got -inf',  # -inf
        'ValueError: d1 must be finite, got nan',  # nan
        'float 3.0',  # 3
        'float 2.5',  # np.float64(2.5)
        'float 0.10000000149011612',  # np.float32(0.1)
        'float 3.0',  # np.int64(3)
        'float 1.5',  # Fraction(3, 2)
        'ValueError: d1 must be a number, not a boolean, got True',  # True
        'ValueError: d1 must be finite, got int beyond the float range',  # 10**400
        'ValueError: d1 must be finite, got int beyond the float range',  # -10**400
        'ValueError: d1 must be finite, got Fraction beyond the float range',  # Fraction(10**400)
    ),
    RatePair: (
        'float 1.5',  # 1.5
        'float 0.0',  # 0.0
        'float -0.0',  # -0.0
        'float 5e-324',  # 5e-324
        'float 1.7976931348623157e+308',  # 1.7976931348623157e308
        'ValueError: r1 must be >= 0, got -1.0',  # -1.0
        'ValueError: r1 must be finite, got inf',  # inf
        'ValueError: r1 must be finite, got -inf',  # -inf
        'ValueError: r1 must be finite, got nan',  # nan
        'float 3.0',  # 3
        'float 2.5',  # np.float64(2.5)
        'float 0.10000000149011612',  # np.float32(0.1)
        'float 3.0',  # np.int64(3)
        'float 1.5',  # Fraction(3, 2)
        'ValueError: r1 must be a number, not a boolean, got True',  # True
        'ValueError: r1 must be finite, got int beyond the float range',  # 10**400
        'ValueError: r1 must be finite, got int beyond the float range',  # -10**400
        'ValueError: r1 must be finite, got Fraction beyond the float range',  # Fraction(10**400)
    ),
    HalfPlane: (
        'float 1.5',  # 1.5
        'float 0.0',  # 0.0
        'float -0.0',  # -0.0
        'float 5e-324',  # 5e-324
        'float 1.7976931348623157e+308',  # 1.7976931348623157e308
        'float -1.0',  # -1.0
        'ValueError: a must be finite, got inf',  # inf
        'ValueError: a must be finite, got -inf',  # -inf
        'ValueError: a must be finite, got nan',  # nan
        'float 3.0',  # 3
        'float 2.5',  # np.float64(2.5)
        'float 0.10000000149011612',  # np.float32(0.1)
        'float 3.0',  # np.int64(3)
        'float 1.5',  # Fraction(3, 2)
        'ValueError: a must be a number, not a boolean, got True',  # True
        'ValueError: a must be finite, got int beyond the float range',  # 10**400
        'ValueError: a must be finite, got int beyond the float range',  # -10**400
        'ValueError: a must be finite, got Fraction beyond the float range',  # Fraction(10**400)
    ),
}


def _call_outcome(fn, value):
    try:
        result = fn(value)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"{type(result).__name__} {result!r}"


def _outcome(cls, field, value):
    fields = {name: 1.0 for name in cls.__dataclass_fields__}
    return _call_outcome(lambda v: getattr(cls(**{**fields, field: v}), field), value)


@pytest.mark.parametrize("cls", DOMAIN, ids=lambda cls: cls.__name__)
def test_value_type_domain(cls):
    first, *others = cls.__dataclass_fields__
    for field in (first, *others):
        expected = tuple(row.replace(f": {first} ", f": {field} ") for row in DOMAIN[cls])
        assert tuple(_outcome(cls, field, v) for v in DOMAIN_INPUTS) == expected, field


@pytest.mark.parametrize("a, b", [(0.0, 0.0), (-0.0, 0.0), (0, Fraction(0))])
def test_half_plane_refuses_zero_normal(a, b):
    with pytest.raises(ValueError, match=r"^half-plane normal \(a, b\) must be nonzero$"):
        HalfPlane(a, b, 1.0)


@pytest.mark.parametrize(
    "duration", [3, Fraction(1, 2), np.float64(0.25)], ids=["int", "Fraction", "np.float64"]
)
def test_phase_stores_duration_as_float(duration):
    phase = Phase(duration, RatePair(1.0, 0.0), frozenset({1}))
    assert type(phase.duration) is float
    assert phase.duration == duration


# A `Phase` duration and `gamma`'s argument pass an exact float in range on a
# fast path; every other input takes the full checks, as the value types do.
PHASE_DURATION = (
    'float 1.5',  # 1.5
    'float 0.0',  # 0.0
    'float -0.0',  # -0.0
    'float 5e-324',  # 5e-324
    'float 1.7976931348623157e+308',  # 1.7976931348623157e308
    'ValueError: phase duration must be >= 0, got -1.0',  # -1.0
    'ValueError: duration must be finite, got inf',  # inf
    'ValueError: duration must be finite, got -inf',  # -inf
    'ValueError: duration must be finite, got nan',  # nan
    'float 3.0',  # 3
    'float 2.5',  # np.float64(2.5)
    'float 0.10000000149011612',  # np.float32(0.1)
    'float 3.0',  # np.int64(3)
    'float 1.5',  # Fraction(3, 2)
    'ValueError: duration must be a number, not a boolean, got True',  # True
    'ValueError: duration must be finite, got int beyond the float range',  # 10**400
    'ValueError: duration must be finite, got int beyond the float range',  # -10**400
    'ValueError: duration must be finite, got Fraction beyond the float range',  # Fraction(10**400)
)
GAMMA = (
    'float 0.6609640474436812',  # 1.5
    'float 0.0',  # 0.0
    'float -0.0',  # -0.0
    'float 5e-324',  # 5e-324
    'float 512.0',  # 1.7976931348623157e308
    'ValueError: gamma is defined for finite x >= 0, got -1.0',  # -1.0
    'ValueError: gamma is defined for finite x >= 0, got inf',  # inf
    'ValueError: gamma is defined for finite x >= 0, got -inf',  # -inf
    'ValueError: gamma is defined for finite x >= 0, got nan',  # nan
    'float 1.0',  # 3
    'float 0.9036774610288021',  # np.float64(2.5)
    'float 0.06875176285214162',  # np.float32(0.1)
    'float 1.0',  # np.int64(3)
    'float 0.6609640474436812',  # Fraction(3, 2)
    'ValueError: x must be a number, not a boolean, got True',  # True
    'ValueError: x must be finite, got int beyond the float range',  # 10**400
    'ValueError: x must be finite, got int beyond the float range',  # -10**400
    'ValueError: x must be finite, got Fraction beyond the float range',  # Fraction(10**400)
)


def test_phase_duration_domain():
    def duration(value):
        return Phase(value, RatePair(1.0, 0.0), frozenset({1})).duration

    assert tuple(_call_outcome(duration, v) for v in DOMAIN_INPUTS) == PHASE_DURATION


def test_gamma_domain():
    assert tuple(_call_outcome(gamma, v) for v in DOMAIN_INPUTS) == GAMMA
    # one division by ln 4 is 0.5*log1p(x)/ln 2, bit for bit, wherever the half is normal
    rng = np.random.default_rng(11)
    for x in [*np.exp(rng.uniform(-700.0, 709.0, 2000)), *rng.uniform(0.0, 1e-300, 50)]:
        x = float(x)
        assert 0.5 * math.log1p(x) >= sys.float_info.min, x
        assert gamma(x) == 0.5 * math.log1p(x) / math.log(2.0), x


# Inputs that are neither finite floats nor real numbers; each is refused
# with a message naming the field, where `float()` used to convert or choke.
NOT_REAL = ("3", None, 1 + 0j, np.complex128(2), Decimal("1.5"))
NOT_REAL_IDS = ("str", "None", "complex", "np.complex128", "Decimal")


@pytest.mark.parametrize("bad", NOT_REAL, ids=NOT_REAL_IDS)
@pytest.mark.parametrize("cls", DOMAIN, ids=lambda cls: cls.__name__)
def test_value_types_refuse_non_reals(cls, bad):
    for field in cls.__dataclass_fields__:
        assert _outcome(cls, field, bad) == f"ValueError: {field} must be a real number, got {bad!r}"


@pytest.mark.parametrize("bad", NOT_REAL, ids=NOT_REAL_IDS)
def test_gamma_refuses_non_reals(bad):
    assert _call_outcome(gamma, bad) == f"ValueError: x must be a real number, got {bad!r}"


@pytest.mark.parametrize("bad", NOT_REAL, ids=NOT_REAL_IDS)
def test_ratio_and_grid_bounds_refuse_non_reals(bad):
    with pytest.raises(ValueError, match="c must be a real number"):
        ConstrainedRateQuery(R, bad)
    with pytest.raises(ValueError, match="must be a real number"):
        GridSpec(16, (bad, 2.0), (0.5, 2.0))
