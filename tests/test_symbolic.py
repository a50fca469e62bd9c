"""Symbolic proofs of the identities the closed forms rest on.

The rate-to-time maps are the library's own `_map_rate_to_ct`, called on
sympy symbols; a symbol's sign assumptions carry its range.
"""

from types import SimpleNamespace

import pytest

sp = pytest.importorskip("sympy")

from macct.ctregion import _map_rate_to_ct  # noqa: E402

# Positive symbols for the loads, the face levels (g1, g2, g12) and the gaps between levels.
tau1, tau2, g1, g2, g12, t, a, b, c1, c2 = sp.symbols(
    "tau1 tau2 g1 g2 g12 t a b c1 c2", positive=True
)
P1, P2 = sp.symbols("P1 P2", positive=True)


def _gamma(x):
    return sp.log(1 + x) / (2 * sp.log(2))


def _equal(x, y) -> bool:
    return sp.simplify(x - y) == 0


@pytest.mark.parametrize("solo", [1, 2])
def test_cross_multiplied_case_test_is_the_solo_floor_on_top_of_the_sum_floor(solo):
    # Case I: tau2*g1 <= tau1*(g12 - g1) exactly when tau1/g1 >= tau1/g12 + tau2/g12; Case III
    # mirrors it.  The floor gap is the cross-multiplied gap over a positive product.
    floor_sum = tau1 / g12 + tau2 / g12
    if solo == 1:
        floor_gap, lhs, rhs, scale = tau1 / g1 - floor_sum, tau2 * g1, tau1 * (g12 - g1), g1 * g12
    else:
        floor_gap, lhs, rhs, scale = tau2 / g2 - floor_sum, tau1 * g2, tau2 * (g12 - g2), g2 * g12
    assert _equal(floor_gap * scale, rhs - lhs)
    assert scale.is_positive


@pytest.mark.parametrize("case", ["I", "II", "III"])
@pytest.mark.parametrize("branch", [1, 2])
def test_both_branch_maps_send_point_c_to_the_equal_time_vertex(case, branch):
    # C lies on its case's face and on the demand ray; a solo level exceeds C's coordinate by a
    # gap a or b >= 0 (0 on the face itself).  The image is (t, t), t the case's c = 1 floor.
    if case == "I":  # C = (g1, c2) on r1 = g1
        levels, c, load = (g1, c2 + b), (g1, c2), (tau1, tau1 * c2 / g1)
        floor = tau1 / g1
    elif case == "III":  # C = (c1, g2) on r2 = g2
        levels, c, load = (c1 + a, g2), (c1, g2), (tau2 * c1 / g2, tau2)
        floor = tau2 / g2
    else:  # C = (c1, c2) on r1 + r2 = g12 = c1 + c2
        levels, c, load = (c1 + a, c2 + b), (c1, c2), (t * c1, t * c2)
        floor = (load[0] + load[1]) / (c1 + c2)
    g = (*levels, None, None, None)  # the maps read only the solo levels
    image = _map_rate_to_ct(g, SimpleNamespace(tau1=load[0], tau2=load[1]), branch, c)
    assert all(_equal(d, floor) for d in image)


def test_corner_rates_are_successive_decoding_rates():
    # gamma(P1+P2) - gamma(P1) = gamma(P2/(1+P1)), and mirrored (Cover and Thomas, 15.3).
    for p, q in ((P1, P2), (P2, P1)):
        assert _equal(sp.expand_log(_gamma(P1 + P2) - _gamma(p) - _gamma(q / (1 + p)), force=True), 0)
