import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval
from oracles import (
    funk_hecke_factor,
    gegenbauer,
    gegenbauer_derivative,
    dense_gauss_rule,
    gegenbauer_roots,
    gegenbauer_squared_norm,
)
from scipy.special import eval_gegenbauer, eval_legendre, roots_gegenbauer, roots_legendre

from sphereframes.special_functions import (
    gegenbauer_all,
    gegenbauer_connection,
    surface_area,
    zonal_gauss_rule,
)
from sphereframes.wavelet_spectra import _theta_derivative_tableau


def test_low_degree_values():
    assert gegenbauer(0.5, 0, 0.7) == 1.0
    assert gegenbauer(1.0, 1, 0.3) == pytest.approx(0.6, abs=1e-15)
    # Legendre P_3(t) = (5 t^3 - 3 t)/2
    assert gegenbauer(0.5, 3, 0.5) == pytest.approx(-0.4375, abs=1e-14)


def test_matches_scipy_reference():
    t = np.linspace(-1, 1, 41)
    for lam in (0.5, 1.0, 1.5, 2.5):
        for l in (0, 1, 2, 5, 11, 20):
            ref = eval_gegenbauer(l, lam, t)
            got = gegenbauer(lam, l, t)
            np.testing.assert_allclose(got, ref, rtol=1e-11, atol=1e-11)


def test_half_integer_is_legendre():
    t = np.linspace(-1, 1, 17)
    for l in range(8):
        np.testing.assert_allclose(
            gegenbauer(0.5, l, t), eval_legendre(l, t), rtol=1e-12, atol=1e-13
        )


@pytest.mark.parametrize("lam", [0.5, 1.0, 1.5])
def test_connection_coefficients_match_stacks(lam):
    # poly(t) C^{lam+k}_m(t) re-expanded in C^lam, for every y1 polynomial of
    # the derivative tableaux through d = 3 and the zonal k = 0 term
    t = np.random.default_rng(int(2 * lam)).uniform(-1.0, 1.0, 60)
    terms = [(0, np.ones(1))] + [
        (k, tab[:, j])
        for d in range(1, 4)
        for k, tab in enumerate(_theta_derivative_tableau(d), start=1)
        for j in range(tab.shape[1])
        if tab[:, j].any()
    ]
    top = 64
    for k, poly in terms:
        series = gegenbauer_connection(lam, k, poly, np.eye(top + 1))
        got = series @ gegenbauer_all(lam, series.shape[1] - 1, t)
        want = polyval(t, poly) * gegenbauer_all(lam + k, top, t)
        err = np.max(np.abs(got - want), axis=1) / np.max(np.abs(want), axis=1)
        assert np.max(err) <= 1e-12, (k, poly)


def test_stack_agrees_with_single_degree():
    t = np.linspace(-0.99, 0.99, 23)
    stack = gegenbauer_all(1.0, 12, t)
    assert stack.shape == (13, 23)
    for l in (0, 3, 12):
        np.testing.assert_allclose(stack[l], gegenbauer(1.0, l, t), rtol=1e-13)


@settings(max_examples=60, deadline=None)
@given(
    l=st.integers(min_value=0, max_value=25),
    lam=st.sampled_from([0.5, 1.0, 2.0]),
    t=st.floats(min_value=-1.0, max_value=1.0),
)
def test_parity_property(l, lam, t):
    # C_l(-t) = (-1)^l C_l(t)
    left = gegenbauer(lam, l, -t)
    right = (-1.0) ** l * gegenbauer(lam, l, t)
    assert left == pytest.approx(right, rel=1e-10, abs=1e-10)


def test_generating_function_partial_sum():
    # sum_l C_l(t) r^l = (1 - 2 t r + r^2)^(-lam) for |r| < 1
    for lam in (0.5, 1.0):
        for r in (0.1, 0.3):
            L = int(math.ceil(math.log(1e-14) / math.log(r)))
            for t in (-0.8, 0.0, 0.6):
                s = sum(gegenbauer(lam, l, t) * r**l for l in range(L + 1))
                closed = (1 - 2 * t * r + r * r) ** (-lam)
                assert s == pytest.approx(closed, rel=1e-10)


def test_derivative_identity_and_fd():
    t = np.linspace(-0.9, 0.9, 7)
    for lam in (0.5, 1.0):
        for l in (1, 4, 9):
            d1 = gegenbauer_derivative(lam, l, t, 1)
            np.testing.assert_allclose(
                d1, 2 * lam * gegenbauer(lam + 1, l - 1, t), rtol=1e-13
            )
            h = 1e-5
            fd = (
                8 * (eval_gegenbauer(l, lam, t + h) - eval_gegenbauer(l, lam, t - h))
                - (eval_gegenbauer(l, lam, t + 2 * h) - eval_gegenbauer(l, lam, t - 2 * h))
            ) / (12 * h)
            np.testing.assert_allclose(d1, fd, rtol=1e-7, atol=1e-7)


def test_second_derivative_matches_fd():
    h = 1e-4
    for lam, l, t in ((1.0, 3, 0.2), (0.5, 6, -0.4)):
        d2 = gegenbauer_derivative(lam, l, t, 2)
        fd = (
            eval_gegenbauer(l, lam, t + h)
            - 2 * eval_gegenbauer(l, lam, t)
            + eval_gegenbauer(l, lam, t - h)
        ) / h**2
        assert d2 == pytest.approx(fd, rel=1e-6)


def test_derivative_order_above_degree_vanishes():
    assert gegenbauer_derivative(1.0, 2, 0.3, 5) == 0.0
    assert gegenbauer_derivative(0.5, 2, 0.0, 1) == pytest.approx(0.0, abs=1e-15)
    assert gegenbauer_derivative(0.5, 1, 0.9, 1) == pytest.approx(1.0, rel=1e-14)


def test_squared_norm_against_quadrature():
    assert gegenbauer_squared_norm(0.5, 0) == pytest.approx(2.0, rel=1e-14)
    assert gegenbauer_squared_norm(0.5, 1) == pytest.approx(2.0 / 3.0, rel=1e-14)
    for lam in (0.5, 1.0, 2.0):
        t, w = zonal_gauss_rule(lam, 40)
        for l in (0, 2, 7, 15):
            quad = float(np.dot(gegenbauer(lam, l, t) ** 2, w))
            assert gegenbauer_squared_norm(lam, l) == pytest.approx(quad, rel=1e-12)


def test_orthogonality_under_matched_weight():
    for lam in (0.5, 1.0):
        t, w = zonal_gauss_rule(lam, 30)
        for l, lp in ((0, 1), (2, 5), (7, 12)):
            inner = float(np.dot(gegenbauer(lam, l, t) * gegenbauer(lam, lp, t), w))
            assert abs(inner) < 1e-12


def test_gauss_rule_total_weight():
    # int (1-t^2)^(lam-1/2) dt = sqrt(pi) Gamma(lam+1/2) / Gamma(lam+1)
    for lam in (0.5, 1.0, 1.5, 3.0):
        _, w = zonal_gauss_rule(lam, 25)
        expect = math.sqrt(math.pi) * math.gamma(lam + 0.5) / math.gamma(lam + 1.0)
        assert float(w.sum()) == pytest.approx(expect, rel=1e-13)


@pytest.mark.parametrize("lam", [0.5, 1.0, 1.5])
def test_gauss_nodes_match_40_digit_roots(lam):
    # the nodes are symmetric about 0, so the first half and its mirror
    # image give every 40-digit root
    for npts in (9, 65, 129, 257):
        t, _ = zonal_gauss_rule(lam, npts)
        assert np.array_equal(t, -t[::-1])
        half = gegenbauer_roots(lam, npts, t[: (npts + 1) // 2])
        ref = roots_legendre(npts)[0] if lam == 0.5 else roots_gegenbauer(npts, lam)[0]
        with mpmath.workdps(40):
            exact = half + [-x for x in reversed(half[: npts // 2])]
            ours, theirs = (
                max(abs(float(mpmath.mpf(float(x)) - r)) for x, r in zip(nodes, exact))
                for nodes in (t, ref)
            )
        assert ours <= 1e-16, (lam, npts)
        assert ours <= theirs, (lam, npts)


@pytest.mark.parametrize("lam", [0.5, 1.0, 1.5])
def test_half_size_gauss_rule_matches_dense(lam):
    for npts in (1, 2, 3, 65, 513, 801):
        t, w = zonal_gauss_rule(lam, npts)
        t_ref, w_ref = dense_gauss_rule(lam, npts)
        assert np.max(np.abs(t - t_ref)) <= 1e-15
        assert np.max(np.abs(w / w_ref - 1.0)) <= 1e-14
        if npts % 2:
            assert t[npts // 2] == 0.0


def test_funk_hecke_factor_known_values():
    # n=2: (4 pi)^(1/2) l! Gamma(1/2) / Gamma(1+l) = 2 pi for every l
    for l in (0, 1, 5, 40):
        assert funk_hecke_factor(2, l) == pytest.approx(2 * math.pi, rel=1e-13)
    # n=3: 4 pi l! / (l+1)! = 4 pi / (l+1)
    for l in (0, 1, 7):
        assert funk_hecke_factor(3, l) == pytest.approx(4 * math.pi / (l + 1), rel=1e-13)


def test_funk_hecke_factor_stable_at_large_degree():
    v = funk_hecke_factor(5, 256)
    assert 0.0 < v < 1.0  # decays with degree; must not overflow or hit zero


def test_surface_area_values():
    assert surface_area(1) == pytest.approx(2 * math.pi, rel=1e-15)
    assert surface_area(2) == pytest.approx(4 * math.pi, rel=1e-15)
    assert surface_area(3) == pytest.approx(2 * math.pi**2, rel=1e-15)


def test_argument_validation():
    with pytest.raises(ValueError):
        gegenbauer(0.5, 2, 1.5)
    with pytest.raises(ValueError):
        gegenbauer(0.5, -1, 0.0)
    with pytest.raises(ValueError):
        gegenbauer(-1.0, 2, 0.0)
    with pytest.raises(ValueError):
        zonal_gauss_rule(0.5, 0)


def test_legendre_rule_integrates_square():
    t, w = zonal_gauss_rule(0.5, 10)
    assert float(np.dot(t * t, w)) == pytest.approx(2.0 / 3.0, rel=1e-13)
