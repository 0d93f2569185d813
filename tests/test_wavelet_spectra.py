import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    SpectralTruncationWarning,
    beta_tail_indicator,
    directional_coeffs,
    eval_directional_wavelet,
    grid_response_norms,
    polynomial_residual,
    quadrature_beta,
    riemann_beta,
    scale_quadrature,
    spectral_cutoff,
)
from sphereframes import wavelet_spectra
from sphereframes.harmonics import all_indices, build_sphere_grid, dim_harmonic, synthesize
from sphereframes.scale_grid import ScaleGrid, discrete_beta, scale_grid_for_profile
from sphereframes.wavelet_spectra import (
    PRESET_NAMES,
    SpectralProfile,
    _DegreePart,
    _envelope_roots,
    _scale_energies,
    beta_numeric,
    build_beta_table,
    degree_response_norms,
    ladder_beta,
    make_preset,
    profile_order,
    wavelet_bounds,
    zonal_hat,
)

AP = make_preset("abel-poisson", 2)


def custom_profile(d):
    # q(0) > 0, non-integer exponents and a non-unit amplitude
    return SpectralProfile(a=1.3, b=0.7, c=1.5, q=(0.5, 1.0, 0.25), d=d, amplitude=2.0)


def oracle_profiles(n, d):
    return [make_preset(name, n, d=d) for name in PRESET_NAMES] + [custom_profile(d)]


def test_zonal_hat_literal_formula():
    prof = SpectralProfile(a=2.0, b=1.5, c=3.0, q=(0.0, 1.0, 0.5), amplitude=1.7)
    n, rho, l = 2, 0.8, 4
    lam = 0.5
    s = rho**2.0 * (4.0 + 0.5 * 16.0) ** 1.5
    expect = 1.7 * s**3.0 * math.exp(-s) * (l + lam) / lam
    assert zonal_hat(prof, rho, l, n) == pytest.approx(expect, rel=1e-14)
    # vectorized degree argument agrees with scalars
    ls = np.arange(6)
    hats = zonal_hat(prof, rho, ls, n)
    for l in ls:
        assert hats[l] == pytest.approx(zonal_hat(prof, rho, int(l), n), rel=1e-15)


def test_zonal_hat_broadcasts_scales_against_degrees():
    prof = SpectralProfile(a=2.0, b=1.5, c=3.0, q=(0.0, 1.0, 0.5), amplitude=1.7)
    rhos = np.array([0.3, 0.8, 2.0])
    ls = np.arange(7)
    hats = zonal_hat(prof, rhos[:, None], ls, 3)
    assert hats.shape == (3, 7)
    for row, rho in zip(hats, rhos):
        # numpy's vectorized power may round rho^a apart from the scalar power
        np.testing.assert_allclose(row, zonal_hat(prof, float(rho), ls, 3), rtol=1e-15)
    for bad in (0.0, -0.5):
        with pytest.raises(ValueError, match=f"scale must be positive, got {bad}"):
            zonal_hat(prof, np.array([0.5, bad, 1.0])[:, None], ls, 3)
    negative = SpectralProfile(a=1.0, b=1.0, c=1.0, q=(1.0, 0.5, -0.5))  # q(2) = 0
    with pytest.raises(ValueError, match=r"^q\(2\) <= 0: the spectrum needs q\(l\) > 0 at every degree l >= 1$"):
        zonal_hat(negative, rhos[:, None], ls, 3)


def test_presets():
    assert AP.a == AP.b == AP.c == 1.0 and AP.q == (0.0, 1.0) and AP.d == 0
    gw2 = make_preset("gauss-weierstrass", 2)
    assert gw2.q == (0.0, 1.0, 1.0)  # l (l + 2 lam) at lam = 1/2
    gw3 = make_preset("gauss-weierstrass", 3)
    assert gw3.q == (0.0, 2.0, 1.0)
    p3 = make_preset("poisson", 2, order=3)
    assert p3.c == 3.0 and p3.q == (0.0, 1.0)
    with pytest.raises(ValueError):
        make_preset("unknown", 2)
    with pytest.raises(ValueError):
        make_preset("poisson", 2, order=0)


def test_profile_validation():
    with pytest.raises(ValueError):
        SpectralProfile(a=0.0, b=1.0, c=1.0, q=(0.0, 1.0))
    with pytest.raises(ValueError):
        SpectralProfile(a=1.0, b=1.0, c=1.0, q=(0.0,))  # degree-0 q
    bad = SpectralProfile(a=1.0, b=1.0, c=1.0, q=(0.0, -1.0))
    with pytest.raises(ValueError, match=r"^q\(1\) <= 0"):
        bad.validate_positive(4)
    # an integral d only: a float d once failed deep inside every beta table
    for d in (2.0, 2.5, -1, "2"):
        with pytest.raises(ValueError, match=f"^derivative order must be an integer >= 0, got {d}$"):
            SpectralProfile(a=1.0, b=1.0, c=1.0, q=(0.0, 1.0), d=d)
    prof = SpectralProfile(a=1.0, b=1.0, c=1.0, q=(0.0, 1.0), d=np.int64(2))
    assert type(prof.d) is int and prof.d == 2
    prof = SpectralProfile(a=2.0, b=3.0, c=1.0, q=(0.0, 0.0, 1.0))
    assert prof.gamma == 2
    assert prof.tilde_exponent == pytest.approx(2.0 / 6.0)


def test_profile_order():
    assert profile_order(AP) == 0  # q(0) = 0
    assert profile_order(make_preset("abel-poisson", 2, d=1)) == 0
    flat = SpectralProfile(a=1.0, b=1.0, c=1.0, q=(1.0, 1.0))
    assert profile_order(flat) == -1  # beta(0) > 0: no vanishing moment


def ladder_norm_sq_expanded(lam, d, l):
    """||T^d e_0||^2 expanded by hand for d <= 3; couplings past degree l vanish."""
    b0, b1, b2 = (ladder_beta(lam, l, i) if i < l else 0.0 for i in range(3))
    return [
        1.0,
        b0**2,
        b0**2 * (b0**2 + b1**2),
        (b0 * b1 * b2) ** 2 + b0**2 * (b0**2 + b1**2) ** 2,
    ][d]


@pytest.mark.parametrize("n", [2, 3])
def test_ladder_identity(n):
    # the derivative responses relate to the zonal one through the
    # order-coupling coefficients: R_d(l) / R_0(l) = ||T_l^d e_0||^2,
    # e.g. beta_{l,0}^2 for the first derivative
    lam = (n - 1) / 2
    R0 = degree_response_norms(n, 0, 10)
    for d in range(1, 4):
        Rd = degree_response_norms(n, d, 10)
        grid = grid_response_norms(n, d, 10)
        for l in range(1, 11):
            expect = ladder_norm_sq_expanded(lam, d, l)
            assert Rd[l] / R0[l] == pytest.approx(expect, rel=5e-13)
            assert grid[l] / R0[l] == pytest.approx(expect, rel=5e-13)
        assert Rd[0] == grid[0] == 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_response_norms_match_grid_oracle(n):
    for d in range(5):
        np.testing.assert_allclose(
            degree_response_norms(n, d, 12), grid_response_norms(n, d, 12), rtol=1e-12, atol=0
        )


def test_theta_derivative_tableau_is_empty_when_zonal():
    assert wavelet_spectra._theta_derivative_tableau(0) == ()


@pytest.mark.parametrize("d", range(1, 7))
def test_theta_derivative_tableau_differentiates_a_rotated_power(d):
    # psi(t) = t^N along t(Theta) = y1 cos(Theta) + y2 sin(Theta): d! times
    # the Theta^d Taylor coefficient of psi(t(Theta)) against
    # sum_k T[k](y1, y2) psi^(k)(y1), psi^(k)(y1) = N!/(N - k)! y1^(N - k)
    N = 8
    tables = wavelet_spectra._theta_derivative_tableau(d)
    assert len(tables) == d
    powers = np.arange(d + 1)
    factorials = np.array([math.factorial(k) for k in powers], dtype=float)
    cos = np.where(powers % 2 == 0, (-1.0) ** (powers // 2), 0.0) / factorials
    sin = np.where(powers % 2 == 1, (-1.0) ** (powers // 2), 0.0) / factorials
    for y1, y2 in ((0.3, -0.7), (-0.8, 0.45), (0.6, 0.8)):
        series = np.array([1.0])
        for _ in range(N):
            series = np.convolve(series, y1 * cos + y2 * sin)[: d + 1]
        want = factorials[d] * series[d]
        got = sum(
            (tab * np.outer(y1**powers, y2**powers)).sum()
            * math.perm(N, k)
            * y1 ** (N - k)
            for k, tab in enumerate(tables, start=1)
        )
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_ladder_beta_values_and_guards():
    # lam = 1/2, iota = 0 is a removable singularity; the limit is
    # sqrt(l (l + 1) / 2)
    assert ladder_beta(0.5, 2, 0) == pytest.approx(math.sqrt(3.0), rel=1e-14)
    assert ladder_beta(0.5, 1, 0) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        ladder_beta(0.5, 2, 3)
    with pytest.raises(ValueError):
        ladder_beta(0.5, 2, -1)


def test_zonal_beta_is_gamma_ratio():
    # beta(l) = Gamma(2c) / 4^c for d=0, a=1, independent of q and of l
    cases = [
        (make_preset("abel-poisson", 2), 0.25),
        (make_preset("gauss-weierstrass", 2), 0.25),
        (make_preset("poisson", 2, order=2), 0.375),
        (make_preset("poisson", 2, order=3), 1.875),
    ]
    for prof, expect in cases:
        table = build_beta_table(2, prof, 8)
        np.testing.assert_allclose(table.values[1:], expect, rtol=1e-10)
        assert table.values[0] == 0.0
        A, B = wavelet_bounds(table)
        assert A == pytest.approx(B, rel=1e-12)


def test_abel_poisson_directional_closed_form():
    # first derivative on S^2: beta(l) = 3 (l + 1) / (16 l)
    prof = make_preset("abel-poisson", 2, d=1)
    table = build_beta_table(2, prof, 16)
    for l in range(1, 17):
        assert table.values[l] == pytest.approx(3 * (l + 1) / (16 * l), rel=1e-9)
    assert table.values[0] == 0.0
    assert table.A == pytest.approx(3 * 17 / (16 * 16), rel=1e-9)  # min at l = L
    assert table.B == pytest.approx(0.375, rel=1e-9)  # max at l = 1


@pytest.mark.parametrize("n,d", [(n, d) for n in (2, 3, 4) for d in range(4)])
def test_polynomiality_and_closed_form(n, d):
    ls = range(1, 13)
    R = grid_response_norms(n, d, 12)
    for prof in oracle_profiles(n, d):
        for l in ls:
            exact = beta_numeric(n, prof, l)
            assert exact == pytest.approx(quadrature_beta(n, prof, l, R[l]), rel=1e-12)
        # beta / (amp^2 Gamma(2c') / (a 4^c') q^(-2d/gamma)) = ||T_l^d e_0||^2, a
        # polynomial of degree 2d in l
        cprime = prof.c + d / (prof.gamma * prof.b)
        head = prof.amplitude**2 * math.gamma(2 * cprime) / (prof.a * 4**cprime)
        ladder = [
            beta_numeric(n, prof, l) * prof.q_eval(l) ** (2 * d / prof.gamma) / head
            for l in ls
        ]
        assert polynomial_residual(ls, ladder, 2 * d) <= 1e-8


def test_beta_numeric_quadrature_consistency():
    # the scale quadrature integrates the summed per-degree energy to
    # N(n, l) * beta(l); beta is the mean over the degree space
    prof = make_preset("gauss-weierstrass", 2, d=1)
    l = 3
    rhos, wts = scale_quadrature(prof, l, panels=64)
    energies = _scale_energies(rhos[:, None], _DegreePart(prof, 2, np.array([l])))
    total = float(np.dot(wts, energies[:, 0]))
    assert total / dim_harmonic(2, l) == pytest.approx(
        beta_numeric(2, prof, l), rel=1e-12
    )
    R = grid_response_norms(2, 1, l)[l]
    assert quadrature_beta(2, prof, l, R) == pytest.approx(
        beta_numeric(2, prof, l), rel=1e-12
    )


@pytest.mark.parametrize("n,d,L", [(n, d, L) for n in (2, 3, 4) for d in range(3) for L in (8, 64)])
def test_degree_arrays_match_oracles_and_scalar_calls(n, d, L):
    # one call over every degree above the order agrees with the literal
    # spectrum taken one degree at a time: beta_numeric with its scale
    # quadrature, discrete_beta with its Riemann sum on the profile's grid
    R = degree_response_norms(n, d, L)
    for prof in oracle_profiles(n, d):
        ls = np.arange(profile_order(prof) + 1, L + 1)
        grid = scale_grid_for_profile(n, prof, 1.5, L)
        cont = beta_numeric(n, prof, ls)
        disc = discrete_beta(n, prof, grid, ls)
        quad = [quadrature_beta(n, prof, int(l), R[l]) for l in ls]
        riemann = [riemann_beta(n, prof, grid, int(l), R[l]) for l in ls]
        np.testing.assert_allclose(cont, quad, rtol=1e-14, atol=0)
        np.testing.assert_allclose(disc, riemann, rtol=1e-14, atol=0)
        one = [beta_numeric(n, prof, int(l)) for l in ls]
        np.testing.assert_allclose(cont, one, rtol=1e-14, atol=0)
        one = [discrete_beta(n, prof, grid, int(l)) for l in ls]
        np.testing.assert_allclose(disc, one, rtol=1e-14, atol=0)
        assert all(type(x) is float for x in one)


def test_degree_arrays_zero_at_the_order_and_checked_once():
    prof = make_preset("abel-poisson", 2, d=1)
    grid = scale_grid_for_profile(2, prof, 1.5, 4)
    for values in (beta_numeric(2, prof, np.arange(5)), discrete_beta(2, prof, grid, np.arange(5))):
        assert values.shape == (5,) and values[0] == 0.0 and np.all(values[1:] > 0)
    with pytest.raises(ValueError, match="degree must be >= 0, got -1"):
        beta_numeric(2, prof, np.array([2, -1]))
    with pytest.raises(ValueError, match="degree must be >= 0, got -1"):
        discrete_beta(2, prof, grid, np.array([2, -1]))


def test_beta_table_includes_degree_zero_when_q0_positive():
    # q(0) > 0 leaves no vanishing moment: beta(0) = Gamma(2c) / (a 4^c) too
    prof = SpectralProfile(a=1.0, b=1.0, c=1.0, q=(1.0, 1.0))
    table = build_beta_table(2, prof, 6)
    assert table.m == -1
    np.testing.assert_allclose(table.values, 0.25, rtol=1e-14)
    assert table.A == pytest.approx(0.25) and table.B == pytest.approx(0.25)
    fine = ScaleGrid(100.0, 1.05, 480)
    assert discrete_beta(2, prof, fine, 0) == pytest.approx(0.25, rel=1e-10)


def test_amplitude_scales_beta_quadratically():
    import dataclasses

    prof = make_preset("abel-poisson", 2, d=1)
    doubled = dataclasses.replace(prof, amplitude=2.0)
    for l in (1, 4):
        assert beta_numeric(2, doubled, l) == pytest.approx(
            4.0 * beta_numeric(2, prof, l), rel=1e-12
        )


def test_directional_sparsity_pattern():
    n, L, rho = 2, 8, 0.7
    for d in (1, 2):
        prof = make_preset("abel-poisson", n, d=d)
        dc = directional_coeffs(prof, rho, n, L)
        assert dc.surviving_orders() == tuple(range(d % 2, d + 1, 2))
        for idx, v in zip(all_indices(n, L), dc.coeffs.values):
            if abs(idx.k[0]) not in dc.surviving_orders():
                assert v == 0.0


def test_directional_coeffs_reproduce_samples():
    n, L, rho = 2, 8, 0.7
    prof = make_preset("abel-poisson", n, d=2)
    grid = build_sphere_grid(n, L)
    dc = directional_coeffs(prof, rho, n, L, grid)
    samples = eval_directional_wavelet(prof, rho, n, grid.angles, L, check_tail=False)
    back = synthesize(dc.coeffs, grid)
    np.testing.assert_allclose(back.real, samples, atol=1e-10)
    np.testing.assert_allclose(back.imag, 0.0, atol=1e-10)


def test_spectral_cutoff():
    prof = make_preset("abel-poisson", 2)
    rho = 0.5
    L = spectral_cutoff(prof, rho, 2, tol=1e-12)
    hats = zonal_hat(prof, rho, np.arange(L + 11), 2)
    peak = hats.max()
    assert hats[L] <= 1e-12 * peak
    assert hats[max(L - 5, 0)] > 1e-12 * peak  # not wastefully large
    assert spectral_cutoff(prof, 2.0, 2) < spectral_cutoff(prof, 0.1, 2)


def test_truncation_warning():
    prof = make_preset("abel-poisson", 2)
    with pytest.warns(SpectralTruncationWarning):
        eval_directional_wavelet(prof, 0.05, 2, np.array([0.3, 0.1]), 8)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eval_directional_wavelet(prof, 2.0, 2, np.array([0.3, 0.1]), 32)


def test_beta_table_structure():
    prof = make_preset("abel-poisson", 2, d=1)
    table = build_beta_table(2, prof, 8)
    assert table.m == 0 and table.L == 8 and len(table.values) == 9
    text = table.to_csv()
    assert text.startswith("# dimension=2 band_limit=8 order=0")
    assert text.splitlines()[1] == "l,beta,A,B"
    assert len(text.splitlines()) == 11
    R = grid_response_norms(2, 1, 8)
    oracle = [quadrature_beta(2, prof, l, R[l]) for l in range(1, 9)]
    np.testing.assert_allclose(table.values[1:], oracle, rtol=1e-12)
    with pytest.raises(ValueError):
        build_beta_table(2, prof, 0)  # no degrees above the order


def test_tail_indicator_frozen():
    prof = make_preset("abel-poisson", 2, d=1)
    table = build_beta_table(2, prof, 32)
    # 3 (l+1) / (16 l) gives |beta(32) - beta(16)| / beta(32) = 1/33
    assert beta_tail_indicator(table) == pytest.approx(1.0 / 33.0, rel=1e-6)
    short = build_beta_table(2, prof, 1)
    with pytest.raises(ValueError):
        beta_tail_indicator(short)


@settings(max_examples=30, deadline=None)
@given(
    rho=st.floats(min_value=0.05, max_value=5.0),
    l=st.integers(min_value=1, max_value=24),
    c=st.sampled_from([1.0, 2.0]),
)
def test_hat_positive_above_order(rho, l, c):
    prof = SpectralProfile(a=1.0, b=1.0, c=c, q=(0.0, 1.0))
    assert zonal_hat(prof, rho, l, 2) > 0.0
    assert zonal_hat(prof, rho, 0, 2) == 0.0


@pytest.mark.parametrize("tol", [1e-12, 1e-15, 1e-18])
def test_envelope_roots_match_lambert_w(tol):
    # u = -W_0(-e^kappa) and -W_{-1}(-e^kappa), kappa = ln(tol)/(2c') - 1,
    # in 50 digits from the float c' and tol; a case that reaches Newton's
    # step cap raises RuntimeError
    with mpmath.workdps(50):
        for cprime in np.geomspace(1e-3, 1e6, 400).tolist():
            log_u_lo, u_hi = _envelope_roots(cprime, tol)
            z = -mpmath.exp(mpmath.log(tol) / (2 * mpmath.mpf(cprime)) - 1)
            want_lo = mpmath.log(-mpmath.lambertw(z, 0))
            want_hi = -mpmath.lambertw(z, -1)
            assert abs(log_u_lo - want_lo) <= 1e-14 * abs(want_lo), cprime
            assert abs(u_hi - want_hi) <= 1e-14 * want_hi, cprime


def test_beta_table_equals_one_array_call():
    # the per-degree table rows are the bits of one beta_numeric array call,
    # which is what lets certify_frame read eps_hat's beta from its table, and
    # of the scalar calls that the table's one-degree views stand in for
    for name in PRESET_NAMES:
        for n in (2, 3, 4, 5):
            for d in (0, 1, 2, 3):
                prof = make_preset(name, n, d=d)
                m = profile_order(prof)
                for L in (1, 2, 3, 8, 16, 33, 64, 128):
                    rows = build_beta_table(n, prof, L).values[m + 1 :]
                    ls = np.arange(m + 1, L + 1)
                    scalar = np.array([beta_numeric(n, prof, int(l)) for l in ls])
                    assert rows.tobytes() == beta_numeric(n, prof, ls).tobytes(), (name, n, d, L)
                    assert rows.tobytes() == scalar.tobytes(), (name, n, d, L)


def test_beta_numeric_evaluates_q_once(monkeypatch):
    # the degree part evaluates and checks q(l) once; the scales with s = 1,
    # zonal_hat and the profile order read it or the coefficients
    calls = []
    q_eval = SpectralProfile.q_eval

    def counted(self, l):
        calls.append(l)
        return q_eval(self, l)

    monkeypatch.setattr(SpectralProfile, "q_eval", counted)
    for prof in (custom_profile(0), custom_profile(1), make_preset("abel-poisson", 2)):
        for l in (3, np.arange(6)):
            calls.clear()
            beta_numeric(2, prof, l)
            assert len(calls) == 1


def test_beta_table_refusals_name_the_degree_and_the_band():
    negative = SpectralProfile(a=1.0, b=1.0, c=1.0, q=(1.0, 0.5, -0.5))  # q(2) = 0
    # one check, one message, naming the first degree >= 1 with q(l) <= 0
    for refused in (
        lambda: build_beta_table(2, negative, 3),
        lambda: beta_numeric(2, negative, 2),
        lambda: beta_numeric(2, negative, np.arange(5)),
        lambda: negative.validate_positive(3),
    ):
        with pytest.raises(ValueError, match=r"^q\(2\) <= 0: the spectrum needs q\(l\) > 0 at every degree l >= 1$"):
            refused()
    assert build_beta_table(2, negative, 1).values[1] == beta_numeric(2, negative, 1)
    with pytest.raises(ValueError, match=r"^band limit 0 leaves no degrees above the order m=0$"):
        build_beta_table(2, AP, 0)
    with pytest.raises(ValueError, match="band limit -1 leaves no degrees above the order m=-1"):
        build_beta_table(2, custom_profile(0), -1)


def test_degree_part_view_equals_a_fresh_part():
    for prof in (custom_profile(0), custom_profile(2), make_preset("gauss-weierstrass", 3, d=1)):
        for n in (2, 4):
            degrees = np.arange(profile_order(prof) + 1, 9)
            whole = _DegreePart(prof, n, degrees)
            for k in range(len(degrees)):
                view = whole.at(k)
                fresh = _DegreePart(prof, n, degrees[k : k + 1])
                fresh.response_norms, fresh.dimensions  # read the lazy arrays
                assert view.profile is prof and view.n == n
                assert vars(view).keys() == vars(fresh).keys()
                for key, want in vars(fresh).items():
                    if isinstance(want, np.ndarray):
                        got = getattr(view, key)
                        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), key
                        assert np.shares_memory(got, getattr(whole, key)), key


def test_beta_table_builds_one_degree_part(monkeypatch):
    # q(l) once and one R(l) stack per table, however many degrees it has
    calls = {"q": 0, "response": 0}
    q_eval, response_norms = SpectralProfile.q_eval, wavelet_spectra._response_norms

    def counted_q(self, l):
        calls["q"] += 1
        return q_eval(self, l)

    def counted_response(*args):
        calls["response"] += 1
        return response_norms(*args)

    monkeypatch.setattr(SpectralProfile, "q_eval", counted_q)
    monkeypatch.setattr(wavelet_spectra, "_response_norms", counted_response)
    for prof in (custom_profile(0), custom_profile(1), make_preset("poisson", 3, d=2)):
        calls.update(q=0, response=0)
        build_beta_table(3, prof, 12)
        assert calls == {"q": 1, "response": 1}


def test_q_eval_is_polyval_to_the_bit():
    from numpy.polynomial.polynomial import polyval

    profiles = [make_preset(name, n) for name in PRESET_NAMES for n in (2, 5)]
    profiles += [custom_profile(0), SpectralProfile(1.0, 1.0, 1.0, (0.3, 1.7, -0.1, 2.5e-3, 1e-5))]
    for prof in profiles:
        for l in (0, 1, 7, np.int64(300), np.arange(513), np.arange(12).reshape(3, 4)):
            got, want = prof.q_eval(l), polyval(l, prof.q)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got, dtype=float).tobytes() == np.asarray(want).tobytes()
