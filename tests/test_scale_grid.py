import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import aliasing_deviation, bisect_ratio

from sphereframes import scale_grid, wavelet_spectra
from sphereframes.scale_grid import (
    EpsilonReport,
    ScaleCoverageWarning,
    ScaleGrid,
    discrete_beta,
    epsilon_report,
    find_ratio,
    scale_grid_for_profile,
)
from sphereframes.wavelet_spectra import (
    PRESET_NAMES,
    SpectralProfile,
    _scale_log_range,
    beta_numeric,
    make_preset,
    profile_order,
)

AP = make_preset("abel-poisson", 2)
AP1 = make_preset("abel-poisson", 2, d=1)


def test_geometric_grid_construction():
    grid = ScaleGrid(8.0, 2.0, 3)
    np.testing.assert_allclose(grid.scales, [8.0, 4.0, 2.0, 1.0], rtol=1e-15)
    np.testing.assert_allclose(grid.weights, math.log(2.0), rtol=1e-15)
    assert len(grid) == 4
    assert grid.rho_max == 8.0 and grid.rho_min == 1.0


def test_grid_is_its_three_numbers():
    init = [f.name for f in dataclasses.fields(ScaleGrid) if f.init]
    assert init == ["rho_max", "ratio", "count"]
    report = [f.name for f in dataclasses.fields(EpsilonReport) if f.init]
    assert report == ["degrees", "beta_continuous", "beta_discrete", "grid"]
    grid = ScaleGrid(1.0, 1.5, 3)
    assert grid == ScaleGrid(1.0, 1.5, 3) and hash(grid) == hash(ScaleGrid(1.0, 1.5, 3))
    assert grid != ScaleGrid(1.0, 1.5, 4) and len({grid, ScaleGrid(1.0, 1.5, 3)}) == 1
    assert repr(grid) == "ScaleGrid(rho_max=1.0, ratio=1.5, count=3)"
    # the arrays are made once, by the expression find_ratio's steps use
    scales, weights = scale_grid._geometric_scales(1.0, 1.5, 3)
    assert grid.scales.tobytes() == scales.tobytes()
    assert grid.weights.tobytes() == weights.tobytes()
    assert {"scales", "weights"} <= vars(grid).keys()  # held, not recomputed per read
    assert type(ScaleGrid(1.0, 1.5, np.int64(3)).count) is int


def test_construction_guards():
    for rho_max in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^rho_max must be positive and finite, got {rho_max}$"):
            ScaleGrid(rho_max, 2.0, 3)
    for ratio in (1.0, 0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^ratio must exceed 1 and be finite, got {ratio}$"):
            ScaleGrid(1.0, ratio, 3)
    for count in (-1, 2.5, 3.0):
        with pytest.raises(ValueError, match=f"^count must be an integer >= 0, got {count}$"):
            ScaleGrid(1.0, 2.0, count)
    with pytest.raises(ValueError, match="^ratio must exceed 1 and be finite, got inf$"):
        scale_grid_for_profile(2, AP1, math.inf, 8)
    # 2^-1100 rounds to 0: the smallest scale must stay positive
    with pytest.raises(ValueError, match=r"^rho_max 1.0 / 2.0\^1100 underflows to 0$"):
        ScaleGrid(1.0, 2.0, 1100)
    assert ScaleGrid(1.0, 2.0, 1074).rho_min == 2.0**-1074


@settings(max_examples=40, deadline=None)
@given(
    rho_max=st.floats(min_value=0.1, max_value=50),
    ratio=st.floats(min_value=1.01, max_value=3.0),
    count=st.integers(min_value=0, max_value=30),
)
def test_grid_steps_property(rho_max, ratio, count):
    grid = ScaleGrid(rho_max, ratio, count)
    assert len(grid) == count + 1
    steps = grid.scales[:-1] / grid.scales[1:]
    np.testing.assert_allclose(steps, ratio, rtol=1e-12)


def test_discrete_matches_continuous_when_covered():
    grid = scale_grid_for_profile(2, AP, 1.2, 8)
    for l in (1, 4, 8):
        assert discrete_beta(2, AP, grid, l) == pytest.approx(
            beta_numeric(2, AP, l), rel=1e-12
        )
    assert discrete_beta(2, AP, grid, 0) == 0.0


def test_coverage_warning_for_off_peak_grid():
    off = ScaleGrid(40.0, 1.1, 7)  # rho in [20.5, 40] misses the l=1 peak
    with pytest.warns(ScaleCoverageWarning) as record:
        val = discrete_beta(2, AP, off, 1)
    assert val < 1e-10  # nearly all the energy lies outside the grid
    assert record[0].filename == __file__  # attributed to the caller


def test_coverage_warning_names_each_truncated_degree():
    off = ScaleGrid(40.0, 1.1, 7)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        epsilon_report(2, AP1, off, 8)
    assert [w.category for w in caught] == [ScaleCoverageWarning] * 8
    named = [re.search(r"degree-(\d+) integrand", str(w.message)).group(1) for w in caught]
    assert named == [str(l) for l in range(1, 9)]
    # through epsilon_report too, the warning names the caller, not the library
    assert {w.filename for w in caught} == {__file__}


def test_epsilon_report_contents():
    grid = scale_grid_for_profile(2, AP1, 1.5, 8)
    rep = epsilon_report(2, AP1, grid, 8)
    assert isinstance(rep, EpsilonReport)
    assert list(rep.degrees) == list(range(1, 9))
    assert rep.epsilon_hat == pytest.approx(float(np.max(np.abs(rep.rel_dev))))
    lines = rep.to_csv().splitlines()
    assert lines[0] == "l,beta_continuous,beta_discrete,rel_dev"
    assert len(lines) == 9
    info = rep.summary()
    assert info["ratio"] == 1.5
    assert info["count"] == grid.count == len(grid) - 1  # ratio steps
    assert info["rho_min"] == grid.rho_min and info["rho_max"] == grid.rho_max
    assert rep.grid is grid
    assert info["epsilon_hat"] == rep.epsilon_hat


def test_deviation_ladder_frozen():
    # log-uniform sums of the smooth scale integrand converge superexponentially
    expected = [1.3316085582388531e-3, 3.3447398788409695e-7]
    eps = []
    for X0 in (2.0, 1.5, 1.2):
        grid = scale_grid_for_profile(2, AP1, X0, 16)
        eps.append(epsilon_report(2, AP1, grid, 16).epsilon_hat)
    assert eps[0] == pytest.approx(expected[0], rel=1e-6)
    assert eps[1] == pytest.approx(expected[1], rel=1e-6)
    assert eps[2] <= 1e-12
    assert eps[0] > eps[1] > eps[2]


def test_find_ratio_frozen():
    r = find_ratio(2, AP1, 8, target=1e-5)
    assert r == pytest.approx(1.6238787901262197, rel=1e-6)
    grid = scale_grid_for_profile(2, AP1, r, 8)
    assert epsilon_report(2, AP1, grid, 8).epsilon_hat <= 1e-5


def _outcome(search, *args, **kwargs):
    """The ratio a search returns, or its ValueError message, with the
    ScaleCoverageWarnings it raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            found = search(*args, **kwargs)
        except ValueError as exc:
            found = str(exc)
    return found, [str(w.message) for w in caught if w.category is ScaleCoverageWarning]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_find_ratio_equals_the_per_step_bisection(name):
    # the range and beta computed once per call change no bit of the search,
    # and no warning; every case here bisects below the upper end
    for n in (2, 3):
        for d in (0, 1):
            prof = make_preset(name, n, d=d)
            for L in (2, 8):
                for rel_tol in (1e-2, 1e-3):
                    args = (n, prof, L)
                    kwargs = dict(target=1e-6, rel_tol=rel_tol)
                    got = _outcome(find_ratio, *args, **kwargs)
                    assert got == _outcome(bisect_ratio, *args, **kwargs), (n, d, L, rel_tol)
                    assert 1.005 < got[0] < 2.0


def test_find_ratio_computes_range_and_beta_once(monkeypatch):
    calls = []

    def spy(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    spy(scale_grid, "_scale_log_range")
    spy(scale_grid, "beta_numeric")
    spy(wavelet_spectra, "beta_numeric")
    for name in PRESET_NAMES:
        calls.clear()
        ratio = find_ratio(2, make_preset(name, 2, d=1), 8, target=1e-6, rel_tol=1e-3)
        assert 1.005 < ratio < 2.0  # a search of several steps
        assert sorted(calls) == ["_scale_log_range", "beta_numeric"]


def _spy_grids(monkeypatch, limit=None):
    """The ratios of the grids find_ratio makes, in order; with a limit, a
    search that makes more grids than that fails instead of running on."""
    ratios = []
    make = scale_grid._range_scales

    def counted(log_range, ratio):
        ratios.append(ratio)
        assert limit is None or len(ratios) <= limit, "the bisection does not stop"
        return make(log_range, ratio)

    monkeypatch.setattr(scale_grid, "_range_scales", counted)
    return ratios


def test_find_ratio_builds_the_finest_grid_only_when_lo_never_moves(monkeypatch):
    ratios = _spy_grids(monkeypatch)
    finest = scale_grid._FINEST_RATIO
    for name in PRESET_NAMES:
        ratios.clear()
        found = find_ratio(2, make_preset(name, 2, d=1), 8, target=1e-6, rel_tol=1e-3)
        assert finest < found < 2.0  # lo moved, so feasibility needs no check
        assert finest not in ratios
    ratios.clear()
    with pytest.raises(ValueError, match=r"^eps_hat at X0=1\.005 already exceeds 1e-30$"):
        find_ratio(2, AP1, 8, target=1e-30)
    assert ratios[-1] == finest and ratios.count(finest) == 1  # checked last, once


def test_find_ratio_builds_the_degree_part_once(monkeypatch):
    # one degree part, and q(l) evaluated once: the scale range takes the
    # part's q
    parts, q_evals = [], []
    init, q_eval = wavelet_spectra._DegreePart.__init__, SpectralProfile.q_eval

    def counted(self, *args):
        parts.append(args)
        init(self, *args)

    def counted_q_eval(self, l):
        q_evals.append(l)
        return q_eval(self, l)

    monkeypatch.setattr(wavelet_spectra._DegreePart, "__init__", counted)
    monkeypatch.setattr(SpectralProfile, "q_eval", counted_q_eval)
    ratios = _spy_grids(monkeypatch)
    for name in PRESET_NAMES:
        profile = make_preset(name, 2, d=1)
        parts.clear()
        ratios.clear()
        q_evals.clear()
        find_ratio(2, profile, 8, target=1e-6, rel_tol=1e-3)
        assert len(ratios) > 2 and len(parts) == 1 and len(q_evals) == 1


def test_find_ratio_steps_equal_discrete_beta(monkeypatch):
    # each step's Riemann sums over the once-built degree part, on the scales
    # and weights of its ratio, are the bits of discrete_beta on the grid of
    # the step's three numbers
    made, steps = [], []
    make, means = scale_grid._range_scales, scale_grid._riemann_means

    def made_numbers(log_range, ratio):
        made.append(make(log_range, ratio))
        return made[-1]

    def recorded(scales, weights, part):
        steps.append((scales, weights, part.degrees, means(scales, weights, part)))
        return steps[-1][3]

    for name in PRESET_NAMES:
        for n in (2, 3):
            for d in (0, 1):
                prof = make_preset(name, n, d=d)
                made.clear()
                steps.clear()
                with monkeypatch.context() as m:
                    m.setattr(scale_grid, "_range_scales", made_numbers)
                    m.setattr(scale_grid, "_riemann_means", recorded)
                    find_ratio(n, prof, 8, target=1e-6, rel_tol=1e-3)
                assert len(steps) > 2 and len(steps) == len(made), (name, n, d)
                for numbers, (s, w, degrees, sums) in zip(made, steps):
                    grid = ScaleGrid(*numbers)
                    assert s.tobytes() == grid.scales.tobytes(), (name, n, d, numbers)
                    assert w.tobytes() == grid.weights.tobytes(), (name, n, d, numbers)
                    whole = discrete_beta(n, prof, grid, degrees)
                    assert whole.tobytes() == sums.tobytes(), (name, n, d, numbers)


@pytest.mark.parametrize("rel_tol", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_find_ratio_refuses_a_rel_tol_that_is_not_positive_and_finite(monkeypatch, rel_tol):
    ratios = _spy_grids(monkeypatch)
    with pytest.raises(ValueError, match="rel_tol must be a positive finite number"):
        find_ratio(2, AP1, 2, target=1e-6, rel_tol=rel_tol)
    assert ratios == []  # refused before any grid is built


@pytest.mark.parametrize("target", [math.nan, math.inf, 0.0, -1e-3])
def test_find_ratio_refuses_a_target_that_is_not_positive_and_finite(monkeypatch, target):
    # a NaN target once returned _FINEST_RATIO: no eps_hat compares <= NaN
    ratios = _spy_grids(monkeypatch)
    with pytest.raises(ValueError, match="target must be a positive finite number"):
        find_ratio(2, AP1, 2, target=target)
    assert ratios == []  # refused before any grid is built


def test_find_ratio_stops_when_the_midpoint_rounds_onto_an_end(monkeypatch):
    # below the spacing of floats near the answer the bracket can shrink no
    # further: the search stops there instead of repeating its midpoint
    ratios = _spy_grids(monkeypatch, limit=200)
    found = find_ratio(2, AP1, 2, target=1e-6, rel_tol=1e-17)
    hi = min(r for r in ratios if r > found)
    assert not found < math.sqrt(found * hi) < hi
    assert hi / found - 1.0 < 1e-15
    grid = scale_grid_for_profile(2, AP1, found, 2)
    assert epsilon_report(2, AP1, grid, 2).epsilon_hat <= 1e-6


@pytest.mark.parametrize(
    "prof",
    [
        make_preset("abel-poisson", 2, d=0),
        make_preset("abel-poisson", 2, d=1),
        make_preset("gauss-weierstrass", 2, d=1),
        make_preset("poisson", 2),
    ],
    ids=["abel-poisson-d0", "abel-poisson-d1", "gauss-weierstrass-d1", "poisson"],
)
def test_signed_deviation_matches_the_aliasing_series(prof):
    # find_ratio's per-ratio step: the grid over the once-computed range and
    # its Riemann sums against the once-computed beta
    L = 16
    m = profile_order(prof)
    degrees = np.arange(m + 1, L + 1)
    log_range = _scale_log_range(prof, prof.q_eval(degrees))
    cont = beta_numeric(2, prof, degrees)
    for X0 in (1.5, 2.0, 3.0):
        grid = ScaleGrid(*scale_grid._range_scales(log_range, X0))
        rep = scale_grid._epsilon_report(2, prof, grid, degrees, cont)
        signed = (rep.beta_discrete - rep.beta_continuous) / rep.beta_continuous
        np.testing.assert_array_equal(np.abs(signed), rep.rel_dev)
        exact = aliasing_deviation(prof, X0, grid.rho_max, degrees)
        np.testing.assert_allclose(signed, exact, rtol=0, atol=1e-13)
        assert np.max(np.abs(exact)) > 1e-9  # the series is resolved, not just small


def test_find_ratio_saturates_at_hi():
    assert find_ratio(2, AP1, 8, target=0.01) == 2.0


def test_find_ratio_infeasible_target():
    with pytest.raises(ValueError):
        find_ratio(2, AP1, 8, target=1e-30)


def test_profile_grid_covers_declared_range():
    grid = scale_grid_for_profile(2, AP1, 1.3, 12)
    # endpoints wide enough that no degree in range warns
    with warnings.catch_warnings():
        warnings.simplefilter("error", ScaleCoverageWarning)
        for l in (1, 6, 12):
            discrete_beta(2, AP1, grid, l)


def test_profile_range_is_the_union_of_degree_ranges():
    # one envelope solve, shifted per degree, gives the bits of a solve per
    # degree; the last profile's q dips to its least value at l=4
    dipping = SpectralProfile(a=1, b=1, c=1, q=(5, -2, 0.25))
    profiles = [make_preset(name, 2, d=d) for name in PRESET_NAMES for d in range(3)]
    for prof in profiles + [dipping]:
        first = profile_order(prof) + 1
        for L in (8, 64):
            q = prof.q_eval(np.arange(first, L + 1))
            ranges = [_scale_log_range(prof, q_l, 1e-15) for q_l in q]
            union = (min(r[0] for r in ranges), max(r[1] for r in ranges))
            assert _scale_log_range(prof, q, 1e-15) == union
    # so the dipping profile's grid covers every degree
    grid = scale_grid_for_profile(2, dipping, 1.2, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ScaleCoverageWarning)
        assert epsilon_report(2, dipping, grid, 8).epsilon_hat < 1e-12
    with pytest.raises(ValueError, match=r"^q\(2\) <= 0: the spectrum needs q\(l\) > 0 at every degree l >= 1$"):
        scale_grid_for_profile(2, SpectralProfile(a=1, b=1, c=1, q=(3, -2.5, 0.5)), 1.5, 8)


@pytest.mark.parametrize("c", [0.1, 0.2, 0.25, 0.3, 0.5])
def test_profile_grid_for_small_c_prime(c):
    # a bracketing solver once found no sign change for c' <= 1/4, and at
    # c = 0.5 ended the grid near 1e-13, where the degree 2-8 integrands had
    # not yet fallen to 1e-12 of their peaks
    prof = SpectralProfile(a=1, b=1, c=c, q=(0, 1))
    grid = scale_grid_for_profile(2, prof, 1.5, 8)
    u_lo, u_hi = _scale_log_range(prof, prof.q_eval(np.arange(1, 9)))
    assert grid.rho_max == math.exp(u_hi)
    assert math.log(grid.rho_min) <= u_lo < math.log(grid.rho_min * 1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert epsilon_report(2, prof, grid, 8).epsilon_hat < 1e-9
        ratio = find_ratio(2, prof, 8, target=1e-12)
        found = scale_grid_for_profile(2, prof, ratio, 8)
        assert epsilon_report(2, prof, found, 8).epsilon_hat <= 1e-12


@pytest.mark.parametrize("c", [0.1, 0.3, 0.5, 0.7, 1.0, 5.0])
def test_scale_range_ends_where_the_envelope_is_tol_of_its_peak(c):
    # q(1) = 1 and a = b = 1, so the degree-1 range is the envelope's s-range:
    # ln[(s/c')^(2c') e^(-2(s - c'))] = ln tol at both ends
    prof = SpectralProfile(a=1, b=1, c=c, q=(0, 1))
    for tol in (1e-12, 1e-15, 1e-18):
        for log_s in _scale_log_range(prof, prof.q_eval(1), tol):
            s = math.exp(log_s)
            level = 2 * c * (log_s - math.log(c)) - 2 * (s - c)
            assert level == pytest.approx(math.log(tol), rel=1e-12), (c, tol)


def test_find_ratio_builds_no_scale_grid(monkeypatch):
    # its steps take scales and weights alone, unchecked, for their sums
    grids = []
    init = ScaleGrid.__post_init__

    def counted(self):
        grids.append(self)
        init(self)

    monkeypatch.setattr(ScaleGrid, "__post_init__", counted)
    find_ratio(2, AP1, 8, target=1e-6, rel_tol=1e-3)
    with pytest.raises(ValueError, match="already exceeds"):
        find_ratio(2, AP1, 8, target=1e-30)
    assert grids == []


def test_profile_grid_refuses_a_ratio_not_above_one():
    for ratio in (1.0, 0.5, -2.0, math.nan):
        with pytest.raises(ValueError, match="ratio must exceed 1"):
            scale_grid_for_profile(2, AP1, ratio, 8)


def test_degree_zero_is_covered_when_q0_positive():
    prof = SpectralProfile(a=1, b=1, c=1, q=(1, 1))  # zonal, beta(0) > 0
    grid = scale_grid_for_profile(2, prof, 1.5, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ScaleCoverageWarning)
        val = discrete_beta(2, prof, grid, 0)
    assert val == pytest.approx(beta_numeric(2, prof, 0), rel=1e-6)
    rep = epsilon_report(2, prof, grid, 8)
    assert rep.degrees[0] == 0
