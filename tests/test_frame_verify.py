import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from sphereframes import frame_verify, scale_grid, wavelet_spectra
from sphereframes.frame_verify import certify_frame, find_refinement
from sphereframes.rotation_grid import build_rotation_grid
from sphereframes.scale_grid import discrete_beta, epsilon_report, scale_grid_for_profile
from sphereframes.transform import random_bandlimited, wavelet_analysis
from sphereframes.wavelet_spectra import SpectralProfile, make_preset, profile_order

AP1 = make_preset("abel-poisson", 2, d=1)
Q0 = SpectralProfile(a=1, b=1, c=1, q=(1, 1))  # zonal with q(0) > 0: beta(0) > 0


def test_certify_report_consistency():
    rep = certify_frame(2, AP1, 8, 1.5, (1.2, 1.2), 5, 2026)
    assert rep.verdict
    assert rep.A == pytest.approx(27.0 / 128.0, rel=1e-9)
    assert rep.B == pytest.approx(0.375, rel=1e-9)
    np.testing.assert_allclose(rep.ratios, rep.energies)  # unit-norm trial fields
    np.testing.assert_allclose(
        rep.discrepancies, np.abs(rep.energies - rep.oracles) / rep.oracles
    )
    assert rep.lower == pytest.approx(rep.A * 0.9)
    assert rep.upper == pytest.approx(rep.B * 1.1)
    assert np.all(rep.ratios >= rep.lower) and np.all(rep.ratios <= rep.upper)
    assert rep.epsilon_hat + rep.delta_hat < 0.95
    assert np.all(rep.discrepancies <= rep.epsilon_hat + rep.delta_hat)
    rows = rep.trials()
    assert len(rows) == 5
    assert rows[0]["ratio"] == pytest.approx(float(rep.ratios[0]))
    doc = json.loads(rep.to_json(extra={"tag": 1}))
    assert doc["verdict"] == "pass" and doc["tag"] == 1
    assert doc["grid"]["mode"] == "spatial"
    lines = rep.ratios_csv().splitlines()
    assert lines[0] == "trial,energy,oracle,ratio,discrepancy"
    assert len(lines) == 6


def test_certify_reproducible():
    a = certify_frame(2, AP1, 6, 1.5, (1.5, 1.5), 3, 7)
    b = certify_frame(2, AP1, 6, 1.5, (1.5, 1.5), 3, 7)
    assert a.to_json() == b.to_json()


def test_refinement_reduces_suite_discrepancy():
    # the worst energy-identity discrepancy over the trial suite shrinks as
    # the rotation caps halve (individual trials may fluctuate through
    # accidental cancellation; the suite maximum is the monotone quantity)
    worst = []
    for delta in (1.2, 0.6, 0.3):
        rep = certify_frame(2, AP1, 8, 1.5, (delta, delta), 5, 2026)
        worst.append(float(np.max(rep.discrepancies)))
    assert worst[1] <= worst[0] + 1e-12
    assert worst[2] <= worst[1] + 1e-12


def test_amplitude_rescaling_invariance():
    rep1 = certify_frame(2, AP1, 6, 1.5, (1.2, 1.2), 3, 5)
    doubled = dataclasses.replace(AP1, amplitude=2.0)
    rep2 = certify_frame(2, doubled, 6, 1.5, (1.2, 1.2), 3, 5)
    assert rep2.A == pytest.approx(4.0 * rep1.A, rel=1e-10)
    assert rep2.B == pytest.approx(4.0 * rep1.B, rel=1e-10)
    np.testing.assert_allclose(rep2.energies, 4.0 * rep1.energies, rtol=1e-10)
    np.testing.assert_allclose(rep2.discrepancies, rep1.discrepancies, rtol=1e-8)
    assert rep2.verdict == rep1.verdict


@pytest.mark.parametrize("seed", [1, 77, 2026])
def test_negative_control_single_cell_fails(seed):
    rep = certify_frame(2, AP1, 8, 1.5, (math.pi, 2 * math.pi), 5, seed)
    assert not rep.verdict
    assert np.any((rep.ratios < rep.lower) | (rep.ratios > rep.upper))
    # more than 5x the 0.101 of the passing (1.2, 1.2) grid (20 trials, seed 2026)
    assert rep.delta_hat > 0.5
    assert np.all(rep.discrepancies <= rep.epsilon_hat + rep.delta_hat)


@pytest.mark.parametrize(
    "n, profile, deltas, seed",
    [
        (2, AP1, (1.2, 1.2), 2026),
        (2, AP1, (math.pi, 2 * math.pi), 1),
        (2, Q0, (1.2, 1.2), 2026),
        (4, make_preset("abel-poisson", 4), None, 2026),
    ],
    ids=["pass-grid", "single-cell", "q0-positive", "spectral-n4"],
)
def test_delta_hat_measures_energy_against_semi_discrete(n, profile, deltas, seed):
    L, ratio, trials = 8, 1.5, 5
    rep = certify_frame(n, profile, L, ratio, deltas, trials, seed)
    # rebuild S_i = sum_l discrete_beta(l) ||f_l||^2 from the same seeded fields
    scales = scale_grid_for_profile(n, profile, ratio, L)
    disc = [discrete_beta(n, profile, scales, l) for l in range(L + 1)]
    m = profile_order(profile)
    children = np.random.SeedSequence(seed).spawn(trials)
    semi = np.array(
        [
            sum(disc[l] * f.coeffs.degree_energy(l) for l in range(L + 1))
            for f in (random_bandlimited(n, L, m, s) for s in children)
        ]
    )
    expected = float(np.max(np.abs(rep.energies - semi) / rep.oracles))
    assert rep.delta_hat == pytest.approx(expected, rel=1e-12, abs=1e-15)
    assert np.all(rep.discrepancies <= rep.epsilon_hat + rep.delta_hat)


def test_trials_guard():
    with pytest.raises(ValueError):
        certify_frame(2, AP1, 8, 1.5, (1.2, 1.2), 0, 0)


def test_spectral_mode_for_higher_dimension():
    prof4 = make_preset("abel-poisson", 4)
    rep = certify_frame(4, prof4, 6, 1.2, None, 3, 11)
    assert rep.grid_info["mode"] == "spectral"
    assert rep.delta_hat == 0.0
    assert rep.verdict
    np.testing.assert_allclose(rep.energies, rep.oracles, rtol=1e-9)
    assert np.all(rep.discrepancies <= rep.epsilon_hat + rep.delta_hat)
    # on request the same run is spatial: only the energies move off S
    spatial = certify_frame(4, prof4, 6, 1.2, (1.6,) * 4, 3, 11, spatial=True)
    assert spatial.grid_info["mode"] == "spatial"
    assert spatial.verdict
    assert spatial.epsilon_hat == rep.epsilon_hat
    np.testing.assert_array_equal(spatial.oracles, rep.oracles)
    assert 0.0 < spatial.delta_hat < 0.05


def test_spectral_discrepancy_within_certificate_for_tight_family():
    # at n=4, L=6, ratio 1.2 the zonal family has beta = 1/4 at every degree
    # and eps_hat is 1.5 ulp, so E - O must be summed per degree: two
    # separately rounded sums break the bound for seeds 83, 134 and 146
    prof4 = make_preset("abel-poisson", 4)
    for seed in range(300):
        rep = certify_frame(4, prof4, 6, 1.2, None, 3, seed)
        assert np.all(rep.discrepancies <= rep.epsilon_hat + rep.delta_hat), seed


@pytest.mark.parametrize("d, delta_hat", [(1, 0.029), (0, 0.042)])
def test_spatial_certify_on_s3(d, delta_hat):
    # 3075 x 96 x 7 = 2 066 400 rotations, ten times the default cap, which
    # bounds each factor, not the product
    prof = make_preset("abel-poisson", 3, d=d)
    rep = certify_frame(3, prof, 8, 1.5, (0.9, 0.9, 0.9), 5, 2026, spatial=True)
    assert rep.grid_info["mode"] == "spatial"
    assert rep.grid_info["rotation_sizes"] == [3075, 96, 7]
    assert rep.verdict
    assert rep.delta_hat == pytest.approx(delta_hat, abs=5e-4)
    assert np.all(rep.discrepancies <= rep.epsilon_hat + rep.delta_hat)
    # the single-cell control fails
    control = certify_frame(3, prof, 8, 1.5, (3.2, 3.2, 3.2), 5, 2026, spatial=True)
    assert not control.verdict
    assert control.delta_hat > 0.5
    assert np.all(control.discrepancies <= control.epsilon_hat + control.delta_hat)
    # spatial stays the default for n = 2 only
    spectral = certify_frame(3, prof, 8, 1.5, (0.9, 0.9, 0.9), 5, 2026)
    assert spectral.grid_info["mode"] == "spectral" and spectral.delta_hat == 0.0


def test_spatial_certify_on_s4():
    # 24512 x 573 x 32 x 4 rotations, about 1.8e9, held as 25 121 cells
    prof = make_preset("abel-poisson", 4, d=1)
    rep = certify_frame(4, prof, 4, 1.5, (1.6,) * 4, 5, 2026, spatial=True)
    assert rep.grid_info["mode"] == "spatial"
    assert rep.grid_info["rotation_sizes"] == [24512, 573, 32, 4]
    assert rep.verdict
    assert rep.delta_hat == pytest.approx(0.0284, abs=5e-4)
    assert np.all(rep.discrepancies <= rep.epsilon_hat + rep.delta_hat)
    # the single-cell control fails
    control = certify_frame(4, prof, 4, 1.5, (3.2,) * 4, 5, 2026, spatial=True)
    assert not control.verdict
    assert control.delta_hat > 0.5
    assert np.all(control.discrepancies <= control.epsilon_hat + control.delta_hat)


def test_grid_over_the_flat_cap_certifies_but_refuses_its_rows():
    # 1 x 1558 x 629 = 979 982 rotations, almost five times the flat cap: the
    # energies read only the factors, whose angle rows alone would take 47 MB
    n, L, deltas = 3, 4, (3.2, 0.2, 0.01)
    prof = make_preset("abel-poisson", n, d=1)
    tracemalloc.start()
    try:
        rep = certify_frame(n, prof, L, 1.5, deltas, 5, 2026, spatial=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert rep.grid_info["mode"] == "spatial"
    assert rep.grid_info["rotation_sizes"] == [1, 1558, 629]
    # one outer cell leaves S^3 unresolved, so the grid fails like a control
    assert not rep.verdict
    assert np.all(rep.discrepancies <= rep.epsilon_hat + rep.delta_hat)
    grid = build_rotation_grid(n, deltas)
    field = random_bandlimited(n, L, profile_order(prof), 0)
    scales = scale_grid_for_profile(n, prof, 1.5, L)
    for flat in (
        lambda: grid.angles,
        grid.to_csv,
        lambda: wavelet_analysis(n, prof, field, scales, grid),
    ):
        with pytest.raises(ValueError, match="more than 200000 elements, the cap"):
            flat()


def test_find_refinement_accepts_first_passing_level():
    rep = find_refinement(2, AP1, 8, 1.5, (1.2, 1.2), 5, 2026)
    assert rep.verdict
    assert rep.grid_info["delta"] == [1.2, 1.2]


def test_find_refinement_certifies_in_the_mode_asked_for():
    # the single-cell S^3 grid fails spatially (delta_hat 0.829), so one round
    # leaves no passing report; spectral rounds stay the default for n = 3
    prof = make_preset("abel-poisson", 3, d=1)
    args = (3, prof, 8, 1.5, (3.2,) * 3, 5, 2026)
    with pytest.raises(RuntimeError, match=r"delta=0\.829"):
        find_refinement(*args, max_rounds=1, spatial=True)
    spectral = find_refinement(*args, max_rounds=1)
    assert spectral.verdict and spectral.grid_info["mode"] == "spectral"
    assert spectral.delta_hat == 0.0
    # spectral rounds need no caps: ratio 4 fails the margin (eps_hat 0.17)
    # and the next round, ratio 2, passes
    refined = find_refinement(3, prof, 6, 4.0, None, 2, 1, margin=0.9)
    assert refined.grid_info["ratio"] == 2.0 and refined.grid_info["delta"] == []


def test_certify_reads_beta_from_its_table_only(monkeypatch):
    calls = []
    for module in (scale_grid, wavelet_spectra):
        fn = module.beta_numeric

        def counted(*args, fn=fn, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, "beta_numeric", counted)
    for n, L, deltas in ((2, 6, (2.0, 2.0)), (3, 8, None)):
        for prof in (make_preset("abel-poisson", n, d=1), Q0):
            calls.clear()
            rep = certify_frame(n, prof, L, 1.5, deltas, 2, 1)
            assert len(calls) == L - profile_order(prof)  # one per table row
            grid = scale_grid_for_profile(n, prof, 1.5, L)
            assert rep.epsilon_hat == epsilon_report(n, prof, grid, L).epsilon_hat


def test_missing_or_wrong_caps_fail_before_any_work(monkeypatch):
    # a spatial check builds its rotation grid first: no caps, or caps for
    # another dimension, raise before the beta table is built
    def refused(*args, **kwargs):
        raise AssertionError("build_beta_table called before the caps were checked")

    monkeypatch.setattr(frame_verify, "build_beta_table", refused)
    with pytest.raises(ValueError, match="delta_list"):
        certify_frame(2, AP1, 6, 1.5, None, 2, 1)
    with pytest.raises(ValueError, match="delta_list"):
        find_refinement(2, AP1, 6, 1.5, None, 2, 1)
    prof = make_preset("abel-poisson", 3, d=1)
    with pytest.raises(ValueError, match="need 3 diameter caps, got 2"):
        certify_frame(3, prof, 6, 1.5, (0.9, 0.9), 2, 1, spatial=True)


def test_find_refinement_exhaustion():
    with pytest.raises(RuntimeError):
        find_refinement(
            2, AP1, 6, 1.5, (2.0, 2.0), 2, 1, margin=0.9999, max_rounds=1
        )
    for rounds in (0, -1):
        with pytest.raises(ValueError, match=f"got max_rounds={rounds}"):
            find_refinement(2, AP1, 6, 1.5, (2.0, 2.0), 2, 1, max_rounds=rounds)
