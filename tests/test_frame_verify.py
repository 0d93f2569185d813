import dataclasses
import json
import math

import numpy as np
import pytest

from sphereframes.frame_verify import certify_frame, find_refinement
from sphereframes.scale_grid import discrete_beta, scale_grid_for_profile
from sphereframes.transform import random_bandlimited
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
    with pytest.raises(ValueError):
        certify_frame(4, prof4, 6, 1.2, (1.0, 1.0, 1.0, 1.0), 3, 11, spatial=True)


@pytest.mark.parametrize("d, delta_hat", [(1, 0.029), (0, 0.042)])
def test_spatial_certify_on_s3(d, delta_hat):
    # 3075 x 96 x 7 = 2 066 400 rotations, ten times the default cap, which
    # bounds each factor and the inner tuples, not the product
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


def test_find_refinement_accepts_first_passing_level():
    rep = find_refinement(2, AP1, 8, 1.5, (1.2, 1.2), 5, 2026)
    assert rep.verdict
    assert rep.grid_info["delta"] == [1.2, 1.2]


def test_find_refinement_exhaustion():
    with pytest.raises(RuntimeError):
        find_refinement(
            2, AP1, 6, 1.5, (2.0, 2.0), 2, 1, margin=0.9999, max_rounds=1
        )
    for rounds in (0, -1):
        with pytest.raises(ValueError, match=f"got max_rounds={rounds}"):
            find_refinement(2, AP1, 6, 1.5, (2.0, 2.0), 2, 1, max_rounds=rounds)
