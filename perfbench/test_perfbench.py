"""Tests of the benchmark's own code: references, checks and trace arithmetic.

    PYTHONPATH=src python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np
import pytest

import reference as ref
import run
import spans
import workloads

sf = pytest.importorskip("sphereframes")
import sphereframes.cli  # noqa: E402,F401  (workloads call sf.cli.main)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_reference_beta_known_values(n):
    lam = (n - 1) / 2
    zonal = sf.make_preset("abel-poisson", n, d=0)
    directional = sf.make_preset("gauss-weierstrass", n, d=1)
    for l in range(1, 12):
        assert ref.beta(n, zonal, l) == pytest.approx(0.25, rel=1e-14)
        assert ref.beta(n, directional, l) == pytest.approx(
            1 / (4 * (2 * lam + 1)), rel=1e-14
        )
    assert ref.beta(n, directional, 0) == 0.0


def test_reference_haar_volume_and_riemann_sum():
    assert ref.haar_volume(2) == pytest.approx(8 * np.pi**2, rel=1e-15)
    p = sf.make_preset("abel-poisson", 2, d=1)
    # a fine wide grid reproduces the integral
    scales, weights = ref.geometric_scales(1e4, 1.01, 6000)
    assert ref.discrete_beta(2, p, scales, weights, 5) == pytest.approx(
        ref.beta(2, p, 5), rel=1e-10
    )


def test_self_times_subtract_the_union_of_children():
    recorded = [
        ["root", -1, 0.0, 10.0],
        ["a", 0, 1.0, 3.0],
        ["b", 0, 2.0, 5.0],  # overlaps a: the children cover [1, 5]
        ["a.inner", 1, 1.5, 2.5],
        ["late", 0, 9.0, 12.0],  # clipped to the parent's end
    ]
    assert spans.self_times(recorded) == pytest.approx([5.0, 1.0, 3.0, 1.0, 3.0])


def test_tracer_counts_and_self_time_cover_the_root():
    tracer = spans.Tracer()
    tracer.install()
    p = sf.make_preset("abel-poisson", 2, d=1)
    tracer.recording = True
    sf.build_beta_table(2, p, 2)
    tracer.recording = False
    metrics, recorded = tracer.take()
    assert metrics["wavelet_spectra.build_beta_table.calls"] == 1
    assert metrics["wavelet_spectra.beta_numeric.calls"] == 2
    assert metrics["wavelet_spectra.zonal_hat.calls"] > 0
    root = recorded[0]
    total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert total == pytest.approx(root[3] - root[2], rel=1e-9)
    assert tracer.take()[1] == []


def test_benchmark_json_matches_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layer == {n: spans.layer_unit(n) for n in spans.layer_metric_names()}


def test_a_failed_operation_makes_the_run_incorrect():
    worker = {"walls": [1.0], "setup_s": 1.0, "peak_rss_mb": 1.0, "problems": []}
    assert run.summarise([dict(worker, attempted=2, failed=0)], False)["correct"]
    assert not run.summarise([dict(worker, attempted=2, failed=1)], False)["correct"]


def _run(workload):
    steps = workload.steps()
    outputs = {key: step() for key, step in steps}
    assert workload.check(outputs) == []
    return outputs


@pytest.fixture(scope="module")
def certify(tmp_path_factory):
    w = workloads.CertifyS2(sf, 3, str(tmp_path_factory.mktemp("certify")))
    return w, _run(w)


def _edit_report(path, edit):
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.update(A=d["A"] * (1 + 1e-6)),
        lambda d: d.update(verdict="fail"),
        lambda d: d.update(epsilon_hat=d["epsilon_hat"] + 1e-9),
        lambda d: d["trials"][3].update(oracle=d["trials"][3]["oracle"] * 1.01),
        lambda d: d["trials"][0].update(energy=d["trials"][0]["energy"] * 1.05),
        lambda d: d["trials"][1].update(ratio=d["B"] * 1.2),
    ],
)
def test_certify_check_rejects_perturbed_report(certify, edit):
    w, outputs = certify
    path = os.path.join(w.pass_dir, "frame_report.json")
    with open(path) as fh:
        saved = fh.read()
    try:
        _edit_report(path, edit)
        assert w.check(outputs)
    finally:
        with open(path, "w") as fh:
            fh.write(saved)
    assert w.check(outputs) == []


def test_certify_check_rejects_passing_control(certify):
    w, outputs = certify
    assert w.check(dict(outputs, control=0))


@pytest.fixture(scope="module")
def spectral():
    w = workloads.SpectralDesign(sf, 3, "")
    return w, _run(w)


def test_spectral_check_rejects_perturbed_outputs(spectral):
    w, outputs = spectral
    key = next(k for k in outputs if k[0] == "table")
    beta, (A, B) = outputs[key]
    values = beta.values.copy()
    values[-1] *= 1 + 1e-7
    bad = dataclasses.replace(beta, values=values)
    assert w.check({**outputs, key: (bad, (A, B))})
    assert w.check({**outputs, key: (beta, (A * 0.99, B))})

    key = next(k for k in outputs if k[0] == "ratio")
    assert w.check({**outputs, key: outputs[key] * 1.05})
    assert w.check({**outputs, key: outputs[key] / 1.05})

    key = next(k for k in outputs if k[0] == "certify")
    report = outputs[key]
    for bad in (
        dataclasses.replace(report, verdict=False),
        dataclasses.replace(report, epsilon_hat=report.epsilon_hat + 1e-9),
        dataclasses.replace(report, B=report.B * 1.01),
    ):
        assert w.check({**outputs, key: bad})


class SmallTransform(workloads.TransformS2L64):
    L = 8


@pytest.fixture(scope="module")
def transform():
    w = SmallTransform(sf, 3, "")
    assert w.check_inputs() == []
    return w, _run(w)


def test_transform_check_rejects_perturbed_outputs(transform):
    w, outputs = transform
    energies = outputs["energies"]
    table, text = outputs["analysis"]
    assert w.check(dict(outputs, energies=energies * np.array([1, 1, 0.4, 1])))
    assert w.check(dict(outputs, energies=energies * np.array([1, 2, 1, 1])))
    assert w.check(dict(outputs, energies=energies * np.array([1.001, 1, 1, 1])))
    assert w.check(dict(outputs, analysis=(table, text[: text.rindex("\n", 0, -1) + 1])))
    halved = dataclasses.replace(table, values=table.values * 0.5)
    assert w.check(dict(outputs, analysis=(halved, text)))


def test_transform_input_check_rejects_perturbed_grids(transform):
    w, _ = transform
    rotations, sphere = w.rotations, w.sphere
    try:
        w.rotations = dataclasses.replace(rotations, weights=rotations.weights * 1.01)
        assert w.check_inputs()
        w.rotations = rotations
        w.sphere = dataclasses.replace(sphere, weights=sphere.weights * 1.01)
        assert w.check_inputs()
    finally:
        w.rotations, w.sphere = rotations, sphere
