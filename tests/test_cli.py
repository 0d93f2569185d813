import json
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from sphereframes import cli
from sphereframes.cli import main
from sphereframes.scale_grid import ScaleCoverageWarning

QUICKSTART = Path(__file__).resolve().parent.parent / "configs" / "quickstart.conf"


def read(path):
    return path.read_text()


def config_line(text):
    first = text.splitlines()[0]
    assert first.startswith("# config ")
    return json.loads(first[len("# config ") :])


def test_spectrum_zonal_constant_column(tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "spectrum",
            "--preset",
            "abel-poisson-zonal",
            "--n",
            "2",
            "--band-limit",
            "16",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(read(out / "beta.json"))
    vals = np.array(doc["values"])
    np.testing.assert_allclose(vals[1:], 0.25, rtol=1e-10)
    assert vals[0] == 0.0
    assert doc["A"] == pytest.approx(0.25) and doc["B"] == pytest.approx(0.25)
    meta = config_line(read(out / "beta.csv"))
    assert meta["profile"]["preset"] == "abel-poisson-zonal"
    assert meta["profile"]["d"] == 0
    assert doc["config"] == meta


def test_zonal_suffix_overrides_configured_order(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("[profile]\npreset = abel-poisson\nd = 1\n")
    out = tmp_path / "o"
    assert (
        main(
            [
                "spectrum",
                "--config",
                str(conf),
                "--preset",
                "abel-poisson-zonal",
                "--band-limit",
                "8",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    assert config_line(read(out / "beta.csv"))["profile"]["d"] == 0


def test_outputs_are_byte_identical(tmp_path):
    args = ["spectrum", "--preset", "gauss-weierstrass", "--band-limit", "12"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert read(a / "beta.csv") == read(b / "beta.csv")
    assert read(a / "beta.json") == read(b / "beta.json")


def test_flag_overrides_config_file(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("[run]\nband_limit = 4\n[profile]\npreset = abel-poisson\n")
    out = tmp_path / "o"
    code = main(
        ["spectrum", "--config", str(conf), "--band-limit", "6", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(read(out / "beta.json"))
    assert doc["config"]["band_limit"] == 6
    assert len(doc["values"]) == 7


def test_unread_config_keys_are_errors(tmp_path, capsys):
    # misspelt keys, unknown sections ([DEFAULT] is not merged into the
    # others), keys of the profile form not in use, and the [certify]
    # spelling of the cap, which is read from [rotations] only
    out = ["--out", str(tmp_path / "o")]
    cases = {
        "[run]\nband_limt = 4\n[profile]\npreset = abel-poisson\n": "[run] band_limt",
        "[profile]\npreset = abel-poisson\n[certify]\ntrails = 3\n": "[certify] trails",
        "[profile]\npreset = abel-poisson\n[sclaes]\nratio = 1.5\n": "[sclaes]",
        "[DEFAULT]\nseed = 3\n[profile]\npreset = abel-poisson\n": "[DEFAULT]",
        "[profile]\npreset = abel-poisson\nq = 0, 1\n": "[profile] q",
        "[profile]\nq = 0, 1\norder = 3\n": "[profile] order",
        "[rotations]\ndelta = 1.2, 1.2\n[certify]\nmax_elements = 9\n": "[certify] max_elements",
    }
    for i, (text, key) in enumerate(cases.items()):
        conf = tmp_path / f"{i}.conf"
        conf.write_text(text)
        command = "rot-grid" if "delta" in text else "spectrum"
        assert main([command, "--config", str(conf)] + out) == 1
        assert f"no setting reads: {key}" in capsys.readouterr().err
    conf = tmp_path / "cap.conf"
    conf.write_text("[rotations]\ndelta = 1.2, 1.2\nmax_elements = 9\n")
    assert main(["rot-grid", "--config", str(conf)] + out) == 1
    assert "more than 9 elements" in capsys.readouterr().err


def test_error_exits(tmp_path):
    bad = tmp_path / "bad.conf"
    bad.write_text("[profile]\nq = 0, -1\n")
    assert main(["spectrum", "--config", str(bad), "--out", str(tmp_path)]) == 1
    assert main(["spectrum", "--preset", "no-such", "--out", str(tmp_path)]) == 1
    assert main(["rot-grid", "--out", str(tmp_path)]) == 1  # delta missing
    assert main(["spectrum", "--config", str(tmp_path / "none.conf")]) == 1
    for text in ("n = 2\n[run]\n", "[run]\nn = 2\nn = 3\n"):  # not INI
        bad.write_text(text)
        assert main(["spectrum", "--config", str(bad), "--out", str(tmp_path)]) == 1
    assert main(["not-a-command"]) == 1
    assert main(["spectrum", "--preset", "abel-poisson", "--ratio", "0.9"]) == 1


def test_explicit_profile_from_config(tmp_path):
    conf = tmp_path / "p.conf"
    conf.write_text("[profile]\na = 1.0\nb = 1.0\nc = 2.0\nq = 0, 1\n")
    out = tmp_path / "o"
    assert main(["spectrum", "--config", str(conf), "--band-limit", "8", "--out", str(out)]) == 0
    doc = json.loads(read(out / "beta.json"))
    np.testing.assert_allclose(np.array(doc["values"])[1:], 0.375, rtol=1e-10)
    assert doc["config"]["profile"]["preset"] is None


def test_spectrum_with_positive_q0_includes_degree_zero(tmp_path):
    conf = tmp_path / "p.conf"
    conf.write_text("[profile]\nq = 1, 1\n")
    out = tmp_path / "o"
    assert main(["spectrum", "--config", str(conf), "--band-limit", "6", "--out", str(out)]) == 0
    doc = json.loads(read(out / "beta.json"))
    assert doc["order"] == -1
    np.testing.assert_allclose(doc["values"], 0.25, rtol=1e-14)


def test_artifacts_do_not_depend_on_core_count(tmp_path, monkeypatch):
    args = ["spectrum", "--preset", "abel-poisson", "--band-limit", "4"]
    outs = []
    for cores in (2, 64):
        monkeypatch.setattr("os.cpu_count", lambda cores=cores: cores)
        outs.append(tmp_path / str(cores))
        assert main(args + ["--out", str(outs[-1])]) == 0
    a, b = outs
    assert read(a / "beta.csv") == read(b / "beta.csv")
    assert read(a / "beta.json") == read(b / "beta.json")
    assert json.loads(read(a / "beta.json"))["config"]["threads"] is None


def test_scale_grid_command(tmp_path):
    out = tmp_path / "o"
    code = main(
        [
            "scale-grid",
            "--preset",
            "abel-poisson",
            "--band-limit",
            "8",
            "--ratio",
            "1.2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(read(out / "scale_report.json"))
    assert doc["epsilon_hat"] <= 1e-12
    assert doc["ratio"] == 1.2
    lines = read(out / "scale_report.csv").splitlines()
    assert lines[1] == "l,beta_continuous,beta_discrete,rel_dev"
    assert len(lines) == 10


def test_partial_or_unused_scale_grid_is_refused(tmp_path, capsys):
    conf = tmp_path / "s.conf"
    conf.write_text("[scales]\nrho_max = 4.0\n")
    base = ["--preset", "abel-poisson", "--band-limit", "8", "--out", str(tmp_path / "o")]
    # count without rho_max, rho_max without count
    assert main(["scale-grid", "--scales", "3"] + base) == 1
    assert main(["scale-grid", "--config", str(conf)] + base) == 1
    assert capsys.readouterr().err.count("needs both [scales] rho_max and count") == 2
    # both give the explicit grid, three scales too few to cover the degrees;
    # certify takes its grid from the profile only
    with pytest.warns(ScaleCoverageWarning):
        assert main(["scale-grid", "--config", str(conf), "--scales", "3"] + base) == 0
    assert json.loads(read(tmp_path / "o" / "scale_report.json"))["count"] == 3
    certify = ["certify", "--config", str(conf), "--scales", "3", "--delta", "1.2", "1.2"]
    assert main(certify + base) == 1
    assert "certify builds the scale grid from the profile" in capsys.readouterr().err


def test_rot_grid_command(tmp_path):
    out = tmp_path / "o"
    assert main(["rot-grid", "--n", "2", "--delta", "1.2", "1.2", "--out", str(out)]) == 0
    doc = json.loads(read(out / "rotation_grid.json"))
    assert doc["sizes"] == [54, 6]
    assert doc["config"]["profile"] is None
    lines = read(out / "rotation_grid.csv").splitlines()
    assert lines[2] == "theta2_1,phi2,phi1,weight"
    assert len(lines) == 3 + 324


def test_transform_command_deterministic(tmp_path):
    args = [
        "transform",
        "--preset",
        "abel-poisson",
        "--band-limit",
        "6",
        "--delta",
        "1.2",
        "1.2",
        "--seed",
        "42",
        "--ratio",
        "1.5",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert read(a / "transform.csv") == read(b / "transform.csv")
    doc = json.loads(read(a / "transform.json"))
    assert doc["oracle"] == pytest.approx(0.25, rel=1e-9)  # zonal tight value
    assert doc["energy"] == pytest.approx(doc["oracle"], rel=0.1)
    assert doc["config"]["seed"] == 42


def test_certify_exit_codes(tmp_path):
    base = [
        "certify",
        "--preset",
        "abel-poisson",
        "--band-limit",
        "6",
        "--ratio",
        "1.5",
        "--trials",
        "3",
        "--seed",
        "11",
    ]
    good = tmp_path / "good"
    assert main(base + ["--delta", "0.6", "0.6", "--out", str(good)]) == 0
    doc = json.loads(read(good / "frame_report.json"))
    assert doc["verdict"] == "pass"
    assert "config" in doc
    lines = read(good / "trial_ratios.csv").splitlines()
    assert lines[1] == "trial,energy,oracle,ratio,discrepancy"
    assert len(lines) == 5
    bad = tmp_path / "bad"
    assert (
        main(base + ["--delta", "3.141592653589793", "6.283185307179586", "--out", str(bad)])
        == 2
    )
    assert json.loads(read(bad / "frame_report.json"))["verdict"] == "fail"


def test_shipped_quickstart_config_passes(tmp_path):
    assert main(["certify", "--config", str(QUICKSTART), "--out", str(tmp_path)]) == 0
    doc = json.loads(read(tmp_path / "frame_report.json"))
    assert doc["verdict"] == "pass"


def test_control_after_a_pass_writes_the_bytes_it_writes_first(tmp_path):
    # the parser is built once per import, so a run must leave nothing in it
    # for the next: the negative control writes the same files before and
    # after a passing certify in the same process
    conf = tmp_path / "certify.conf"
    conf.write_text(
        "[run]\nn = 2\nband_limit = 8\nseed = 1\n[profile]\npreset = abel-poisson\nd = 1\n"
        "[scales]\nratio = 1.5\n[rotations]\ndelta = 0.45, 0.45\n"
        "[certify]\ntrials = 10\ntolerance = 0.1\n"
    )
    base = ["certify", "--config", str(conf), "--threads", "1"]
    control = base + ["--delta", "3.141592653589793", "6.283185307179586", "--out"]
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(control + [str(first)]) == 2
    assert main(base + ["--out", str(tmp_path / "pass")]) == 0
    assert main(control + [str(second)]) == 2
    for name in ("frame_report.json", "trial_ratios.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_write_holds_one_slice_of_the_text(tmp_path):
    # a 32 MB text goes out in slices, so writing it raises the traced peak
    # by a few MB, not by the text's size, and the file holds the texts one
    # after another
    head = "# config {}\n"
    text = "0,1,0.5,-0.25\n" * (32 * 2**20 // 14)
    tracemalloc.start()
    try:
        path = cli._write(types.SimpleNamespace(out=str(tmp_path)), "big.csv", head, text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20
    assert Path(path).read_bytes() == (head + text).encode()
