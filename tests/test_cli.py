import json
import math

import numpy as np
import pytest

from ldplab import __version__
from ldplab.cli import entrypoint, main
from ldplab.errors import NumericalFailure
from ldplab.samplers import SeededRng, stiefel_batch
from ldplab.verify import EntryTest, TwoSampleReport, json_float


def run(args):
    return main(args)


def _refuse_constant(name):
    raise ValueError(f"CLI output holds the non-standard JSON constant {name}")


def strict_json(text):
    """Parse CLI JSON output (stdout, sidecar or report), refusing the
    ``Infinity`` and ``NaN`` that ``json.dumps`` writes for non-finite floats."""
    return json.loads(text, parse_constant=_refuse_constant)


def test_sample_stiefel_row_shape(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code = run(["sample", "--dist", "stiefel", "--k", "2", "--n", "8",
                "--count", "10", "--seed", "7", "--out", str(out)])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()]
    assert len(rows) == 10
    assert all(len(r) == 16 for r in rows)
    meta = strict_json((tmp_path / "s.csv.json").read_text())
    assert meta["row_shape"] == [2, 8]
    assert meta["schema_version"] == 1
    assert meta["build_id"] == f"ldplab-{__version__}"


def test_sample_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert run(["sample", "--dist", "stiefel", "--k", "2", "--n", "8",
                    "--count", "5", "--seed", "7", "--out", str(out)]) == 0
    assert a.read_text() == b.read_text()


def test_sample_k_exceeds_n(tmp_path, capsys):
    code = run(["sample", "--dist", "stiefel", "--k", "5", "--n", "3",
                "--count", "1", "--seed", "1",
                "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "k must be <= n" in capsys.readouterr().err


def test_rate_zero_matrix(capsys):
    assert run(["rate", "--matrix", "[[0.0, 0.0]]"]) == 0
    out = capsys.readouterr().out
    assert "rate: 0" in out


def test_rate_half_log_two(capsys):
    value = math.sqrt(0.5)
    assert run(["rate", "--matrix", f"[[{value!r}]]"]) == 0
    printed = capsys.readouterr().out
    assert "0.34657359027997" in printed


def test_rate_boundary(capsys):
    assert run(["rate", "--matrix", "[[1.0]]"]) == 0
    assert "+inf (boundary)" in capsys.readouterr().out


def test_sample_rate_round_trip(tmp_path, capsys):
    out = tmp_path / "v.csv"
    assert run(["sample", "--dist", "stiefel", "--k", "2", "--n", "6",
                "--count", "3", "--seed", "11", "--out", str(out)]) == 0
    # the CSV round-trips float64 exactly at 17 significant digits
    rows = np.loadtxt(out, delimiter=",")
    direct = stiefel_batch(SeededRng(11).generator(), 2, 6, 3)
    assert np.array_equal(rows, direct.reshape(3, -1))
    capsys.readouterr()
    assert run(["rate", "--csv", str(out), "--row", "1"]) == 0
    assert "+inf (boundary)" in capsys.readouterr().out


def test_density_commands(capsys):
    assert run(["density", "--which", "sigma2", "--p", "inf"]) == 0
    assert strict_json(capsys.readouterr().out)["value"] == pytest.approx(1 / 3)
    assert run(["density", "--which", "corner", "--n", "4", "--at", "[[0.0]]"]) == 0
    val = strict_json(capsys.readouterr().out)["log_density"]
    assert val == pytest.approx(math.log(2 / math.pi))
    assert run(["density", "--which", "pgaussian", "--p", "1", "--x", "1.0"]) == 0
    val = strict_json(capsys.readouterr().out)["log_density"]
    assert val == pytest.approx(-1 - math.log(2))


def test_density_p_domain(capsys):
    assert run(["density", "--which", "pgaussian", "--p", "inf", "--x", "0.5"]) == 0
    assert strict_json(capsys.readouterr().out)["log_density"] == -math.log(2)
    assert run(["density", "--which", "pgaussian", "--p", "inf", "--x", "2"]) == 0
    assert strict_json(capsys.readouterr().out)["log_density"] == "-inf"
    assert run(["density", "--which", "pgaussian", "--p", "0", "--x", "0.5"]) == 2
    assert run(["density", "--which", "pth-power", "--p", "0.5", "--x", "1"]) == 2
    assert run(["density", "--which", "pth-power", "--p", "inf", "--x", "1"]) == 2
    # a NaN argument is refused, not written as "-inf"
    assert run(["density", "--which", "pgaussian", "--p", "1", "--x", "nan"]) == 2
    assert run(["density", "--which", "pth-power", "--p", "2", "--x", "nan"]) == 2
    assert capsys.readouterr().out == ""


def test_json_float_refuses_nan():
    assert json_float(-math.inf) == "-inf"
    assert json_float(0.5) == 0.5
    with pytest.raises(NumericalFailure):
        json_float(math.nan)


def test_verify_quadrature_config(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "seed": 5,
        "experiment": "ldp_corner",
        "k": 1, "ell": 1,
        "target": [[0.3]],
        "radius": 0.05,
        "n_values": [500, 1000, 1500, 2000],
        "samples_per_n": 1,
        "method": "quadrature",
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    prefix = tmp_path / "rep"
    assert run(["verify", "--config", str(path), "--out-prefix", str(prefix)]) == 0
    report = strict_json((tmp_path / "rep.json").read_text())["report"]
    assert report["relative_gap"] < 0.15
    csv_rows = (tmp_path / "rep.csv").read_text().strip().splitlines()
    assert len(csv_rows) == 4


def test_verify_rejects_unknown_fields(tmp_path, capsys):
    cfg = {"schema_version": 1, "seed": 1, "experiment": "ldp_corner",
           "k": 1, "ell": 1, "target": [[0.1]], "radius": 0.05,
           "n_values": [10, 20], "samples_per_n": 100, "surprise": True}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert run(["verify", "--config", str(path)]) == 2
    assert "unknown config fields" in capsys.readouterr().err


def test_verify_rejects_empty_n_values(tmp_path, capsys):
    cfg = {"schema_version": 1, "seed": 1, "experiment": "ldp_corner",
           "k": 1, "ell": 1, "target": [[0.1]], "radius": 0.05,
           "n_values": [], "samples_per_n": 100}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert run(["verify", "--config", str(path)]) == 2


def test_verify_rejects_n_below_ell_plus_k(tmp_path, capsys):
    cfg = {"schema_version": 1, "seed": 1, "experiment": "ldp_corner",
           "k": 2, "ell": 2, "target": [[0.0, 0.0], [0.0, 0.0]], "radius": 0.5,
           "n_values": [3, 10], "samples_per_n": 100}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert run(["verify", "--config", str(path)]) == 2
    assert "ell + k" in capsys.readouterr().err


def test_verify_infeasible_exit_code(tmp_path, capsys):
    cfg = {"schema_version": 1, "seed": 1, "experiment": "ldp_corner",
           "k": 1, "ell": 1, "target": [[0.9]], "radius": 0.01,
           "n_values": [100, 200], "samples_per_n": 1000}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["verify", "--config", str(path)]) == 4


def test_verify_reproducible(tmp_path):
    cfg = {"schema_version": 1, "seed": 9, "experiment": "ldp_corner",
           "k": 1, "ell": 1, "target": [[0.2]], "radius": 0.1,
           "n_values": [20, 40], "samples_per_n": 5000}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["verify", "--config", str(path),
                "--out-prefix", str(tmp_path / "r1")]) == 0
    assert run(["verify", "--config", str(path),
                "--out-prefix", str(tmp_path / "r2")]) == 0
    assert (tmp_path / "r1.csv").read_text() == (tmp_path / "r2.csv").read_text()


def test_verify_configuration_experiment(tmp_path):
    cfg = {"schema_version": 1, "seed": 2, "experiment": "ldp_configuration",
           "k": 1, "atoms": [], "r": 0.5, "rho": 0.05,
           "n_values": [30, 60], "samples_per_n": 2000}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["verify", "--config", str(path),
                "--out-prefix", str(tmp_path / "conf")]) == 0
    report = strict_json((tmp_path / "conf.json").read_text())["report"]
    assert abs(report["fitted_slope"]) < 0.01


def test_verify_rejects_negative_radius(tmp_path, capsys):
    # the hit test squares r, so r = -0.3 used to run the r = 0.3 experiment
    cfg = {"schema_version": 1, "seed": 1006, "experiment": "ldp_configuration",
           "k": 1, "atoms": [{"point": [0.4], "multiplicity": 1}], "r": -0.3,
           "rho": 0.05, "n_values": [30, 40], "samples_per_n": 1000}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    prefix = tmp_path / "conf"
    assert run(["verify", "--config", str(path), "--out-prefix", str(prefix)]) == 2
    assert "finite and > 0" in capsys.readouterr().err
    assert not (tmp_path / "conf.json").exists()


@pytest.mark.parametrize("multiplicity", [1.7, math.inf], ids=["fraction", "infinity"])
def test_verify_rejects_non_whole_multiplicity(tmp_path, capsys, multiplicity):
    # 1.7 used to run multiplicity 1 and echo 1.7; Infinity raised OverflowError
    cfg = {"schema_version": 1, "seed": 1006, "experiment": "ldp_configuration",
           "k": 1, "atoms": [{"point": [0.4], "multiplicity": multiplicity}],
           "r": 0.3, "rho": 0.05, "n_values": [30, 40], "samples_per_n": 1000}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    prefix = tmp_path / "conf"
    assert run(["verify", "--config", str(path), "--out-prefix", str(prefix)]) == 2
    assert "whole number >= 1" in capsys.readouterr().err
    assert not (tmp_path / "conf.json").exists()


_MC_CONFIG = {"schema_version": 1, "seed": 9, "experiment": "ldp_corner",
              "k": 1, "ell": 1, "target": [[0.2]], "radius": 0.1,
              "n_values": [20, 40], "samples_per_n": 5000}
_CONF_CONFIG = {"schema_version": 1, "seed": 1006, "experiment": "ldp_configuration",
                "k": 1, "atoms": [{"point": [0.4], "multiplicity": 1}], "r": 0.3,
                "rho": 0.05, "n_values": [100, 110], "samples_per_n": 100000}


@pytest.mark.parametrize("base, field, value", [
    (_MC_CONFIG, "samples_per_n", 1e999),
    (_MC_CONFIG, "seed", math.inf),
    (_MC_CONFIG, "n_values", [20, math.inf]),
    (_CONF_CONFIG, "atoms", [{"point": [0.4], "multiplicity": 10**400}]),
    (_MC_CONFIG, "n_values", [20.5, 40]),
    (_MC_CONFIG, "samples_per_n", 2.5),
    (_MC_CONFIG, "k", True),
    (_MC_CONFIG, "stream", -1),
    (_CONF_CONFIG, "k", 1.5),
], ids=["samples_1e999", "seed_inf", "n_inf", "multiplicity_1e400", "n_fraction",
        "samples_fraction", "k_true", "stream_negative", "config_k_fraction"])
def test_verify_integer_fields_are_whole_numbers(tmp_path, capsys, base, field, value):
    # each used to exit 1 on OverflowError, or to run a truncated value
    cfg = dict(base, **{field: value})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    prefix = tmp_path / "rep"
    assert run(["verify", "--config", str(path), "--out-prefix", str(prefix)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ("whole number" in err or "squared mass" in err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_report_with_nan_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch):
    # the report writer used to print NaN, which is not JSON, and exit 0
    def nan_check(*_args, **_kwargs):
        return TwoSampleReport(k=1, m=1, n=10, dof=9,
                               entries=[EntryTest(0, 0, 0.1, math.nan)])

    monkeypatch.setattr("ldplab.cli.run_dickey_check", nan_check)
    out = tmp_path / "d.json"
    assert run(["dickey", "--k", "1", "--m", "1", "--n", "10", "--samples", "100",
                "--seed", "6", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure:")
    assert list(tmp_path.iterdir()) == []


def test_project_and_compare(tmp_path, capsys):
    out = tmp_path / "cloud.csv"
    assert run(["project", "--mode", "lpball", "--k", "2", "--n", "40",
                "--p", "1", "--count", "50", "--seed", "3",
                "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",")
    assert rows.shape == (50, 2)
    # the l-inf ball n^(1/inf) B_inf^n is the cube: the same draws as the
    # uniform product law
    cube = tmp_path / "cube.csv"
    for mode, path in (("lpball", out), ("product", cube)):
        assert run(["project", "--mode", mode, "--k", "2", "--n", "40",
                    "--p", "inf", "--count", "50", "--seed", "3",
                    "--out", str(path)]) == 0
    assert out.read_text() == cube.read_text()
    assert run(["project", "--mode", "product", "--k", "5", "--n", "3",
                "--p", "2", "--count", "50", "--seed", "3",
                "--out", str(out)]) == 2
    assert "k must be <= n" in capsys.readouterr().err
    assert run(["compare", "--k", "1", "--p", "1", "--n-list", "20,40",
                "--count", "1000", "--grid", "64", "--seed", "5"]) == 0
    doc = strict_json(capsys.readouterr().out)
    assert [d["n"] for d in doc] == [20, 40]
    assert run(["compare", "--k", "4", "--p", "1", "--n-list", "20,40",
                "--count", "1000", "--seed", "5"]) == 2
    assert "k <= 3" in capsys.readouterr().err


def test_project_law_mode(tmp_path):
    law = {"dim": 2, "columns": [[0.5, 0.0], [0.0, 0.4]],
           "noise_variance": 0.333333, "product": {"p": "inf"}}
    law_path = tmp_path / "law.json"
    law_path.write_text(json.dumps(law))
    out = tmp_path / "cloud.csv"
    assert run(["project", "--mode", "law", "--law-json", str(law_path),
                "--count", "30", "--seed", "4", "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",")
    assert rows.shape == (30, 2)


@pytest.mark.parametrize("columns, code", [
    ([0.5, 0.0, 0.0, 0.4], 0),                   # flat, column-major blocks
    ([], 0),                                     # pure Gaussian law
    ([[0.5, 0.0], [0.0, 0.4], [0.1, 0.1]], 2),   # three rows: R^3, not R^2
], ids=["flat", "empty", "row_wise"])
def test_project_law_columns_layout(tmp_path, capsys, columns, code):
    law = {"dim": 2, "columns": columns, "noise_variance": 1.0,
           "product": "rademacher"}
    law_path = tmp_path / "law.json"
    law_path.write_text(json.dumps(law))
    out = tmp_path / "cloud.csv"
    assert run(["project", "--mode", "law", "--law-json", str(law_path),
                "--count", "5", "--seed", "4", "--out", str(out)]) == code
    if code:
        assert "columns live in R^3, expected R^2" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert np.loadtxt(out, delimiter=",").shape == (5, 2)


def test_dickey_and_clt_commands(capsys):
    assert run(["dickey", "--k", "1", "--m", "1", "--n", "10",
                "--samples", "4000", "--seed", "6"]) == 0
    doc = strict_json(capsys.readouterr().out)
    assert doc["min_pvalue"] > 0.001
    assert run(["clt", "--k", "1", "--p", "2", "--n", "50",
                "--samples", "2000", "--seed", "6"]) == 0
    doc = strict_json(capsys.readouterr().out)
    assert doc["min_pvalue"] > 0.001


@pytest.mark.parametrize("args", [
    ["sample", "--dist", "lpball", "--p", "2", "--n", "0", "--count", "3"],
    ["sample", "--dist", "lpball", "--p", "0.5", "--n", "4", "--count", "3"],
    ["sample", "--dist", "lpball", "--p", "0", "--n", "4", "--count", "3"],
    ["sample", "--dist", "pgaussian", "--p", "2", "--n", "0", "--count", "3"],
    ["dickey", "--k", "1", "--m", "1", "--n", "10", "--samples", "0"],
    ["sample", "--dist", "lpball", "--p", "2", "--n", "3", "--scale", "inf",
     "--count", "2"],
    # only lpball reads --scale; it used to reach the sidecar as Infinity/NaN
    ["sample", "--dist", "stiefel", "--k", "1", "--n", "2", "--count", "1",
     "--scale", "inf"],
    ["sample", "--dist", "pgaussian", "--p", "2", "--count", "1", "--scale", "nan"],
    # numpy's SeedSequence refused it with a plain ValueError
    ["sample", "--dist", "stiefel", "--k", "1", "--n", "2", "--count", "1", "--stream", "-1"],
], ids=["lpball_n0", "lpball_p0.5", "lpball_p0", "pgaussian_n0",
        "dickey_samples0", "lpball_scale_inf", "stiefel_scale_inf",
        "pgaussian_scale_nan", "stream_negative"])
def test_out_of_domain_exits_2(tmp_path, capsys, args):
    out = tmp_path / "x.csv"
    assert run(args + ["--seed", "1", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_clt_report_writes_infinite_p(tmp_path, capsys):
    out = tmp_path / "clt.json"
    assert run(["clt", "--k", "1", "--p", "inf", "--n", "50",
                "--samples", "500", "--seed", "6", "--out", str(out)]) == 0
    assert strict_json(capsys.readouterr().out)["p"] == "+inf"
    assert strict_json(out.read_text())["p"] == "+inf"


def test_malformed_matrix_exit_code(capsys):
    assert run(["rate", "--matrix", "not json"]) == 2


def test_numerical_failure_exit_code(capsys, monkeypatch):
    # a failed eigensystem maps to 3; a matrix off the Wishart support no
    # longer reaches one, so the failure is injected
    def failed(*_args):
        raise NumericalFailure("eigendecomposition failed")

    monkeypatch.setattr("ldplab.cli.log_wishart_density", failed)
    assert run(["density", "--which", "wishart", "--n", "3",
                "--at", "[[1.0]]"]) == 3


def test_wishart_density_off_its_support_is_minus_inf(capsys):
    # exited 3 ("matrix is not PSD") before
    assert run(["density", "--which", "wishart", "--n", "3", "--at", "[[-1.0]]"]) == 0
    assert json.loads(capsys.readouterr().out) == {"log_density": "-inf"}


def test_bundled_quadrature_config(tmp_path):
    import pathlib

    cfg = pathlib.Path(__file__).resolve().parent.parent / "configs" / "ldp_k1_a03.json"
    assert cfg.exists()
    prefix = tmp_path / "bundled"
    assert run(["verify", "--config", str(cfg), "--out-prefix", str(prefix)]) == 0
    report = strict_json((tmp_path / "bundled.json").read_text())["report"]
    assert report["relative_gap"] < 0.15


def test_density_wishart_rejects_non_symmetric_matrix(capsys):
    assert run(["density", "--which", "wishart", "--n", "3",
                "--at", "[[1, 0.5], [0.1, 1]]"]) == 2
    assert "not symmetric" in capsys.readouterr().err
    assert run(["density", "--which", "wishart", "--n", "3",
                "--at", "[[1, 0.5], [0.5, 1]]"]) == 0
    assert math.isfinite(strict_json(capsys.readouterr().out)["log_density"])


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


_LAW = {"dim": 2, "columns": [[0.5, 0.0], [0.0, 0.4]], "noise_variance": 0.333333,
        "product": {"p": "inf"}}
_EMPTY_CONF = dict(_CONF_CONFIG, atoms=[], r=0.5, n_values=[30, 60], samples_per_n=2000)
_CSV = "0.5,0.1,0.2,0.3\n"


def _verify(doc, *extra):
    return ["verify", "--config", "cfg.json", "--out-prefix", "rep", *extra], {"cfg.json": doc}


def _law(doc):
    return (["project", "--mode", "law", "--law-json", "law.json", "--count", "5",
             "--seed", "4", "--out", "cloud.csv"], {"law.json": doc})


def _atom(**fields):
    return dict(_CONF_CONFIG, atoms=[fields])


def _run_in(tmp_path, monkeypatch, argv, files):
    """Write ``files`` into ``tmp_path`` and run ``argv`` there."""
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content if isinstance(content, str) else json.dumps(content))
    return run(argv)


_MALFORMED = {
    # these exited 1 with a traceback
    "n_values_number": (_verify(dict(_MC_CONFIG, n_values=5)), "n_values"),
    "radius_list": (_verify(dict(_MC_CONFIG, radius=[0.1])), "radius"),
    "radius_null": (_verify(dict(_MC_CONFIG, radius=None)), "radius"),
    "r_null": (_verify(dict(_CONF_CONFIG, r=None)), "r must"),
    "atoms_number": (_verify(dict(_CONF_CONFIG, atoms=5)), "atoms"),
    "atom_pair": (_verify(dict(_CONF_CONFIG, atoms=[[0.4, 1]])), "atom"),
    "config_not_object": (_verify([1, 2]), "config"),
    "law_noise_variance_list": (_law(dict(_LAW, noise_variance=[1.0])), "noise_variance"),
    "law_not_object": (_law([1]), "law file"),
    "matrix_object": ((["rate", "--matrix", '{"a": 1}'], {}), "matrix"),
    "row_shape_string": ((["rate", "--csv", "v.csv"],
                          {"v.csv": _CSV, "v.csv.json": {"row_shape": "2x2"}}), "row_shape"),
    # these were accepted, and ran on a value that was not written
    "schema_version_true": (_verify(dict(_MC_CONFIG, schema_version=True)),
                            "schema_version"),
    "radius_string": (_verify(dict(_MC_CONFIG, radius="0.1")), "radius"),
    "rho_string": (_verify(dict(_EMPTY_CONF, rho="0.05")), "rho"),
    "target_string": (_verify(dict(_MC_CONFIG, target=[["0.2"]])), "target"),
    "atom_point_string": (_verify(_atom(point="0.4", multiplicity=1)), "point"),
    "atom_weight": (_verify(_atom(point=[0.4], multiplicity=1, weight=1)), "weight"),
    "law_dim_fraction": (_law(dict(_LAW, dim=2.5)), "dim"),
    "law_noise_variance_string": (_law(dict(_LAW, noise_variance="1.0")),
                                  "noise_variance"),
    "law_unknown_field": (_law(dict(_LAW, colour="red")), "colour"),
    "threads_zero": (_verify(_MC_CONFIG, "--threads", "0"), "--threads"),
    "threads_negative": (_verify(_MC_CONFIG, "--threads", "-3"), "--threads"),
    # these printed only the bare key
    "missing_seed": (_verify(_without(_MC_CONFIG, "seed")), "'seed'"),
    "missing_multiplicity": (_verify(_atom(point=[0.4])), "'multiplicity'"),
}


@pytest.mark.parametrize("case", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_input_exits_2_naming_the_field(tmp_path, monkeypatch, capsys, case):
    (argv, files), field = case
    assert _run_in(tmp_path, monkeypatch, argv, files) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and field in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


_STILL_REFUSED = {
    "matrix_ragged": (["rate", "--matrix", "[[0.5],[0.1,0.2]]"], {}),
    "csv_cell_not_a_number": (["rate", "--csv", "v.csv"],
                              {"v.csv": "0.5,x,0.2,0.3\n", "v.csv.json": {"row_shape": [2, 2]}}),
    "row_shape_misfit": (["rate", "--csv", "v.csv"],
                         {"v.csv": _CSV, "v.csv.json": {"row_shape": [3, 2]}}),
    "n_list_word": (["compare", "--k", "1", "--p", "1", "--n-list", "20,x",
                     "--count", "1000", "--seed", "5"], {}),
    "at_string": (["density", "--which", "corner", "--n", "4", "--at", '[[0.1,"x"]]'], {}),
    "law_p_word": _law(dict(_LAW, product={"p": "abc"})),
    "config_not_utf8": (["verify", "--config", "cfg.json"], {"cfg.json": b"\xff\xfe{"}),
    "matrix_nan": (["rate", "--matrix", "[[NaN]]"], {}),
    "column_infinite": _law(dict(_LAW, columns=[[1e999, 0.0], [0.0, 0.4]])),
    "atom_infinite": _verify(_atom(point=[1e999], multiplicity=1)),
    "atom_wrong_dimension": _verify(_atom(point=[0.4, 0.1], multiplicity=1)),
    "column_norm": (["rate", "--matrix", "[[2.0]]"], {}),
}


@pytest.mark.parametrize("case", _STILL_REFUSED.values(), ids=_STILL_REFUSED.keys())
def test_malformed_input_that_numpy_refused_still_exits_2(tmp_path, monkeypatch, capsys,
                                                         case):
    # each of these used to reach main() as a stdlib ValueError, which main()
    # no longer maps; the input boundary now raises DomainError instead
    argv, files = case
    assert _run_in(tmp_path, monkeypatch, argv, files) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


def test_untyped_error_is_a_bug_not_a_usage_error(monkeypatch, capsys):
    # main() maps LdpLabError and OSError only: a plain ValueError (say, a
    # numpy shape bug) propagates with its traceback, so entrypoint exits 1
    def broken(_columns):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr("ldplab.cli.rate_truncated", broken)
    with pytest.raises(ValueError, match="broadcast"):
        main(["rate", "--matrix", "[[0.5]]"])
    monkeypatch.setattr("sys.argv", ["ldplab", "rate", "--matrix", "[[0.5]]"])
    with pytest.raises(ValueError, match="broadcast"):
        entrypoint()
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("text", ["inf", "Inf", "INF", "infinity", "Infinity"])
def test_p_reads_every_spelling_of_infinity(capsys, text):
    assert run(["density", "--which", "sigma2", "--p", text]) == 0
    assert strict_json(capsys.readouterr().out)["value"] == pytest.approx(1 / 3)
