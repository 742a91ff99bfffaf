"""Run a fixed table of ``ldplab`` commands and print what each one did.

Usage: ``python3 tools/cli_outputs.py [ROOT] > outputs.json``

ROOT is a checkout of this repository (default: the one holding this
script); its ``src/`` is put on ``PYTHONPATH``.  Every row runs
``python -m ldplab.cli`` in a fresh temporary directory holding only the
row's input files, and the output is one JSON document: per row its exit
code, stdout, stderr and the sha256 of every file the command wrote.  Two
checkouts can then be compared byte for byte with ``cmp`` or ``diff``.

The table holds each subcommand's success paths and a set of malformed
inputs (configs, law files, sidecars, inline matrices).  Paths inside the
temporary directory and inside ROOT are printed as ``<tmp>`` and
``<root>``.  The script uses only the standard library.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

CORNER = {"schema_version": 1, "seed": 9, "experiment": "ldp_corner", "k": 1,
          "ell": 1, "target": [[0.2]], "radius": 0.1, "n_values": [20, 40],
          "samples_per_n": 2000}
QUADRATURE = {"schema_version": 1, "seed": 20240817, "experiment": "ldp_corner",
              "k": 1, "ell": 1, "target": [[0.3]], "radius": 0.05,
              "n_values": [500, 875, 1250, 1625, 2000], "samples_per_n": 1,
              "method": "quadrature"}
CONFIGURATION = {"schema_version": 1, "seed": 1006, "experiment": "ldp_configuration",
                 "k": 1, "atoms": [{"point": [0.4], "multiplicity": 1}], "r": 0.3,
                 "rho": 0.05, "n_values": [30, 40], "samples_per_n": 1000}
EMPTY_CONFIGURATION = dict(CONFIGURATION, seed=2, atoms=[], r=0.5,
                           n_values=[30, 60], samples_per_n=2000)
LAW = {"dim": 2, "columns": [[0.5, 0.0], [0.0, 0.4]], "noise_variance": 0.333333,
       "product": {"p": "inf"}}
CSV = "0.5,0.1,0.2,0.3\n0.1,0.0,0.0,0.2\n"
HUGE = str(10**400)


def edit(base: dict, **changes) -> dict:
    return dict(base, **changes)


def drop(base: dict, key: str) -> dict:
    return {k: v for k, v in base.items() if k != key}


def verify(doc, *extra):
    return ["verify", "--config", "cfg.json", "--out-prefix", "rep", *extra], \
        {"cfg.json": doc}


def law(doc):
    return ["project", "--mode", "law", "--law-json", "law.json", "--count", "20",
            "--seed", "4", "--out", "cloud.csv"], {"law.json": doc}


def rate_csv(sidecar, csv=CSV, row="0"):
    return ["rate", "--csv", "v.csv", "--row", row], \
        {"v.csv": csv, "v.csv.json": sidecar}


def atom(**fields):
    return edit(CONFIGURATION, atoms=[fields])


def cmd(*argv):
    return list(argv), {}


ROWS = {
    # success paths
    "sample_stiefel": cmd("sample", "--dist", "stiefel", "--k", "2", "--n", "8",
                          "--count", "3", "--seed", "7", "--out", "s.csv"),
    "sample_orthogonal": cmd("sample", "--dist", "orthogonal", "--n", "3",
                             "--count", "2", "--seed", "7", "--out", "s.csv"),
    "sample_wishart": cmd("sample", "--dist", "wishart", "--k", "2", "--n", "4",
                          "--count", "2", "--seed", "7", "--out", "s.csv"),
    "sample_pgaussian": cmd("sample", "--dist", "pgaussian", "--p", "1.5", "--n", "3",
                            "--count", "4", "--seed", "7", "--out", "s.csv"),
    "sample_pgaussian_p_Infinity": cmd("sample", "--dist", "pgaussian", "--p",
                                       "Infinity", "--count", "4", "--seed", "7",
                                       "--out", "s.csv"),
    "sample_lpball": cmd("sample", "--dist", "lpball", "--p", "2", "--n", "3",
                         "--scale", "2", "--count", "4", "--seed", "7", "--out", "s.csv"),
    "sample_lpball_p1": cmd("sample", "--dist", "lpball", "--p", "1", "--n", "4",
                            "--count", "4", "--seed", "7", "--out", "s.csv"),
    "sample_lpball_p_inf": cmd("sample", "--dist", "lpball", "--p", "inf", "--n", "4",
                               "--count", "4", "--seed", "7", "--out", "s.csv"),
    "sample_pgaussian_p1000": cmd("sample", "--dist", "pgaussian", "--p", "1000", "--n", "8",
                                  "--count", "20", "--seed", "1"),
    "sample_lpball_p1000": cmd("sample", "--dist", "lpball", "--p", "1000", "--n", "4",
                               "--count", "50", "--seed", "1"),
    "rate_matrix": cmd("rate", "--matrix", "[[0.5, 0.1], [0.0, 0.3]]"),
    "rate_boundary": cmd("rate", "--matrix", "[[1.0]]"),
    "rate_boundary_long_list": cmd("rate", "--matrix", "[[0.6, 0, 0.8], [0, 0.6, 0]]"),
    "rate_boundary_short_list": cmd("rate", "--matrix", "[[0.6, 0], [0, 1], [0, 0]]"),
    "rate_csv": rate_csv({"row_shape": [2, 2]}, row="1"),
    "rate_json": (["rate", "--json", "m.json"], {"m.json": [[0.2, 0.1]]}),
    "density_sigma2_inf": cmd("density", "--which", "sigma2", "--p", "inf"),
    "density_sigma2_INF": cmd("density", "--which", "sigma2", "--p", "INF"),
    "density_pgaussian": cmd("density", "--which", "pgaussian", "--p", "1", "--x", "1"),
    "density_pgaussian_p1000": cmd("density", "--which", "pgaussian", "--p", "1000",
                                   "--x", "3"),
    "density_pth_power": cmd("density", "--which", "pth-power", "--p", "2", "--x", "1"),
    "density_corner": cmd("density", "--which", "corner", "--n", "4", "--at", "[[0.1]]"),
    "density_inverted_t": cmd("density", "--which", "inverted-t", "--dof", "3",
                              "--at", "[[0.2]]"),
    "density_wishart": cmd("density", "--which", "wishart", "--n", "3",
                           "--at", "[[1, 0.5], [0.5, 1]]"),
    "project_lpball": cmd("project", "--mode", "lpball", "--k", "2", "--n", "40",
                          "--p", "1", "--count", "20", "--seed", "3", "--out", "c.csv"),
    "project_lpball_p_inf": cmd("project", "--mode", "lpball", "--k", "2", "--n", "10",
                                "--p", "inf", "--count", "20", "--seed", "3",
                                "--out", "c.csv"),
    "project_product": cmd("project", "--mode", "product", "--k", "2", "--n", "10",
                           "--p", "infinity", "--count", "20", "--seed", "3",
                           "--out", "c.csv"),
    "project_product_p1": cmd("project", "--mode", "product", "--k", "2", "--n", "10",
                              "--p", "1", "--count", "20", "--seed", "3",
                              "--out", "c.csv"),
    "project_product_p2": cmd("project", "--mode", "product", "--k", "2", "--n", "10",
                              "--p", "2", "--count", "20", "--seed", "3",
                              "--out", "c.csv"),
    "project_law": law(LAW),
    "project_law_p_number": law(edit(LAW, product={"p": 2})),
    "project_law_rademacher_flat": law(edit(LAW, columns=[0.5, 0.0, 0.0, 0.4],
                                            noise_variance=1.0, product="rademacher")),
    "project_law_no_columns": law(drop(edit(LAW, noise_variance=1.0), "columns")),
    "compare": cmd("compare", "--k", "1", "--p", "1", "--n-list", "20,40",
                   "--count", "1000", "--grid", "64", "--seed", "5"),
    "compare_k2": cmd("compare", "--k", "2", "--p", "1", "--n-list", "20,40",
                      "--count", "1000", "--grid", "64", "--seed", "5"),
    "compare_out": cmd("compare", "--k", "1", "--p", "2", "--n-list", "20",
                       "--count", "1000", "--grid", "32", "--seed", "5",
                       "--out", "cmp.csv"),
    "verify_montecarlo": verify(CORNER),
    "verify_montecarlo_threads_2": verify(CORNER, "--threads", "2"),
    "verify_quadrature": verify(QUADRATURE),
    "verify_configuration": verify(EMPTY_CONFIGURATION),
    "verify_output_path": (["verify", "--config", "cfg.json"],
                           {"cfg.json": edit(CORNER, output_path="out")}),
    "dickey": cmd("dickey", "--k", "1", "--m", "1", "--n", "10", "--samples", "500",
                  "--seed", "6", "--out", "d.json"),
    "clt": cmd("clt", "--k", "1", "--p", "2", "--n", "50", "--samples", "500",
               "--seed", "6", "--out", "clt.json"),
    # malformed inputs that exited 1 with a traceback
    "config_n_values_number": verify(edit(CORNER, n_values=5)),
    "config_radius_list": verify(edit(CORNER, radius=[0.1])),
    "config_radius_null": verify(edit(CORNER, radius=None)),
    "config_r_null": verify(edit(CONFIGURATION, r=None)),
    "config_atoms_number": verify(edit(CONFIGURATION, atoms=5)),
    "config_atom_pair": verify(edit(CONFIGURATION, atoms=[[0.4, 1]])),
    "config_not_object": verify([1, 2]),
    "law_noise_variance_list": law(edit(LAW, noise_variance=[1.0])),
    "law_not_object": law([1]),
    "rate_matrix_object": cmd("rate", "--matrix", '{"a": 1}'),
    "sidecar_row_shape_string": rate_csv({"row_shape": "2x2"}),
    # malformed inputs that were accepted
    "config_schema_version_true": verify(edit(CORNER, schema_version=True)),
    "config_radius_string": verify(edit(CORNER, radius="0.1")),
    "config_rho_string": verify(edit(EMPTY_CONFIGURATION, rho="0.05")),
    "config_target_string": verify(edit(CORNER, target=[["0.2"]])),
    "config_atom_point_string": verify(atom(point="0.4", multiplicity=1)),
    "config_atom_weight": verify(atom(point=[0.4], multiplicity=1, weight=1)),
    "law_dim_fraction": law(edit(LAW, dim=2.5)),
    "law_noise_variance_string": law(edit(LAW, noise_variance="1.0")),
    "law_unknown_field": law(edit(LAW, colour="red")),
    "verify_threads_0": verify(CORNER, "--threads", "0"),
    "verify_threads_negative": verify(CORNER, "--threads", "-3"),
    # missing fields
    "config_missing_seed": verify(drop(CORNER, "seed")),
    "config_missing_multiplicity": verify(atom(point=[0.4])),
    # malformed inputs that exited 2 through a stdlib ValueError
    "rate_matrix_not_json": cmd("rate", "--matrix", "not json"),
    "rate_matrix_ragged": cmd("rate", "--matrix", "[[0.5],[0.1,0.2]]"),
    "rate_csv_non_numeric": rate_csv({"row_shape": [2, 2]}, csv="0.5,x,0.2,0.3\n"),
    "sidecar_row_shape_misfit": rate_csv({"row_shape": [3, 2]}),
    "compare_n_list_word": cmd("compare", "--k", "1", "--p", "1", "--n-list", "20,x",
                               "--count", "1000", "--seed", "5"),
    "density_at_string": cmd("density", "--which", "corner", "--n", "4",
                             "--at", '[[0.1,"x"]]'),
    "law_p_word": law(edit(LAW, product={"p": "abc"})),
    "config_not_utf8": (["verify", "--config", "cfg.json"], {"cfg.json": b"\xff\xfe{"}),
    "rate_matrix_nan": cmd("rate", "--matrix", "[[NaN]]"),
    "law_column_infinite": law(edit(LAW, columns=[[1e999, 0.0], [0.0, 0.4]])),
    "config_atom_infinite": verify(atom(point=[1e999], multiplicity=1)),
    "config_target_nan": verify(edit(CORNER, target=[[float("nan")]])),
    "config_atom_wrong_dimension": verify(atom(point=[0.4, 0.1], multiplicity=1)),
    "rate_matrix_column_norm": cmd("rate", "--matrix", "[[2.0]]"),
    "sample_stream_negative": cmd("sample", "--dist", "stiefel", "--k", "1", "--n", "2",
                                  "--count", "1", "--seed", "1", "--stream", "-1",
                                  "--out", "s.csv"),
    # real arguments outside their range, and a slope with one n
    "density_pgaussian_x_nan": cmd("density", "--which", "pgaussian", "--p", "1",
                                   "--x", "nan"),
    "density_sigma2_p_half": cmd("density", "--which", "sigma2", "--p", "0.5"),
    "sample_lpball_scale_0": cmd("sample", "--dist", "lpball", "--p", "2", "--n", "3",
                                 "--scale", "0", "--count", "2", "--seed", "7",
                                 "--out", "s.csv"),
    "config_one_n": verify(edit(CORNER, n_values=[20])),
    # corner degrees of freedom, whole-number densities and the Wishart support
    "dickey_dof_offset_negative": cmd("dickey", "--k", "1", "--m", "1", "--n", "10",
                                      "--samples", "100", "--seed", "1",
                                      "--dof-offset", "-9"),
    "density_wishart_negative": cmd("density", "--which", "wishart", "--n", "3",
                                    "--at", "[[-1.0]]"),
    "density_inverted_t_dof_0": cmd("density", "--which", "inverted-t", "--dof", "0",
                                    "--at", "[[0.2]]"),
    "density_corner_n_1": cmd("density", "--which", "corner", "--n", "1",
                              "--at", "[[0.1]]"),
    # a Gram norm beyond the boundary, and a configuration frame with k > n
    "rate_beyond_boundary": cmd("rate", "--matrix", "[[0.8, 0.8]]"),
    "config_k_above_n": verify(edit(EMPTY_CONFIGURATION, k=3, r=2.0, n_values=[2, 3])),
    # whole numbers above 2**63 - 1, which exited 1 with a traceback
    "density_corner_n_huge": cmd("density", "--which", "corner", "--n", HUGE,
                                 "--at", "[[0.1]]"),
    "density_inverted_t_dof_huge": cmd("density", "--which", "inverted-t", "--dof", HUGE,
                                       "--at", "[[0.2]]"),
    "density_wishart_n_huge": cmd("density", "--which", "wishart", "--n", HUGE,
                                  "--at", "[[1.0]]"),
    "sample_wishart_n_huge": cmd("sample", "--dist", "wishart", "--k", "1", "--n", HUGE,
                                 "--count", "1", "--seed", "1", "--out", "s.csv"),
    "dickey_n_huge": cmd("dickey", "--k", "1", "--m", "1", "--n", HUGE, "--samples", "10",
                         "--seed", "1"),
    "sample_stiefel_n_huge": cmd("sample", "--dist", "stiefel", "--k", "1", "--n", HUGE,
                                 "--count", "1", "--seed", "1", "--out", "s.csv"),
    "sample_pgaussian_count_huge": cmd("sample", "--dist", "pgaussian", "--p", "2",
                                       "--count", HUGE, "--seed", "1", "--out", "s.csv"),
    "clt_n_huge": cmd("clt", "--k", "1", "--p", "2", "--n", HUGE, "--samples", "10",
                      "--seed", "1"),
    "compare_n_list_huge": cmd("compare", "--k", "1", "--p", "1", "--n-list", f"5,{HUGE}",
                               "--count", "1000", "--seed", "1"),
    # seeds and streams take any size
    "sample_seed_huge": cmd("sample", "--dist", "stiefel", "--k", "1", "--n", "2",
                            "--count", "1", "--seed", HUGE, "--stream", HUGE,
                            "--out", "s.csv"),
    # argparse wording for a bad --p
    "sample_p_word": cmd("sample", "--dist", "pgaussian", "--p", "abc",
                         "--count", "1", "--seed", "1"),
}


def _inputs(tmp: Path, inputs: dict) -> None:
    for name, content in inputs.items():
        if isinstance(content, bytes):
            (tmp / name).write_bytes(content)
        elif isinstance(content, str):
            (tmp / name).write_text(content)
        else:
            (tmp / name).write_text(json.dumps(content))


def run_row(root: Path, argv: list, inputs: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        _inputs(tmp, inputs)
        proc = subprocess.run([sys.executable, "-m", "ldplab.cli", *argv], cwd=tmp,
                              env=env, capture_output=True)
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(tmp.iterdir()) if p.name not in inputs}

        def text(raw: bytes) -> str:
            return (raw.decode("utf-8", "replace")
                    .replace(str(tmp.resolve()), "<tmp>").replace(str(root), "<root>"))

        return {"argv": argv, "exit": proc.returncode, "stdout": text(proc.stdout),
                "stderr": text(proc.stderr), "written": written}


def main() -> None:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent.parent)
    root = root.resolve()
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = pool.map(lambda row: run_row(root, *row), ROWS.values())
        doc = dict(zip(ROWS, results))
    print(json.dumps(doc, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
