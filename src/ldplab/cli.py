"""Batch command-line front end.

One entry point with subcommands: sample, density, rate, project, compare,
verify, dickey, clt.  Samples and clouds go to CSV (one row per draw,
row-major, full 17-digit precision) with a JSON sidecar echoing the
configuration and the build id; reports go to JSON.  Every command is
deterministic given its arguments and seed.

Commands raise typed errors; only main() turns them into exit codes: 0 ok,
2 usage or malformed input, 3 numerical failure, 4 infeasible experiment.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .configurations import PointConfiguration, read_fields
from .densities import (
    log_corner_density,
    log_inverted_t_density,
    log_p_gaussian_density,
    log_pth_power_density,
    log_wishart_density,
    sigma_p_squared,
)
from .errors import DomainError, InfeasibleExperiment, LdpLabError, NumericalFailure
from .linalg import ColumnList, as_matrix, whole_number
from .projections import (
    ProjectedLaw,
    RademacherLaw,
    compare_ball_vs_product,
    project_lp_ball_batch,
    project_product_batch,
    sample_projected_law,
)
from .rates import rate_truncated
from .samplers import (
    PGaussianParams,
    SeededRng,
    lp_ball_batch,
    p_gaussian_batch,
    stiefel_batch,
    wishart_batch,
)
from .verify import (LdpExperiment, json_doc, run_clt_check, run_dickey_check,
                     run_ldp_configuration, run_ldp_corner)


def _build_id() -> str:
    return f"ldplab-{__version__}"


def _write_csv(path: str, rows) -> None:
    np.savetxt(path, rows, fmt="%.17g", delimiter=",")


def _json(doc, **fmt) -> str:
    """The one JSON writer: every document goes through ``json_doc``."""
    return json.dumps(json_doc(doc), **fmt)


def _write_json(path: str, doc) -> None:
    text = _json(doc, indent=2, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _write_sidecar(path: str, payload: dict) -> None:
    _write_json(path + ".json",
                {"schema_version": 1, **payload, "build_id": _build_id()})


def _load_json(source: str, text=None):
    """The one JSON reader: ``text``, or the file ``source`` when it is None."""
    try:
        if text is None:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DomainError(f"{source}: {exc}") from None


def _cmd_sample(args) -> None:
    if args.scale is not None and args.dist != "lpball":
        raise DomainError("--scale applies only to --dist lpball")
    rng = SeededRng(args.seed, args.stream)
    gen = rng.generator()
    if args.dist == "stiefel":
        if args.k is None or args.n is None:
            raise DomainError("stiefel requires --k and --n")
        draws = stiefel_batch(gen, args.k, args.n, args.count)
    elif args.dist == "orthogonal":
        if args.n is None:
            raise DomainError("orthogonal requires --n")
        draws = stiefel_batch(gen, args.n, args.n, args.count)
    elif args.dist == "wishart":
        if args.k is None or args.n is None:
            raise DomainError("wishart requires --k and --n")
        draws = wishart_batch(gen, args.k, args.n, args.count)
    elif args.dist == "pgaussian":
        if args.p is None:
            raise DomainError("pgaussian requires --p")
        width = 1 if args.n is None else args.n
        draws = p_gaussian_batch(gen, args.p, (args.count, 1, width))
    else:  # lpball; argparse restricts --dist to these five
        if args.p is None or args.n is None:
            raise DomainError("lpball requires --p and --n")
        draws = lp_ball_batch(gen, args.p, args.n, args.scale, args.count)[:, None, :]

    rows = draws.reshape(args.count, -1)
    _write_csv(args.out, rows)
    _write_sidecar(args.out, {
        "command": "sample",
        "dist": args.dist,
        "k": args.k,
        "n": args.n,
        "p": args.p,
        "scale": args.scale,
        "count": args.count,
        "seed": args.seed,
        "stream": args.stream,
        "row_shape": list(draws.shape[1:]),
    })
    print(f"wrote {args.count} rows to {args.out}")


def _load_matrix(args) -> np.ndarray:
    sources = [s for s in (args.matrix, args.csv, args.json_file) if s]
    if len(sources) != 1:
        raise DomainError("provide exactly one of --matrix, --csv, --json")
    if args.matrix:
        return as_matrix(_load_json("--matrix", args.matrix))
    if args.json_file:
        return as_matrix(_load_json(args.json_file))
    try:
        rows = np.loadtxt(args.csv, delimiter=",", ndmin=2)
    except ValueError as exc:  # a cell that is not a number, or ragged rows
        raise DomainError(f"{args.csv}: {exc}") from None
    if not 0 <= args.row < rows.shape[0]:
        raise DomainError(f"row {args.row} out of range")
    meta = _load_json(args.csv + ".json")
    shape = meta.get("row_shape") if isinstance(meta, dict) else None
    dims = [whole_number(v, "row_shape", 1) for v in shape] if isinstance(shape, list) else []
    if len(dims) != 2 or dims[0] * dims[1] != rows.shape[1]:
        raise DomainError(f"sidecar of {args.csv}: row_shape {shape!r} does not fit a row "
                          f"of {rows.shape[1]} values")
    return rows[args.row].reshape(dims)


def _cmd_rate(args) -> None:
    matrix = _load_matrix(args)
    columns = ColumnList.from_columns(matrix.shape[0], matrix)
    value, report = rate_truncated(columns)
    if math.isinf(value):
        print("rate: +inf (boundary)" if report.boundary else "rate: +inf")
    else:
        print(f"rate: {value:.17g}")
    print(_json({"rate": value, **json_doc(report)}, indent=2, sort_keys=True))


def _cmd_density(args) -> None:
    if args.which == "sigma2":
        if args.p is None:
            raise DomainError("sigma2 requires --p")
        print(_json({"value": sigma_p_squared(args.p)}))
        return
    if args.which in ("pgaussian", "pth-power"):
        if args.p is None or args.x is None:
            raise DomainError(f"{args.which} requires --p and --x")
        density = {"pgaussian": log_p_gaussian_density,
                   "pth-power": log_pth_power_density}[args.which]
        print(_json({"log_density": density(args.x, args.p)}))
        return
    if args.at is None:
        raise DomainError(f"{args.which} requires --at with a JSON matrix")
    matrix = as_matrix(_load_json("--at", args.at))
    if args.which == "corner":
        if args.n is None:
            raise DomainError("corner requires --n")
        k, ell = matrix.shape
        value = log_corner_density(matrix, k, ell, args.n)
    elif args.which == "inverted-t":
        if args.dof is None:
            raise DomainError("inverted-t requires --dof")
        value = log_inverted_t_density(matrix, args.dof)
    else:  # wishart; argparse restricts --which
        if args.n is None:
            raise DomainError("wishart requires --n")
        value = log_wishart_density(matrix, matrix.shape[0], args.n)
    print(_json({"log_density": value}))


def _product_law_from_doc(doc):
    if doc == "rademacher":
        return RademacherLaw()
    # after str(), float() reads a number or text such as "inf" and refuses the rest
    p = str(read_fields(doc, {"p": object}, "product law")["p"])
    try:
        value = float(p)
    except ValueError:
        raise DomainError(f"product law p must be a number or 'inf', got {p}") from None
    return PGaussianParams(value)


def _cmd_project(args) -> None:
    rng = SeededRng(args.seed, args.stream)
    if args.mode in ("lpball", "product"):
        if args.k is None or args.n is None or args.p is None:
            raise DomainError(f"{args.mode} requires --k, --n and --p")
        frame = stiefel_batch(rng.child(0), args.k, args.n, 1)[0]
        if args.mode == "lpball":
            cloud = project_lp_ball_batch(rng.child(1), frame, args.p, args.count)
        else:
            cloud = project_product_batch(rng.child(1), frame,
                                          PGaussianParams(args.p), args.count)
        meta = {"k": args.k, "n": args.n, "p": args.p}
    else:  # law
        if not args.law_json:
            raise DomainError("law mode requires --law-json")
        doc = read_fields(_load_json(args.law_json), _LAW_FIELDS, "law file", {"columns": []})
        law = ProjectedLaw(
            a=ColumnList.from_columns(doc["dim"], doc["columns"]),
            noise_variance=doc["noise_variance"],
            product_law=_product_law_from_doc(doc["product"]),
        )
        cloud = sample_projected_law(rng, law, args.count)
        meta = {"law_json": args.law_json, "k": doc["dim"]}
    _write_csv(args.out, cloud.points)
    _write_sidecar(args.out, {
        "command": "project",
        "mode": args.mode,
        "count": args.count,
        "seed": args.seed,
        "stream": args.stream,
        "row_shape": [1, cloud.dim],
        **meta,
    })
    print(f"wrote {args.count} rows to {args.out}")


def _cmd_compare(args) -> None:
    n_list = [whole_number(int(v) if v.strip().isdecimal() else v, "--n-list", 1)
              for v in args.n_list.split(",") if v.strip()]
    rng = SeededRng(args.seed, args.stream)
    pairs = compare_ball_vs_product(rng, args.k, args.p, n_list, args.count,
                                    grid=args.grid)
    print(_json([{"n": n, "lp_distance": d} for n, d in pairs], indent=2))
    if args.out:
        _write_csv(args.out, pairs)
        _write_sidecar(args.out, {
            "command": "compare", "k": args.k, "p": args.p,
            "n_list": n_list, "count": args.count, "grid": args.grid,
            "seed": args.seed, "stream": args.stream,
            "row_shape": [1, 2],
        })


_LAW_FIELDS = {"dim": 1, "columns": list, "noise_variance": float, "product": object}
# SeededRng reads seed and stream, which may exceed the whole-number bound
_VERIFY_FIELDS = {"schema_version": 1, "seed": object, "stream": object, "experiment": str,
                  "k": 1, "n_values": list, "samples_per_n": 1, "output_path": str}
_EXPERIMENT_FIELDS = {
    "ldp_corner": {"ell": 1, "target": list, "radius": float, "method": str},
    "ldp_configuration": {"atoms": list, "r": float, "rho": float},
}


def _cmd_verify(args) -> None:
    threads = None if args.threads is None else whole_number(args.threads, "--threads", 1)
    doc = _load_json(args.config)
    experiment = str(doc.get("experiment")) if isinstance(doc, dict) else None
    cfg = read_fields(doc, {**_VERIFY_FIELDS, **_EXPERIMENT_FIELDS.get(experiment, {})},
                      "config", {"stream": 0, "method": "montecarlo", "output_path": ""})
    if cfg["schema_version"] != 1:
        raise DomainError("config schema_version must be 1")
    if experiment not in _EXPERIMENT_FIELDS:
        raise DomainError(f"unknown experiment {cfg['experiment']!r}")
    rng = SeededRng(cfg["seed"], cfg["stream"])
    if experiment == "ldp_corner":
        exp = LdpExperiment(
            k=cfg["k"], ell=cfg["ell"], target=cfg["target"], radius=cfg["radius"],
            n_values=cfg["n_values"], samples_per_n=cfg["samples_per_n"],
            method=cfg["method"],
        )
        report = run_ldp_corner(rng, exp, threads=threads)
    else:
        target = PointConfiguration.from_json_dict({"dim": cfg["k"], "atoms": cfg["atoms"]})
        report = run_ldp_configuration(
            rng, cfg["k"], target, cfg["r"], cfg["rho"], cfg["n_values"],
            cfg["samples_per_n"], threads=threads,
        )
    prefix = args.out_prefix or cfg["output_path"] or "slope_report"
    _write_json(prefix + ".json",
                {"config": doc, "report": report, "build_id": _build_id()})
    _write_csv(prefix + ".csv", report.per_n)
    print(f"fitted_slope: {report.fitted_slope:.6g}")
    print(f"rate_reference: {report.rate_reference:.6g}")
    print(f"relative_gap: {report.relative_gap:.6g}")


def _print_report(report, out) -> None:
    # min_pvalue is a property, so json_doc leaves it out
    doc = {**json_doc(report), "min_pvalue": report.min_pvalue}
    print(_json(doc, indent=2, sort_keys=True))
    if out:
        _write_json(out, doc)


def _cmd_dickey(args) -> None:
    _print_report(run_dickey_check(
        SeededRng(args.seed, args.stream), args.k, args.m, args.n, args.samples,
        dof_offset=args.dof_offset), args.out)


def _cmd_clt(args) -> None:
    _print_report(run_clt_check(
        SeededRng(args.seed, args.stream), args.k, args.p, args.n, args.samples),
        args.out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldplab",
        description="Sample Haar frames and projected measures, evaluate "
                    "log-determinant rates, and run rare-event experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, required=True)
    seeded.add_argument("--stream", type=int, default=0)

    p_sample = sub.add_parser("sample", parents=[seeded], help="draw samples to CSV")
    p_sample.add_argument("--dist", required=True,
                          choices=["stiefel", "orthogonal", "wishart",
                                   "pgaussian", "lpball"])
    p_sample.add_argument("--k", type=int)
    p_sample.add_argument("--n", type=int)
    p_sample.add_argument("--p", type=float)
    p_sample.add_argument("--scale", type=float)
    p_sample.add_argument("--count", type=int, required=True)
    p_sample.add_argument("--out", default="samples.csv")
    p_sample.set_defaults(func=_cmd_sample)

    p_rate = sub.add_parser("rate", help="evaluate the truncation rate of a matrix")
    p_rate.add_argument("--matrix", help="inline JSON matrix")
    p_rate.add_argument("--csv", help="CSV written by the sample command")
    p_rate.add_argument("--row", type=int, default=0)
    p_rate.add_argument("--json", dest="json_file", help="JSON file with a matrix")
    p_rate.set_defaults(func=_cmd_rate)

    p_density = sub.add_parser("density", help="evaluate a closed-form log density")
    p_density.add_argument("--which", required=True,
                           choices=["corner", "inverted-t", "wishart",
                                    "pgaussian", "pth-power", "sigma2"])
    p_density.add_argument("--at", help="JSON matrix argument")
    p_density.add_argument("--x", type=float)
    p_density.add_argument("--p", type=float)
    p_density.add_argument("--n", type=int)
    p_density.add_argument("--dof", type=int)
    p_density.set_defaults(func=_cmd_density)

    p_project = sub.add_parser("project", parents=[seeded],
                               help="sample a projected measure to CSV")
    p_project.add_argument("--mode", required=True,
                           choices=["lpball", "product", "law"])
    p_project.add_argument("--k", type=int)
    p_project.add_argument("--n", type=int)
    p_project.add_argument("--p", type=float)
    p_project.add_argument("--law-json")
    p_project.add_argument("--count", type=int, required=True)
    p_project.add_argument("--out", default="cloud.csv")
    p_project.set_defaults(func=_cmd_project)

    p_compare = sub.add_parser(
        "compare", parents=[seeded],
        help="LP distance between ball and product projections")
    p_compare.add_argument("--k", type=int, required=True)
    p_compare.add_argument("--p", type=float, required=True)
    p_compare.add_argument("--n-list", required=True)
    p_compare.add_argument("--count", type=int, required=True)
    p_compare.add_argument("--grid", type=int, default=200)
    p_compare.add_argument("--out")
    p_compare.set_defaults(func=_cmd_compare)

    p_verify = sub.add_parser("verify", help="run a slope experiment from a config")
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--out-prefix")
    p_verify.add_argument("--threads", type=int)
    p_verify.set_defaults(func=_cmd_verify)

    p_dickey = sub.add_parser("dickey", parents=[seeded],
                              help="two-sample check of the corner laws")
    p_dickey.add_argument("--k", type=int, required=True)
    p_dickey.add_argument("--m", type=int, required=True)
    p_dickey.add_argument("--n", type=int, required=True)
    p_dickey.add_argument("--samples", type=int, required=True)
    p_dickey.add_argument("--dof-offset", type=int, default=0)
    p_dickey.add_argument("--out")
    p_dickey.set_defaults(func=_cmd_dickey)

    p_clt = sub.add_parser("clt", parents=[seeded],
                           help="KS check of projected marginals vs Gaussian")
    p_clt.add_argument("--k", type=int, required=True)
    p_clt.add_argument("--p", type=float, required=True)
    p_clt.add_argument("--n", type=int, required=True)
    p_clt.add_argument("--samples", type=int, required=True)
    p_clt.add_argument("--out")
    p_clt.set_defaults(func=_cmd_clt)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
    except InfeasibleExperiment as exc:
        print(f"infeasible experiment: {exc}", file=sys.stderr)
        return 4
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (LdpLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
