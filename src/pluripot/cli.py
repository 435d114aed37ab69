"""Command-line surface: reproducible experiments emitting JSON reports.

Configs are flat key = value files (diffable provenance); every report
embeds the config hash and package version, and floats are serialized with
17 significant digits so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys

import numpy as np

from . import __version__
from .basis import dimension_counts
from .cheb import (
    lift_identity_check,
    submultiplicativity_audit,
    tau_geometric_mean,
)
from .diag import f_n_path, radial_cdf_distance, weak_star_distance
from .domains import AdmissibleWeight, build_set, export_csv
from .energy import (
    ExtremalModel,
    disk,
    dw_vs_deltaw_check,
    rumely_check,
    weighted_disk,
)
from .errors import InvalidInputError, PluripotError
from .fekete import (
    diameter_sequence,
    empirical_measure,
    extrapolate_diameter,
    search_fekete,
)
from .gram import DiscreteMeasure, bm_constant, gram_matrix, normalized_log_det
from .optmeas import solve_optimal_measure, support_certificate

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_CONFIG = 2


def format_number(x: float) -> str:
    """17 significant digits: enough for binary64 round-trip."""
    if isinstance(x, float):
        if math.isnan(x):
            return '"nan"'
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return format(x, ".17g")
    return str(x)


def to_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with fixed float formatting."""
    pad = "  " * indent
    pad2 = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_number(float(obj))
    if isinstance(obj, complex):
        return to_json({"re": obj.real, "im": obj.imag}, indent)
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(obj, np.ndarray):
        return to_json(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [to_json(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(pad2 + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad2}"{k}": {to_json(v, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise InvalidInputError(f"cannot serialize {type(obj).__name__}")


def parse_config(path: str) -> dict:
    """Flat key = value file; values typed as int, float, bool, or str."""
    cfg: dict = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InvalidInputError(
                        f"{path}:{lineno}: expected key = value"
                    )
                key, val = (s.strip() for s in line.split("=", 1))
                if not key:
                    raise InvalidInputError(f"{path}:{lineno}: empty key")
                cfg[key] = _parse_value(val)
    except OSError as exc:
        raise InvalidInputError(f"cannot read config: {exc}")
    return cfg


def _parse_value(val: str):
    low = val.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(val)
    except ValueError:
        pass
    try:
        return float(val)
    except ValueError:
        pass
    return val


def config_hash(cfg: dict) -> str:
    canon = "\n".join(f"{k} = {cfg[k]}" for k in sorted(cfg))
    return hashlib.sha256(canon.encode()).hexdigest()


def _weight_from_config(cfg: dict) -> AdmissibleWeight:
    kind = cfg.get("weight", "zero")
    if kind == "zero":
        return AdmissibleWeight.zero()
    if kind == "quadratic":
        return AdmissibleWeight.quadratic()
    raise InvalidInputError(f"unknown weight {kind!r}")


def _set_from_config(cfg: dict):
    spec = {"kind": cfg.get("geometry")}
    for key in ("radius", "m", "m_r", "m_theta", "a", "b", "rule", "d"):
        if key in cfg:
            spec[key] = cfg[key]
    return build_set(spec)


def _model_from_config(cfg: dict) -> ExtremalModel:
    name = cfg.get("model")
    if name == "disk":
        return disk(float(cfg.get("model_radius", 1.0)))
    if name == "weighted_disk":
        return weighted_disk()
    raise InvalidInputError(f"unknown or missing model {name!r}")


def _perturbation_from_config(cfg: dict):
    kind = cfg.get("perturbation", "real_part")
    if kind == "real_part":
        return lambda pts: np.real(pts[:, 0])
    if kind == "abs2":
        return lambda pts: np.sum(np.abs(pts) ** 2, axis=1)
    if kind == "constant":
        c = float(cfg.get("perturbation_constant", 1.0))
        return lambda pts: np.full(pts.shape[0], c)
    raise InvalidInputError(f"unknown perturbation {kind!r}")


def cmd_fekete(cfg: dict) -> dict:
    cand = _set_from_config(cfg)
    weight = _weight_from_config(cfg)
    n_max = int(cfg.get("n_max", 10))
    sweeps = int(cfg.get("max_sweeps", 10))
    seq = diameter_sequence(cand, weight, n_max, sweeps)
    return {
        "sequence": seq,
        "delta_extrapolated": extrapolate_diameter(seq),
    }


def cmd_optmeas(cfg: dict) -> dict:
    cand = _set_from_config(cfg)
    weight = _weight_from_config(cfg)
    n_max = int(cfg.get("n_max", 3))
    tol = float(cfg.get("tol", 1e-6))
    reports = []
    for n in range(1, n_max + 1):
        rep = solve_optimal_measure(cand, weight, n, tol=tol)
        entry = rep.to_dict()
        entry["certificate"] = support_certificate(rep.measure, weight, n, tol)
        entry["masses"] = rep.measure.masses.tolist()
        reports.append(entry)
    return {"reports": reports}


def cmd_cheb(cfg: dict) -> dict:
    cand = _set_from_config(cfg)
    weight = _weight_from_config(cfg)
    class_tag = cfg.get("class", "plain")
    n_max = int(cfg.get("n_max", 4))
    trend = []
    all_records = []
    for n in range(1, n_max + 1):
        gm, records = tau_geometric_mean(cand, weight, class_tag, n)
        trend.append({"n": n, "tau_geometric_mean": gm})
        all_records.extend(records)
    audit = submultiplicativity_audit(all_records)
    return {
        "class": class_tag,
        "records": [
            {"alpha": list(r.alpha), "Y": r.value, "tau": r.tau}
            for r in all_records
        ],
        "tau_trend": trend,
        "violations": audit,
    }


def cmd_tfd(cfg: dict) -> dict:
    cand = _set_from_config(cfg)
    weight = _weight_from_config(cfg)
    n_max = int(cfg.get("n_max", 8))
    sweeps = int(cfg.get("max_sweeps", 10))

    fekete_seq = diameter_sequence(cand, weight, n_max, sweeps)
    fekete_route = [
        {"n": s["n"], "delta": s["delta_n"]} for s in fekete_seq
    ]

    gram_route = []
    if cand.masses is not None:
        ref = DiscreteMeasure.from_reference(cand)
        for n in range(1, n_max + 1):
            sys = gram_matrix(ref, weight, n)
            gram_route.append(
                {"n": n, "delta": math.exp(normalized_log_det(sys))}
            )

    cheb_route = []
    class_tag = "weighted" if cfg.get("weight", "zero") != "zero" else "plain"
    cheb_cap = int(cfg.get("cheb_n_max", min(n_max, 6)))
    log_y_total = 0.0
    for n in range(1, cheb_cap + 1):
        gm, _ = tau_geometric_mean(cand, weight, class_tag, n)
        _, _, l_n, r_n = dimension_counts(n, cand.dimension)
        log_y_total += r_n * math.log(gm)
        cheb_route.append({"n": n, "delta": math.exp(log_y_total / l_n)})

    lift_cap = int(cfg.get("lift_n_max", min(n_max, 3)))
    lift_route = lift_identity_check(cand, weight, lift_cap, fekete_seq=fekete_seq)

    return {
        "fekete_route": fekete_route,
        "fekete_extrapolated": extrapolate_diameter(fekete_seq),
        "gram_route": gram_route,
        "chebyshev_route": cheb_route,
        "lift_route": [
            {"n": r["n"], "delta": r["delta_rhs"], "gap": r["relative_gap"]}
            for r in lift_route
        ],
    }


def cmd_bergman(cfg: dict) -> dict:
    cand = _set_from_config(cfg)
    weight = _weight_from_config(cfg)
    n_max = int(cfg.get("n_max", 8))
    if cand.masses is None:
        raise InvalidInputError("bergman subcommand needs quadrature masses")
    ref = DiscreteMeasure.from_reference(cand)
    rows = []
    for n in range(1, n_max + 1):
        sys = gram_matrix(ref, weight, n)
        m_n, argmax = bm_constant(sys, cand)
        rows.append(
            {
                "n": n,
                "N": sys.size,
                "M_n": m_n,
                "M_n_nth_root": m_n ** (1.0 / n),
                "argmax": [complex(z) for z in argmax],
            }
        )
    return {"bm_sequence": rows}


def cmd_energy_check(cfg: dict) -> dict:
    model = _model_from_config(cfg)
    n_max = int(cfg.get("n_max", 16))
    resolution = int(cfg.get("resolution", 200))
    cand = _set_from_config(cfg) if "geometry" in cfg else None
    report = rumely_check(
        model, cand, n_max, resolution, int(cfg.get("max_sweeps", 10))
    )
    report["dw_vs_deltaw"] = dw_vs_deltaw_check(model, resolution)
    return report


def cmd_diag(cfg: dict) -> dict:
    cand = _set_from_config(cfg)
    weight = _weight_from_config(cfg)
    n = int(cfg.get("n", 4))
    u_fn = _perturbation_from_config(cfg)
    cfg_fekete = search_fekete(cand, n, weight,
                               int(cfg.get("max_sweeps", 10)))
    mu = empirical_measure(cfg_fekete, cand)
    report = f_n_path(mu, weight, u_fn, n)
    out = {"path": report.to_dict(),
           "max_second_difference": report.max_second_difference()}
    if "model" in cfg:
        model = _model_from_config(cfg)
        out["weak_star_moment_distance"] = weak_star_distance(
            mu, model, int(cfg.get("max_moment", 5))
        )
        if cand.dimension == 1:
            out["radial_cdf_distance"] = radial_cdf_distance(mu, model)
    return out


COMMANDS = {
    "fekete": cmd_fekete,
    "optmeas": cmd_optmeas,
    "cheb": cmd_cheb,
    "tfd": cmd_tfd,
    "bergman": cmd_bergman,
    "energy-check": cmd_energy_check,
    "diag": cmd_diag,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pluripot",
        description="Weighted Fekete points, optimal measures, and "
        "transfinite-diameter cross-checks.",
    )
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="key = value file")
    parser.add_argument("--out", default=None, help="JSON output path (default stdout)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized checks")
    parser.add_argument("--points-csv", default=None,
                        help="dump the candidate set as CSV")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
    except PluripotError as exc:
        sys.stdout.write(to_json({"error": "config", "message": str(exc)}) + "\n")
        return EXIT_CONFIG
    np.random.seed(args.seed)
    try:
        result = COMMANDS[args.subcommand](cfg)
        if args.points_csv and "geometry" in cfg:
            export_csv(_set_from_config(cfg), args.points_csv)
    except PluripotError as exc:
        sys.stdout.write(
            to_json({"error": "computation", "message": str(exc)}) + "\n"
        )
        return EXIT_COMPUTE
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "module_version": __version__,
        "subcommand": args.subcommand,
        "config_hash": config_hash(cfg),
        "seed": args.seed,
        "results": result,
    }
    text = to_json(envelope) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
