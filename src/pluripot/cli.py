"""Command-line surface: reproducible experiments emitting JSON reports.

Configs are flat key = value files (diffable provenance); the README lists
the keys each subcommand reads, and any other key is ignored but hashed.
Every report embeds the config hash and package version, and floats are
serialized with 17 significant digits so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import pathlib
import sys

import numpy as np

from . import __version__
from .basis import dimension_counts
from .cheb import lift_identity_check, submultiplicativity_audit, tau_geometric_mean
from .diag import f_n_path, radial_cdf_distance, weak_star_distance
from .domains import AdmissibleWeight, build_set, export_csv
from .energy import ExtremalModel, disk, dw_vs_deltaw_check, rumely_check, weighted_disk
from .errors import InvalidInputError, PluripotError
from .fekete import (
    EXCHANGE_TOL,
    diameter_sequence,
    empirical_measure,
    extrapolate_diameter,
    search_fekete,
)
from .gram import DiscreteMeasure, gram_sequence, normalized_log_det
from .optmeas import solve_optimal_measure

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
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return to_json(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(v) is float for v in obj):
            items = [format_number(v) for v in obj]
        elif all(type(v) is int for v in obj):
            items = [str(v) for v in obj]
        else:
            items = [to_json(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(pad2 + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad2}{json.dumps(k)}: {to_json(v, indent + 1)}" for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise InvalidInputError(f"cannot serialize {type(obj).__name__}")


class ConfigError(InvalidInputError):
    """A config file that cannot be read, or a key of the wrong type or range."""


def parse_config(path: str) -> dict:
    """Flat key = value UTF-8 file; values typed as int, float, bool, or str."""
    cfg: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, val = (s.strip() for s in line.split("=", 1))
                if not key:
                    raise ConfigError(f"{path}:{lineno}: empty key")
                cfg[key] = _parse_value(val)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}")
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


def _number(cfg: dict, key: str, kind: type, default=None, least=None):
    """cfg[key] as an int or a float, or ``default`` when the key is absent.

    A value that is not a number, a fractional value for an int key and a
    value below ``least`` raise ConfigError naming the key.
    """
    if key not in cfg:
        return default
    val = cfg[key]
    number = isinstance(val, (int, float)) and not isinstance(val, bool)
    if not number or (kind is int and not float(val).is_integer()):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"key {key!r} must be {noun}, got {val!r}")
    if least is not None and val < least:
        raise ConfigError(f"key {key!r} must be >= {least}, got {val!r}")
    return kind(val)


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


# The numeric geometry keys and their types; build_set reads them.
_GEOMETRY_KEYS = {"radius": float, "a": float, "b": float,
                  "m": int, "m_r": int, "m_theta": int, "d": int}


def _set_from_config(cfg: dict):
    spec = {key: _number(cfg, key, kind)
            for key, kind in _GEOMETRY_KEYS.items() if key in cfg}
    spec["kind"] = cfg.get("geometry")
    if "rule" in cfg:
        spec["rule"] = cfg["rule"]
    try:
        return build_set(spec)
    except KeyError as exc:
        kind, key = spec["kind"], exc.args[0]
        raise ConfigError(f"geometry {kind!r} needs key {key!r}") from None


def _model_from_config(cfg: dict) -> ExtremalModel:
    name = cfg.get("model")
    if name == "disk":
        return disk(_number(cfg, "model_radius", float, 1.0))
    if name == "weighted_disk":
        return weighted_disk()
    raise InvalidInputError(f"unknown or missing model {name!r}")


def cmd_fekete(cfg: dict) -> dict:
    cand = _set_from_config(cfg)
    weight = _weight_from_config(cfg)
    seq = diameter_sequence(cand, weight, _number(cfg, "n_max", int, 10, 1))
    return {
        "sequence": seq,
        "delta_extrapolated": extrapolate_diameter(seq),
    }


def cmd_optmeas(cfg: dict) -> dict:
    cand = _set_from_config(cfg)
    weight = _weight_from_config(cfg)
    n_max = _number(cfg, "n_max", int, 3, 1)
    return {"reports": [solve_optimal_measure(cand, weight, n).to_dict()
                        for n in range(1, n_max + 1)]}


def cmd_cheb(cfg: dict) -> dict:
    cand = _set_from_config(cfg)
    weight = _weight_from_config(cfg)
    class_tag = cfg.get("class", "plain")
    n_max = _number(cfg, "n_max", int, 4, 1)
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
    n_max = _number(cfg, "n_max", int, 8, 1)

    fekete_seq = diameter_sequence(cand, weight, n_max)
    fekete_route = [
        {"n": s["n"], "delta": s["delta_n"]} for s in fekete_seq
    ]

    gram_route = []
    if cand.masses is not None:
        ref = DiscreteMeasure.from_reference(cand)
        gram_route = [
            {"n": sys.degree, "delta": math.exp(normalized_log_det(sys))}
            for sys, _ in gram_sequence(ref, weight, n_max)
        ]

    cheb_route = []
    class_tag = "plain" if weight.kind == "zero" else "weighted"
    cheb_cap = _number(cfg, "cheb_n_max", int, min(n_max, 6), 0)
    log_y_total = 0.0
    for n in range(1, cheb_cap + 1):
        gm, _ = tau_geometric_mean(cand, weight, class_tag, n)
        _, _, l_n, r_n = dimension_counts(n, cand.dimension)
        # A zero constant makes delta 0 from its degree on.
        log_y_total += r_n * math.log(gm) if gm > 0 else -math.inf
        cheb_route.append({"n": n, "delta": math.exp(log_y_total / l_n)})

    lift_cap = _number(cfg, "lift_n_max", int, min(n_max, 3), 0)
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
    n_max = _number(cfg, "n_max", int, 8, 1)
    if cand.masses is None:
        raise InvalidInputError("bergman subcommand needs quadrature masses")
    ref = DiscreteMeasure.from_reference(cand)
    rows = []
    for sys, b in gram_sequence(ref, weight, n_max):
        n = sys.degree
        m_n = float(np.sqrt(b.max()))
        # Values within EXCHANGE_TOL of the max are ties, which rounding
        # must not break: the lowest point index wins.
        top = int(np.argmax(b >= b.max() * (1.0 - EXCHANGE_TOL)))
        rows.append(
            {
                "n": n,
                "N": sys.size,
                "M_n": m_n,
                "M_n_nth_root": m_n ** (1.0 / n),
                "argmax": [complex(z) for z in cand.points[top]],
            }
        )
    return {"bm_sequence": rows}


def cmd_energy_check(cfg: dict) -> dict:
    model = _model_from_config(cfg)
    cand = _set_from_config(cfg) if "geometry" in cfg else None
    report = rumely_check(model, cand, _number(cfg, "n_max", int, 16, 1))
    report["dw_vs_deltaw"] = dw_vs_deltaw_check(model)
    return report


def cmd_diag(cfg: dict) -> dict:
    cand = _set_from_config(cfg)
    weight = _weight_from_config(cfg)
    n = _number(cfg, "n", int, 4, 1)
    mu = empirical_measure(search_fekete(cand, n, weight), cand)
    report = f_n_path(mu, weight, lambda pts: np.real(pts[:, 0]), n)
    out = {"path": report.to_dict(),
           "max_second_difference": report.max_second_difference()}
    if "model" in cfg:
        model = _model_from_config(cfg)
        out["weak_star_moment_distance"] = weak_star_distance(mu, model)
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
    parser.add_argument("--points-csv", default=None,
                        help="dump the candidate set as CSV")
    return parser


def _write(path: str, write) -> None:
    """Call write(path); an OSError there is a config error naming the path."""
    try:
        write(path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        result = COMMANDS[args.subcommand](cfg)
        if args.points_csv and "geometry" in cfg:
            cand = _set_from_config(cfg)
            _write(args.points_csv, lambda path: export_csv(cand, path))
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "module_version": __version__,
            "subcommand": args.subcommand,
            "config_hash": config_hash(cfg),
            # The v1 envelope requires a seed; no computation draws a random number.
            "seed": 0,
            "results": result,
        }
        text = to_json(envelope) + "\n"
        if args.out:
            _write(args.out, lambda path: pathlib.Path(path).write_text(text))
    except ConfigError as exc:
        sys.stdout.write(to_json({"error": "config", "message": str(exc)}) + "\n")
        return EXIT_CONFIG
    except PluripotError as exc:
        sys.stdout.write(
            to_json({"error": "computation", "message": str(exc)}) + "\n"
        )
        return EXIT_COMPUTE
    if not args.out:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
