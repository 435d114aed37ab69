"""The benchmark's workloads: configs generated from a seed, and their checks.

A workload is a list of pluripot CLI invocations.  Each invocation carries
the text of its config file and a check that reads the report's fields by
name and compares them with the closed forms in ``oracles``.  A check
returns one (operation, problems) pair per operation the invocation counts,
so a failed check is counted, never fatal.  Each problem is a (fault,
message) pair; ``KNOWN_FAILURES`` lists, per operation, the faults of the
program that fail it today, and any other fault makes a run incorrect.

The seed picks the radii of ``tfd-lift`` and ``cli-mix`` from short fixed
lists; every entry was run and passes every check.  The two workloads with
failing operations, ``optmeas-interval`` and ``cheb-circle``, run on fixed
inputs, so the failed share of a run depends neither on the seed nor on the
run length.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles

# cheb.py states its minimax values to 1e-9 relative.
CHEB_RTOL = 1e-9
# A minimax value that stops at the refinement cap lies 3-5e-9 above the
# exact one; an error above this ceiling is a wrong value, not that fault.
CHEB_CAPPED_RTOL = 1e-7
# Closed-form quantities that the program evaluates by quadrature or a
# Cholesky factor of an exactly orthonormal Gram matrix.
EXACT_RTOL = 1e-9
# An independent numpy log|det| against the program's pivoted-QR value.
LOGDET_ATOL = 1e-8

TFD_M = 48
TFD_N_MAX = 5
TFD_RADII = (0.8, 0.9, 1.0, 1.1, 1.2)

OPTMEAS_M = 201
OPTMEAS_N_MAX = 4

CHEB_M = 201
CHEB_N_MAX = 8
# Which degrees miss 1e-9 depends on r: at r = 1.1 and 1.15 degree 6
# passes, at r <= 0.9 and r = 1.05 degree 5 fails too.  So the radius is
# fixed, and degrees 6, 7 and 8 fail on every run.
CHEB_RADIUS = 1.0

MIX_RADII = (0.8, 0.9, 1.0, 1.1, 1.2)
MIX_CIRCLE_M = 201
MIX_CIRCLE_N_MAX = 20
MIX_TORUS_M = 41
MIX_TORUS_N_MAX = 12
MIX_OPTMEAS_M = 21
MIX_OPTMEAS_N_MAX = 6
MIX_CHEB_INTERVAL_M = 841  # m - 1 = 840 is divisible by every k <= 8
MIX_CHEB_INTERVAL_N_MAX = 8
MIX_SMALL_CIRCLE_M = 64
MIX_SMALL_CIRCLE_N_MAX = 5
MIX_ENERGY_N_MAX = 12
MIX_DIAG_N = 4
# energy-check extrapolates delta from n <= 12; it lands within this share.
EXTRAPOLATION_RTOL = 0.10
DIAG_DERIVATIVE_ATOL = 1e-6
DIAG_CONCAVITY_TOL = 1e-8

# Faults of a failed operation.  CHECK is any failed check without a
# fault of its own, ERROR an invocation that raised, exited non-zero or
# wrote an unreadable report; neither is ever a known failure.
CHECK = "check"
ERROR = "error"
UNCONVERGED = "unconverged"
CERTIFICATE = "certificate"
REFINE_CAP = "refine-cap"

Problem = tuple[str, str]
Check = Callable[[dict], "list[tuple[str, list[Problem]]]"]


@dataclass(frozen=True)
class Invocation:
    """One ``pluripot <subcommand> --config <file>`` call and its check."""

    label: str
    subcommand: str
    config: str
    n_ops: int
    check: Check


def config_text(**entries) -> str:
    return "".join(f"{key} = {value!r}\n" if isinstance(value, float)
                   else f"{key} = {value}\n" for key, value in entries.items())


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _circle_points(radius: float, m: int) -> np.ndarray:
    return radius * np.exp(2j * np.pi * np.arange(m) / m)


def _torus_points(m: int) -> np.ndarray:
    axis = np.exp(2j * np.pi * np.arange(m) / m)
    g0, g1 = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([g0.ravel(), g1.ravel()])


def _single(name: str, messages: list[str]) -> list[tuple[str, list[Problem]]]:
    """One operation whose failed checks have no fault of their own."""
    return [(name, [(CHECK, m) for m in messages])]


def _collapse(name: str, results) -> list[tuple[str, list[Problem]]]:
    """Fold per-operation results into one operation."""
    return [(name, [(fault, f"{op}: {m}") for op, problems in results
                    for fault, m in problems])]


def _expect_degrees(rows: list[dict], n_max: int, what: str) -> list[str]:
    got = [row["n"] for row in rows]
    want = list(range(1, n_max + 1))
    return [] if got == want else [f"{what} has degrees {got}, want {want}"]


# ---------------------------------------------------------------- tfd-lift


def tfd_lift(seed: int) -> list[Invocation]:
    radius = _rng("tfd-lift", seed).choice(TFD_RADII)

    def check(res: dict):
        problems = []
        for key in ("fekete_route", "gram_route", "chebyshev_route"):
            problems += _expect_degrees(res[key], TFD_N_MAX, key)
        problems += _expect_degrees(res["lift_route"], 3, "lift_route")
        for key, rtol in (("gram_route", EXACT_RTOL), ("chebyshev_route", CHEB_RTOL)):
            for row in res[key]:
                if oracles.rel_err(row["delta"], radius) > rtol:
                    problems.append(f"{key} n={row['n']}: {row['delta']!r} != r")
        for row in res["lift_route"]:
            n = row["n"]
            if TFD_M % (n + 1) == 0:
                exact = oracles.circle_delta(n, radius)
                if oracles.rel_err(row["delta"], exact) > EXACT_RTOL:
                    problems.append(f"lift_route n={n}: {row['delta']!r} != {exact!r}")
        for row in res["fekete_route"]:
            bound = oracles.circle_delta(row["n"], radius)
            if row["delta"] > bound * (1 + EXACT_RTOL):
                problems.append(f"fekete_route n={row['n']}: {row['delta']!r} > {bound!r}")
        return _single("tfd", problems)

    cfg = config_text(geometry="circle", radius=radius, m=TFD_M, n_max=TFD_N_MAX)
    return [Invocation("tfd-circle48", "tfd", cfg, 1, check)]


# -------------------------------------------------------- optmeas-interval


def optmeas_interval(seed: int) -> list[Invocation]:
    """Fixed inputs on [-1, 1]: every degree fails (see KNOWN_FAILURES)."""
    grid = np.linspace(-1.0, 1.0, OPTMEAS_M)

    def check(res: dict):
        reports = res["reports"]
        out = []
        for n in range(1, OPTMEAS_N_MAX + 1):
            rows = [r for r in reports if r["n"] == n]
            if len(rows) != 1:
                out.append((f"optmeas n={n}", [(CHECK, "no report for this degree")]))
                continue
            rep = rows[0]
            guest = oracles.guest_nodes(n)
            best = oracles.design_log_det(guest, n)
            snapped = oracles.design_log_det(oracles.snap_to_grid(guest, grid), n)
            problems = []
            if not rep["converged"]:
                problems.append((UNCONVERGED,
                                 f"not converged after {rep['iterations']} iterations,"
                                 f" kw_gap/N = {rep['kw_gap'] / (n + 1):.2e}"))
            if rep["certificate"]["violations"]:
                problems.append((CERTIFICATE, f"{len(rep['certificate']['violations'])}"
                                              " certificate violations"))
            if rep["log_det"] > best + 1e-9 * max(1.0, abs(best)):
                problems.append((CHECK, f"log_det {rep['log_det']!r} above the Guest"
                                        f" design {best!r}"))
            if rep["log_det"] + rep["kw_gap"] < snapped - 1e-9 * max(1.0, abs(snapped)):
                problems.append((CHECK, f"log_det + kw_gap {rep['log_det'] + rep['kw_gap']!r}"
                                        f" below the grid design {snapped!r}"))
            out.append((f"optmeas n={n}", problems))
        return out

    cfg = config_text(geometry="interval", a=-1.0, b=1.0, m=OPTMEAS_M, n_max=OPTMEAS_N_MAX)
    return [Invocation("optmeas-interval201", "optmeas", cfg, OPTMEAS_N_MAX, check)]


# ------------------------------------------------------------- cheb-circle


def _capped_or_wrong(err: float) -> str:
    """The fault of a minimax value off by ``err`` > CHEB_RTOL relative."""
    return REFINE_CAP if err <= CHEB_CAPPED_RTOL else CHECK


def _check_circle_cheb(res: dict, radius: float, n_max: int, prefix: str):
    # Largest relative excess Y(a+b) / (Y(a) Y(b)) - 1 per left-hand side.
    excess: dict[tuple, float] = {}
    for v in res["violations"]:
        ab = tuple(a + b for a, b in zip(v["alpha"], v["beta"]))
        excess[ab] = max(excess.get(ab, 0.0), v["lhs"] / v["rhs"] - 1.0)
    values = {tuple(r["alpha"]): r["Y"] for r in res["records"]}
    out = []
    for k in range(1, n_max + 1):
        problems = []
        if (k,) not in values:
            problems.append((CHECK, "no record"))
        else:
            exact = oracles.circle_chebyshev(k, radius)
            err = oracles.rel_err(values[(k,)], exact)
            if err > CHEB_RTOL:
                problems.append((_capped_or_wrong(err),
                                 f"Y = {values[(k,)]!r}, relative error {err:.1e} vs r^k"))
        if (k,) in excess:
            problems.append((_capped_or_wrong(excess[(k,)]),
                             f"submultiplicativity violated by {excess[(k,)]:.1e}"))
        out.append((f"{prefix} k={k}", problems))
    return out


def cheb_circle(seed: int) -> list[Invocation]:
    """Fixed inputs: degrees 6 to 8 fail (see KNOWN_FAILURES)."""
    radius = CHEB_RADIUS
    cfg = config_text(geometry="circle", radius=radius, m=CHEB_M, n_max=CHEB_N_MAX)
    return [Invocation(
        "cheb-circle201", "cheb", cfg, CHEB_N_MAX,
        lambda res: _check_circle_cheb(res, radius, CHEB_N_MAX, "cheb"),
    )]


# ----------------------------------------------------------------- cli-mix


def _check_fekete(res: dict, points: np.ndarray, name: str):
    problems = []
    for row in res["sequence"]:
        mine = oracles.log_abs_det_monomials(points[row["indices"]], row["n"])
        if abs(mine - row["log_vdm"]) > LOGDET_ATOL * max(1.0, abs(mine)):
            problems.append(f"n={row['n']}: log_vdm {row['log_vdm']!r} != {mine!r}")
    return _single(name, problems)


def _check_bergman(res: dict, d: int, n_max: int, name: str):
    rows = res["bm_sequence"]
    problems = _expect_degrees(rows, n_max, "bm_sequence")
    for row in rows:
        exact = oracles.bergman_sup(row["n"], d)
        if row["N"] != math.comb(row["n"] + d, d) or oracles.rel_err(row["M_n"], exact) > EXACT_RTOL:
            problems.append(f"n={row['n']}: M_n {row['M_n']!r} != sqrt(N) {exact!r}")
    return _single(name, problems)


def _check_optmeas_torus(res: dict):
    rows = res["reports"]
    problems = _expect_degrees(rows, MIX_OPTMEAS_N_MAX, "reports")
    for rep in rows:
        if abs(rep["log_det"]) > EXACT_RTOL or not rep["converged"]:
            problems.append(f"n={rep['n']}: log_det {rep['log_det']!r}, converged {rep['converged']}")
    return _single("optmeas-torus", problems)


def _check_cheb_interval(res: dict):
    values = {tuple(r["alpha"]): r["Y"] for r in res["records"]}
    problems = []
    for k in range(1, MIX_CHEB_INTERVAL_N_MAX + 1):
        exact = oracles.interval_chebyshev(k)
        got = values.get((k,))
        if got is None or oracles.rel_err(got, exact) > CHEB_RTOL:
            problems.append(f"k={k}: Y {got!r} != 2^(1-k)")
    return _single("cheb-interval", problems)


def _check_energy(res: dict, rhs: float, delta: float, name: str):
    problems = []
    if oracles.rel_err(res["rhs"], rhs) > EXACT_RTOL:
        problems.append(f"rhs {res['rhs']!r} != {rhs!r}")
    dw = res["dw_vs_deltaw"]
    for key in ("delta_from_product", "delta_from_energy"):
        if oracles.rel_err(dw[key], delta) > EXACT_RTOL:
            problems.append(f"{key} {dw[key]!r} != {delta!r}")
    if oracles.rel_err(res["delta_exact"], delta) > EXACT_RTOL:
        problems.append(f"delta_exact {res['delta_exact']!r} != {delta!r}")
    if oracles.rel_err(res["delta_estimate"], delta) > EXTRAPOLATION_RTOL:
        problems.append(f"delta_estimate {res['delta_estimate']!r} not within 10% of {delta!r}")
    return _single(name, problems)


def _check_diag(res: dict):
    path = res["path"]
    problems = []
    diff = np.max(np.abs(np.subtract(path["f_prime_analytic"], path["f_prime_fd"])))
    if not diff <= DIAG_DERIVATIVE_ATOL:
        problems.append(f"analytic and finite-difference derivatives differ by {diff:.1e}")
    if not res["max_second_difference"] <= DIAG_CONCAVITY_TOL:
        problems.append(f"max second difference {res['max_second_difference']!r}")
    return _single("diag", problems)


def cli_mix(seed: int) -> list[Invocation]:
    rng = _rng("cli-mix", seed)
    r_big, r_small, r_diag = (rng.choice(MIX_RADII) for _ in range(3))
    circle = config_text(geometry="circle", radius=r_big, m=MIX_CIRCLE_M,
                         n_max=MIX_CIRCLE_N_MAX)
    torus = config_text(geometry="torus", d=2, m=MIX_TORUS_M, n_max=MIX_TORUS_N_MAX)
    circle_pts = _circle_points(r_big, MIX_CIRCLE_M)[:, None]
    torus_pts = _torus_points(MIX_TORUS_M)
    return [
        Invocation("fekete-circle", "fekete", circle, 1,
                   lambda res: _check_fekete(res, circle_pts, "fekete-circle")),
        Invocation("fekete-torus", "fekete", torus, 1,
                   lambda res: _check_fekete(res, torus_pts, "fekete-torus")),
        Invocation("bergman-circle", "bergman", circle, 1,
                   lambda res: _check_bergman(res, 1, MIX_CIRCLE_N_MAX, "bergman-circle")),
        Invocation("bergman-torus", "bergman", torus, 1,
                   lambda res: _check_bergman(res, 2, MIX_TORUS_N_MAX, "bergman-torus")),
        Invocation("optmeas-torus", "optmeas",
                   config_text(geometry="torus", d=2, m=MIX_OPTMEAS_M,
                               n_max=MIX_OPTMEAS_N_MAX),
                   1, _check_optmeas_torus),
        Invocation("cheb-interval", "cheb",
                   config_text(geometry="interval", rule="chebyshev",
                               m=MIX_CHEB_INTERVAL_M, n_max=MIX_CHEB_INTERVAL_N_MAX),
                   1, _check_cheb_interval),
        Invocation("cheb-circle64", "cheb",
                   config_text(geometry="circle", radius=r_small,
                               m=MIX_SMALL_CIRCLE_M, n_max=MIX_SMALL_CIRCLE_N_MAX),
                   1, lambda res: _collapse("cheb-circle64", _check_circle_cheb(
                       res, r_small, MIX_SMALL_CIRCLE_N_MAX, "cheb"))),
        Invocation("energy-weighted-disk", "energy-check",
                   config_text(model="weighted_disk", geometry="disk", m_r=30,
                               m_theta=24, n_max=MIX_ENERGY_N_MAX),
                   1, lambda res: _check_energy(res, oracles.WEIGHTED_DISK_RHS,
                                                oracles.WEIGHTED_DISK_DELTA,
                                                "energy-weighted-disk")),
        Invocation("energy-disk-half", "energy-check",
                   config_text(model="disk", model_radius=0.5, geometry="circle",
                               radius=0.5, m=MIX_CIRCLE_M, n_max=MIX_ENERGY_N_MAX),
                   1, lambda res: _check_energy(res, oracles.disk_rhs(0.5), 0.5,
                                                "energy-disk-half")),
        Invocation("diag-circle64", "diag",
                   config_text(geometry="circle", radius=r_diag,
                               m=MIX_SMALL_CIRCLE_M, n=MIX_DIAG_N),
                   1, _check_diag),
    ]


WORKLOADS: dict[str, Callable[[int], list[Invocation]]] = {
    "tfd-lift": tfd_lift,
    "optmeas-interval": optmeas_interval,
    "cheb-circle": cheb_circle,
    "cli-mix": cli_mix,
}

# The program faults behind the known failures.
FAULTS = {
    UNCONVERGED: "optmeas.solve_optimal_measure stops at its iteration cap 10*m*n*(n+1)",
    CERTIFICATE: "the optimal measure keeps mass on nodes where B < N",
    REFINE_CAP: "cheb._solve_minimax uses all refinement rounds without reaching 1e-9",
}

# Operations that fail on every input their workload generates, and the
# faults each may show.  Any other fault, on these or other operations,
# makes a run incorrect.
KNOWN_FAILURES: dict[str, dict[str, set[str]]] = {
    "optmeas-interval": {
        **{f"optmeas n={n}": {CERTIFICATE} for n in (1, 4)},
        **{f"optmeas n={n}": {UNCONVERGED, CERTIFICATE} for n in (2, 3)},
    },
    "cheb-circle": {f"cheb k={k}": {REFINE_CAP} for k in (6, 7, 8)},
}


def add_failures(failures: dict[str, dict[str, str]], results) -> int:
    """Merge a check's (operation, problems) pairs into ``failures``
    (operation -> fault -> first message); return how many failed."""
    failed = 0
    for op, problems in results:
        if problems:
            failed += 1
            faults = failures.setdefault(op, {})
            for fault, message in problems:
                faults.setdefault(fault, message)
    return failed


def unexpected(workload: str, failures: dict[str, dict[str, str]]) -> list[str]:
    """Operations in ``failures`` (operation -> fault -> message) that fail
    for a fault ``KNOWN_FAILURES`` does not list for them."""
    known = KNOWN_FAILURES.get(workload, {})
    return sorted(op for op, faults in failures.items()
                  if set(faults) - known.get(op, set()))
