"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import math
import time

import numpy as np
import pytest

from pluripot import cheb, cli, diag, domains, energy, fekete, lift
from pluripot.basis import dimension_counts
from pluripot.domains import AdmissibleWeight
from pluripot.gram import DiscreteMeasure, bergman_function, free_energy, gram_matrix
from pluripot.optmeas import solve_optimal_measure

ZERO = AdmissibleWeight.zero()
QUAD = AdmissibleWeight.quadratic()


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {name}: {status}  {detail}".rstrip(), flush=True)
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_combinatorics():
    t0 = time.time()
    ok = True
    for d in range(1, 7):
        for n in range(31):
            m_n, h_n, l_n, r_n = dimension_counts(n, d)
            if l_n * (d + 1) != d * n * m_n:
                ok = False
            if l_n != sum(dimension_counts(k, d)[3] for k in range(n + 1)):
                ok = False
    elapsed = time.time() - t0
    report(1, "count identities n<=30 d<=6", ok and elapsed < 1.0,
           f"runtime {elapsed:.3f}s")


def test_criterion_02_circle_transfinite_diameter():
    t0 = time.time()
    c = domains.circle(1.0, 201)
    seq = fekete.diameter_sequence(c, ZERO, 20)
    worst = 0.0
    for rec in seq[1:]:
        oracle = rec["N"] ** (1.0 / rec["n"])
        worst = max(worst, abs(rec["delta_n"] - oracle) / oracle)
    limit = fekete.extrapolate_diameter(seq)
    elapsed = time.time() - t0
    ok = worst <= 5e-3 and abs(limit - 1.0) <= 0.02 and elapsed < 30
    report(2, "circle tfd vs N^(1/n)", ok,
           f"worst rel {worst:.2e}, extrapolated {limit:.4f}, {elapsed:.2f}s")


def _det_g_three_points(a, c, n):
    """det G on {-1,0,1} with masses (a, 1-a-c, c), vectorized in (a, c)."""
    m1 = c - a
    m2 = a + c
    if n == 1:
        return m2 - m1**2
    m3, m4 = m1, m2
    return (
        m2 * m4 - m3**2
        - m1 * (m1 * m4 - m2 * m3)
        + m2 * (m1 * m3 - m2**2)
    )


def test_criterion_03_kiefer_wolfowitz():
    t0 = time.time()
    cand = domains.custom(np.array([-1.0, 0.0, 1.0]).astype(complex)[:, None])
    details = []
    ok = True
    for n, expected in ((1, [0.5, 0.0, 0.5]), (2, [1 / 3, 1 / 3, 1 / 3])):
        rep = solve_optimal_measure(cand, ZERO, n)
        err = float(np.max(np.abs(rep.measure.masses - expected)))
        gap_ok = rep.kw_gap / (n + 1) <= 1e-6 if n == 1 else True
        # brute-force oracle over the simplex, grid step 1e-3
        ticks = np.arange(0.0, 1.0 + 5e-4, 1e-3)
        aa, cc = np.meshgrid(ticks, ticks)
        mask = aa + cc <= 1.0 + 1e-12
        dets = np.where(mask, _det_g_three_points(aa, cc, n), -np.inf)
        i, j = np.unravel_index(np.argmax(dets), dets.shape)
        oracle = [aa[i, j], 1.0 - aa[i, j] - cc[i, j], cc[i, j]]
        oracle_err = float(np.max(np.abs(np.array(oracle) - expected)))
        ok = ok and err <= 1e-4 and gap_ok and oracle_err <= 2e-3
        details.append(f"n={n} mass err {err:.1e} oracle err {oracle_err:.1e}")
    elapsed = time.time() - t0
    report(3, "three-point D-optimal designs", ok and elapsed < 5,
           "; ".join(details) + f", {elapsed:.2f}s")


def _random_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    m = int(rng.integers(n + 3, n + 12))
    pts = rng.normal(size=m) + 1j * rng.normal(size=m)
    cand = domains.custom(pts[:, None])
    masses = rng.random(m) + 0.05
    mu = DiscreteMeasure(cand, masses / masses.sum())
    weight = ZERO if rng.random() < 0.5 else QUAD
    return mu, weight, n


def test_criterion_04_trace_identity():
    worst = 0.0
    for seed in range(20):
        mu, weight, n = _random_instance(seed)
        sys = gram_matrix(mu, weight, n)
        total = float(np.sum(mu.masses * bergman_function(sys, mu.candidates.points)))
        worst = max(worst, abs(total - sys.size) / sys.size)
    report(4, "trace identity sum(mass*B) = N", worst <= 1e-9,
           f"worst rel {worst:.2e} over 20 instances")


def _brute_force_log_z(pts, masses, weight, n):
    q = weight(pts[:, None])
    n_dim = n + 1
    total = 0.0
    for combo in itertools.product(range(len(pts)), repeat=n_dim):
        if len(set(combo)) < n_dim:
            continue
        v = np.vander(pts[list(combo)], n_dim, increasing=True)
        w2 = math.exp(-2.0 * n * float(q[list(combo)].sum()))
        total += float(np.prod(masses[list(combo)])) * abs(np.linalg.det(v)) ** 2 * w2
    return math.log(total)


def test_criterion_05_free_energy_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n in (1, 2):
        for _ in range(4):
            m = int(rng.integers(n + 2, 13))
            pts = rng.normal(size=m) + 1j * rng.normal(size=m)
            masses = rng.random(m) + 0.1
            masses = masses / masses.sum()
            mu = DiscreteMeasure(domains.custom(pts[:, None]), masses)
            for weight in (ZERO, QUAD):
                log_z = free_energy(mu, weight, n)
                oracle = _brute_force_log_z(pts, masses, weight, n)
                worst = max(worst, abs(log_z - oracle) / abs(oracle))
    report(5, "free energy log Z = log N! + log det G", worst <= 1e-9,
           f"worst rel {worst:.2e} (N <= 3, support <= 12)")


def test_criterion_06_derivative_identity():
    worst_rel, worst_second = 0.0, -math.inf
    u_fn = lambda p: np.real(p[:, 0])
    for seed in range(10):
        mu, weight, n = _random_instance(seed + 500)
        rep = diag.f_n_path(mu, weight, u_fn, n,
                            t_grid=np.linspace(-0.3, 0.3, 7), fd_step=1e-4)
        scale = np.maximum(np.abs(rep.analytic_derivatives), 1.0)
        worst_rel = max(worst_rel, float(
            np.max(np.abs(rep.analytic_derivatives - rep.fd_derivatives) / scale)
        ))
        worst_second = max(worst_second, rep.max_second_difference())
    c = domains.circle(1.0, 64)
    cfg = fekete.search_fekete(c, 4, ZERO)
    fk = diag.f_n_path(fekete.empirical_measure(cfg, c), ZERO, u_fn, 4)
    affine = float(np.max(np.abs(fk.second_differences)))
    ok = worst_rel <= 1e-6 and worst_second <= 1e-8 and affine <= 1e-8
    report(6, "f_n' analytic vs FD, concavity, affine Fekete paths", ok,
           f"fd rel {worst_rel:.1e}, second diff {worst_second:.1e}, "
           f"affine {affine:.1e}")


def test_criterion_07_rumely_unweighted():
    t0 = time.time()
    res = energy.rumely_check(energy.disk(0.5), n_max=20)
    deltas = res["delta_sequence"]
    monotone = all(a >= b - 1e-12 for a, b in zip(deltas[1:], deltas[2:]))
    rel = res["gap"] / res["rhs"]
    elapsed = time.time() - t0
    ok = (
        abs(res["rhs"] - math.log(2.0)) < 1e-12
        and rel <= 0.10 and monotone and elapsed < 60
    )
    report(7, "energy formula, disk(1/2)", ok,
           f"rhs=log2, lhs {res['lhs']:.4f}, rel {rel:.3f}, "
           f"monotone={monotone}, {elapsed:.1f}s")


def test_criterion_08_rumely_weighted():
    t0 = time.time()
    rhs_exact = 0.75 + 0.5 * math.log(2.0)
    # independent oracle quadrature of int Q dmu + rho
    q_int = energy.weight_energy_integral(energy.weighted_disk())
    rho = energy.robin_constant(energy.weighted_disk())
    oracle_ok = abs((q_int + rho) - rhs_exact) <= 1e-8
    cand = domains.disk(1.0, 60, 48)
    res = energy.rumely_check(energy.weighted_disk(), cand=cand, n_max=16)
    rel = res["gap"] / res["rhs"]
    elapsed = time.time() - t0
    ok = (
        abs(res["rhs"] - rhs_exact) <= 1e-8 and oracle_ok
        and rel <= 0.10 and elapsed < 300
    )
    report(8, "energy formula, weighted disk", ok,
           f"rhs err {abs(res['rhs'] - rhs_exact):.1e}, "
           f"oracle err {abs(q_int + rho - rhs_exact):.1e}, "
           f"lhs rel {rel:.3f}, {elapsed:.1f}s")


def test_criterion_09_dw_vs_deltaw():
    res = energy.dw_vs_deltaw_check(energy.weighted_disk())
    target = math.exp(-0.75) / math.sqrt(2.0)
    closed_ok = (
        abs(res["delta_from_product"] - target) <= 1e-10
        and res["gap"] <= 1e-10
    )
    cand = domains.disk(1.0, 60, 48)
    rum = energy.rumely_check(energy.weighted_disk(), cand=cand, n_max=16)
    rel = abs(rum["delta_estimate"] - target) / target
    report(9, "delta^w = exp(-int Q dmu) * d^w", closed_ok and rel <= 0.10,
           f"closed-form gap {res['gap']:.1e}, fekete delta rel {rel:.3f}")


def test_criterion_10_lift_identity():
    cand = domains.circle(1.0, 10)
    out = lift.lift_identity_check(cand, QUAD, 3, m_t=2)
    worst = max(r["relative_gap"] for r in out)
    all_exhaustive = all(
        r["lhs_method"] == "exhaustive" and r["rhs_method"] == "exhaustive"
        for r in out
    )
    report(10, "weighted-VDM max equals homogeneous max on the lift",
           worst <= 1e-9 and all_exhaustive,
           f"worst rel gap {worst:.1e}, exhaustive both sides")


def test_criterion_11_chebyshev():
    cand = domains.interval(-1.0, 1.0, 1024)
    rec = cheb.chebyshev_constant(cand, (2,))
    interval_err = abs(rec.value - 0.5)
    worst_circle = 0.0
    records = []
    for r in (1.0, 0.5):
        c = domains.circle(r, 128)
        for k in (1, 2, 3):
            rc = cheb.chebyshev_constant(c, (k,))
            worst_circle = max(worst_circle, abs(rc.tau - r))
            if r == 1.0:
                records.append(rc)
    violations = cheb.submultiplicativity_audit(records)
    ok = interval_err <= 1e-3 and worst_circle <= 1e-6 and not violations
    report(11, "Chebyshev constants", ok,
           f"Y((2)) err {interval_err:.1e}, circle tau err {worst_circle:.1e}, "
           f"{len(violations)} violations")


def test_criterion_12_bergman_asymptotics_trend():
    t0 = time.time()
    cand = domains.disk(1.0, 60, 48)
    mu = DiscreteMeasure.from_reference(cand)
    model = energy.weighted_disk()
    dists = []
    for n in (4, 8, 12):
        bm = diag.bergman_measure(mu, QUAD, n)
        dists.append(diag.radial_cdf_distance(bm, model))
    elapsed = time.time() - t0
    ok = dists[0] > dists[1] > dists[2] and elapsed < 180
    report(12, "Bergman-measure radial CDF distance strictly decreasing", ok,
           "distances " + ", ".join(f"{d:.4f}" for d in dists) +
           f", {elapsed:.1f}s")


def test_criterion_13_determinism(tmp_path):
    cases = {
        "fekete": "geometry = circle\nradius = 1.0\nm = 64\nn_max = 6\n",
        "optmeas": "geometry = interval\na = -1\nb = 1\nm = 3\nn_max = 2\n",
        "cheb": "geometry = circle\nradius = 0.5\nm = 64\nn_max = 3\n",
        "tfd": "geometry = circle\nradius = 1.0\nm = 48\nn_max = 5\n",
        "bergman": "geometry = circle\nradius = 1.0\nm = 64\nn_max = 4\n",
        "energy-check": "model = weighted_disk\nn_max = 10\n"
                        "geometry = disk\nm_r = 20\nm_theta = 24\n",
        "diag": "geometry = circle\nradius = 1.0\nm = 64\nn = 4\nmodel = disk\n",
    }
    ok = True
    for sub, text in cases.items():
        cfg = tmp_path / f"{sub}.cfg"
        cfg.write_text(text)
        blobs = []
        for run in (1, 2):
            out = tmp_path / f"{sub}_{run}.json"
            code = cli.main([sub, "--config", str(cfg), "--out", str(out)])
            assert code == 0, sub
            blobs.append(out.read_bytes())
        if blobs[0] != blobs[1]:
            ok = False
    report(13, "byte-identical JSON across repeated runs", ok,
           f"{len(cases)} subcommands x 2 runs")
