"""CLI surface: config parsing, JSON determinism, exit codes."""

import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from pluripot import cli


def run_cli(tmp_path, name, config_text, *args):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(config_text)
    out = tmp_path / f"{name}.json"
    code = cli.main([*args, "--config", str(cfg), "--out", str(out)])
    return code, out


def test_parse_config_types(tmp_path):
    p = tmp_path / "a.cfg"
    p.write_text(
        "geometry = circle  # comment\nm = 32\nradius = 1.5\nflag = true\nname = abc\n"
    )
    cfg = cli.parse_config(str(p))
    assert cfg == {
        "geometry": "circle",
        "m": 32,
        "radius": 1.5,
        "flag": True,
        "name": "abc",
    }


def test_parse_config_errors(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("no equals sign here\n")
    from pluripot.errors import InvalidInputError

    with pytest.raises(InvalidInputError):
        cli.parse_config(str(p))


def test_config_hash_is_order_insensitive(tmp_path):
    assert cli.config_hash({"a": 1, "b": 2}) == cli.config_hash({"b": 2, "a": 1})
    assert cli.config_hash({"a": 1}) != cli.config_hash({"a": 2})


def test_to_json_formatting():
    s = cli.to_json({"x": 0.1, "y": [1, True, None], "z": 1.0 + 2.0j})
    obj = json.loads(s)
    assert obj["x"] == 0.1
    assert obj["y"] == [1, True, None]
    assert obj["z"] == {"re": 1.0, "im": 2.0}
    assert cli.format_number(float("nan")) == '"nan"'
    assert cli.format_number(float("inf")) == '"inf"'


@pytest.mark.parametrize(
    "items",
    [[0.1, -0.0, 1e300, float("nan"), float("-inf"), 5e-324],
     [0, -3, 2**70],
     [1, True, 2.5],
     [np.float64(0.1), 0.2],
     [np.int64(3), 4]],
    ids=["floats", "ints", "mixed", "numpy-float", "numpy-int"],
)
def test_to_json_number_lists_match_item_by_item(items):
    by_item = ",\n".join("    " + cli.to_json(v, 2) for v in items)
    assert cli.to_json(items, 1) == "[\n" + by_item + "\n  ]"


def test_fekete_command(tmp_path):
    code, out = run_cli(
        tmp_path, "fek",
        "geometry = circle\nradius = 1.0\nm = 60\nn_max = 6\n",
        "fekete",
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == "1"
    seq = doc["results"]["sequence"]
    assert [s["n"] for s in seq] == list(range(1, 7))
    assert seq[1]["delta_n"] == pytest.approx(3.0 ** 0.5, rel=1e-9)


def test_optmeas_command(tmp_path):
    code, out = run_cli(
        tmp_path, "opt",
        "geometry = interval\na = -1\nb = 1\nm = 3\nn_max = 2\n",
        "optmeas",
    )
    assert code == 0
    doc = json.loads(out.read_text())
    reports = doc["results"]["reports"]
    assert reports[0]["converged"] and reports[1]["converged"]
    assert reports[0]["masses"] == pytest.approx([0.5, 0.0, 0.5], abs=1e-4)
    assert reports[1]["masses"] == pytest.approx([1 / 3] * 3, abs=1e-4)


def test_optmeas_ignores_n_key(tmp_path):
    # n is diag's single degree; optmeas reads only n_max (default 3)
    code, out = run_cli(
        tmp_path, "optn",
        "geometry = interval\na = -1\nb = 1\nm = 9\nn = 4\n",
        "optmeas",
    )
    assert code == 0
    reports = json.loads(out.read_text())["results"]["reports"]
    assert [r["n"] for r in reports] == [1, 2, 3]


def test_cheb_command(tmp_path):
    code, out = run_cli(
        tmp_path, "cheb",
        "geometry = circle\nradius = 0.5\nm = 64\nn_max = 3\n",
        "cheb",
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["results"]["violations"] == []
    for row in doc["results"]["tau_trend"]:
        assert row["tau_geometric_mean"] == pytest.approx(0.5, rel=1e-6)



@pytest.mark.parametrize("m, n_max", [(2, 3), (3, 4)])
def test_cheb_zero_constant_on_a_finite_set(tmp_path, m, n_max):
    # prod (x - x_k) over the m grid nodes is monic of degree m and vanishes
    # on them, so Y(m) = 0 and the geometric mean is 0 from degree m on.
    code, out = run_cli(tmp_path, "zero", f"geometry = interval\na = -1\nb = 1\n"
                        f"m = {m}\nn_max = {n_max}\n", "cheb")
    assert code == cli.EXIT_OK
    res = json.loads(out.read_text())["results"]
    assert res["records"][m - 1]["Y"] == 0.0
    trend = [row["tau_geometric_mean"] for row in res["tau_trend"]]
    assert all(t > 0 for t in trend[: m - 1])
    assert trend[m - 1] == 0.0
    assert res["violations"] == []


@pytest.mark.parametrize(
    "geometry, m",
    [("interval\na = -1\nb = 1", 6), ("circle\nradius = 1", 5)],
    ids=["interval6", "circle5"],
)
def test_cheb_degree_at_least_m_reads_exactly_zero(tmp_path, geometry, m):
    # Here the LP's minimax at degree >= m is rounding-level (up to 1e-15),
    # not an exact 0; it must read 0 and raise no submultiplicativity
    # violations between rounding-level values.
    code, out = run_cli(tmp_path, "zero", f"geometry = {geometry}\nm = {m}\n"
                        "n_max = 8\n", "cheb")
    assert code == cli.EXIT_OK
    res = json.loads(out.read_text())["results"]
    ys = [row["Y"] for row in res["records"]]
    assert all(y > 0.01 for y in ys[: m - 1])
    assert ys[m - 1:] == [0.0] * (9 - m)
    trend = [row["tau_geometric_mean"] for row in res["tau_trend"]]
    assert trend[m - 1:] == [0.0] * (9 - m)
    assert res["violations"] == []


def test_tfd_zero_constant_gives_zero_chebyshev_delta(tmp_path):
    code, out = run_cli(tmp_path, "tfdzero", "geometry = interval\na = -1\nb = 1\n"
                        "m = 3\nn_max = 2\ncheb_n_max = 3\n", "tfd")
    assert code == cli.EXIT_OK
    route = json.loads(out.read_text())["results"]["chebyshev_route"]
    assert [row["n"] for row in route] == [1, 2, 3]
    assert route[1]["delta"] > 0
    assert route[2]["delta"] == 0.0

def test_tfd_command_routes_agree(tmp_path):
    code, out = run_cli(
        tmp_path, "tfd",
        "geometry = circle\nradius = 1.0\nm = 60\nn_max = 12\nlift_n_max = 2\n"
        "cheb_n_max = 5\n",
        "tfd",
    )
    assert code == 0
    doc = json.loads(out.read_text())
    res = doc["results"]
    assert len(res["fekete_route"]) == 12
    assert len(res["gram_route"]) == 12
    # all routes estimate the same transfinite diameter (1.0 for the circle)
    assert res["fekete_extrapolated"] == pytest.approx(1.0, rel=0.02)
    assert res["gram_route"][-1]["delta"] == pytest.approx(1.0, abs=1e-9)
    assert res["chebyshev_route"][-1]["delta"] == pytest.approx(1.0, rel=1e-6)
    for row in res["lift_route"]:
        assert row["gap"] <= 1e-9


def test_bergman_command(tmp_path):
    code, out = run_cli(
        tmp_path, "berg",
        "geometry = circle\nradius = 1.0\nm = 64\nn_max = 4\n",
        "bergman",
    )
    assert code == 0
    doc = json.loads(out.read_text())
    rows = doc["results"]["bm_sequence"]
    for row in rows:
        assert row["M_n"] == pytest.approx(math.sqrt(row["N"]), rel=1e-9)


@pytest.mark.parametrize(
    "config",
    ["geometry = circle\nradius = 1.0\nm = 64\nn_max = 12\n",
     "geometry = torus\nd = 2\nm = 21\nn_max = 10\n"],
    ids=["circle64", "torus21"],
)
def test_bergman_argmax_ties_go_to_the_lowest_index(tmp_path, config):
    # B = N at every point of these grids (to rounding), so every point
    # ties for the max and point 0, (1, ..., 1), is reported.
    code, out = run_cli(tmp_path, "ties", config, "bergman")
    assert code == 0
    rows = json.loads(out.read_text())["results"]["bm_sequence"]
    for row in rows:
        assert all(z == {"re": 1.0, "im": 0.0} for z in row["argmax"]), row["n"]


def test_energy_check_command(tmp_path):
    code, out = run_cli(
        tmp_path, "en",
        "model = disk\nmodel_radius = 0.5\nn_max = 12\n",
        "energy-check",
    )
    assert code == 0
    doc = json.loads(out.read_text())
    res = doc["results"]
    assert res["rhs"] == pytest.approx(math.log(2.0), abs=1e-12)
    assert res["dw_vs_deltaw"]["gap"] < 1e-10


def test_diag_command(tmp_path):
    code, out = run_cli(
        tmp_path, "dg",
        "geometry = circle\nradius = 1.0\nm = 64\nn = 8\nmodel = disk\n",
        "diag",
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["results"]["max_second_difference"] <= 1e-8
    # 9 Fekete points: no mixed moment with |alpha|,|beta| <= 5 sees N = 9
    assert doc["results"]["weak_star_moment_distance"] <= 0.05


def test_determinism_byte_identical(tmp_path):
    text = "geometry = circle\nradius = 1.0\nm = 48\nn_max = 5\n"
    outputs = []
    for tag in ("r1", "r2"):
        _, out = run_cli(tmp_path, f"det_{tag}", text, "tfd")
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_exit_code_config_error(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    code = cli.main(["fekete", "--config", str(missing)])
    assert code == cli.EXIT_CONFIG
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "config"


def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"geometry = circle\nm = 16\nname = caf\xe9\n")
    code = cli.main(["fekete", "--config", str(cfg)])
    assert code == cli.EXIT_CONFIG
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "config"
    assert doc["message"].startswith("cannot read config: ")


@pytest.mark.parametrize("flag", ["--out", "--points-csv"])
def test_unwritable_output_is_a_config_error(tmp_path, capsys, flag):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("geometry = circle\nradius = 1.0\nm = 16\nn_max = 2\n")
    target = tmp_path / "missing" / "x"
    code = cli.main(["fekete", "--config", str(cfg), flag, str(target)])
    assert code == cli.EXIT_CONFIG
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"error": "config",
                   "message": f"cannot write {target}: No such file or directory"}
    assert not target.parent.exists()


def test_exit_code_compute_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("geometry = circle\nradius = 1.0\nm = 3\nn_max = 6\n")
    code = cli.main(["fekete", "--config", str(cfg)])
    assert code == cli.EXIT_COMPUTE
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "computation"


@pytest.mark.parametrize(
    "text",
    [
        "geometry = circle\nradius = nan\nm = 16\nn_max = 2\n",
        "geometry = interval\na = -1\nb = inf\nm = 16\nn_max = 2\n",
    ],
    ids=["circle-nan-radius", "interval-inf-end"],
)
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_geometry_is_a_compute_error(tmp_path, capsys, text):
    cfg = tmp_path / "nonfinite.cfg"
    cfg.write_text(text)
    code = cli.main(["fekete", "--config", str(cfg)])
    assert code == cli.EXIT_COMPUTE
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"error": "computation", "message": "candidate points must be finite"}


def test_runs_load_no_scipy_linalg_optimize_sparse_or_spatial():
    # pluripot binds LAPACK, BLAS and HiGHS from their extension files, so
    # neither the import nor a run loads the SciPy packages around them.  On
    # a SciPy without HiGHS's bindings the LP is scipy.optimize.linprog's,
    # whose import brings scipy.linalg and scipy.sparse.
    script = (
        "import sys\n"
        "import pluripot.cli\n"
        "from pluripot import cheb, domains, fekete, gram, optmeas\n"
        "heavy = ('scipy.linalg', 'scipy.sparse', 'scipy.spatial')\n"
        "every = heavy + ('scipy.optimize',)\n"
        "def loaded(names):\n"
        "    return [m for m in names if m in sys.modules]\n"
        "assert not loaded(every), loaded(every)\n"
        "zero = domains.AdmissibleWeight.zero()\n"
        "circle, line = domains.circle(1.0, 32), domains.interval(-1.0, 1.0, 41)\n"
        "for cand in (circle, line):\n"
        "    fekete.search_fekete(cand, 3, zero)\n"
        "gram.gram_sequence(gram.DiscreteMeasure.uniform(circle), zero, 4)\n"
        "assert optmeas.solve_optimal_measure(line, zero, 3).converged\n"
        "assert not loaded(heavy), loaded(heavy)\n"
        "rec = cheb.chebyshev_constant(circle, (2,))\n"
        "assert abs(rec.value - 1.0) < 1e-9 and rec.converged, rec\n"
        "if cheb._highs() is not None:\n"
        "    assert not loaded(every), loaded(every)\n"
    )
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr


def test_bergman_conditioning_decides_degree(tmp_path, capsys):
    # The circle's Gram is diagonal at any degree; the interval's monomial
    # Grams are refused from n = 15 on (smallest pivot 4.4e-8; 1.7e-7 at
    # n = 14) by their measured pivots, not by a degree cap.
    code, _ = run_cli(tmp_path, "circle",
                      "geometry = circle\nradius = 1.0\nm = 80\nn_max = 31\n",
                      "bergman")
    assert code == cli.EXIT_OK
    code, _ = run_cli(tmp_path, "interval",
                      "geometry = interval\na = -1\nb = 1\nm = 401\nn_max = 20\n",
                      "bergman")
    assert code == cli.EXIT_COMPUTE
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "computation"
    assert "degree 15" in doc["message"]


def test_points_csv_flag(tmp_path):
    cfg = tmp_path / "pts.cfg"
    cfg.write_text("geometry = circle\nradius = 1.0\nm = 16\nn_max = 2\n")
    csv_path = tmp_path / "pts.csv"
    code = cli.main(["fekete", "--config", str(cfg), "--out",
                     str(tmp_path / "pts.json"), "--points-csv", str(csv_path)])
    assert code == 0
    header = csv_path.read_text().splitlines()[0]
    assert header == "re_1,im_1,mass"


SCHEMA_DIR = pathlib.Path(__file__).resolve().parents[1] / "schema" / "v1"

SCHEMA_CASES = {
    "fekete": "geometry = circle\nradius = 1.0\nm = 48\nn_max = 4\n",
    "optmeas": "geometry = interval\na = -1\nb = 1\nm = 5\nn_max = 2\n",
    "cheb": "geometry = circle\nradius = 0.5\nm = 32\nn_max = 2\n",
    "tfd": "geometry = circle\nradius = 1.0\nm = 48\nn_max = 4\nlift_n_max = 2\n",
    "bergman": "geometry = circle\nradius = 1.0\nm = 48\nn_max = 3\n",
    "energy-check": "model = weighted_disk\nn_max = 8\n"
                    "geometry = disk\nm_r = 16\nm_theta = 20\n",
    "diag": "geometry = circle\nradius = 1.0\nm = 48\nn = 4\nmodel = disk\n",
}


@pytest.mark.parametrize("sub", sorted(SCHEMA_CASES))
def test_output_matches_schema(tmp_path, sub):
    jsonschema = pytest.importorskip("jsonschema")
    code, out = run_cli(tmp_path, f"schema_{sub}", SCHEMA_CASES[sub], sub)
    assert code == 0
    doc = json.loads(out.read_text())
    envelope = json.loads((SCHEMA_DIR / "envelope.schema.json").read_text())
    jsonschema.validate(doc, envelope)
    results = json.loads((SCHEMA_DIR / f"{sub}.schema.json").read_text())
    jsonschema.validate(doc["results"], results)


def test_readme_flags_match_parser():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    flags_line = re.search(r"^Flags:(.*?)\.$", readme, re.MULTILINE | re.DOTALL)
    assert flags_line is not None, "README has no Flags: line"
    documented = set(re.findall(r"`(--[a-z][a-z-]*)", flags_line.group(1)))
    parser_flags = {
        opt
        for action in cli.build_parser()._actions
        for opt in action.option_strings
        if opt.startswith("--") and opt != "--help"
    }
    assert documented == parser_flags


def test_to_json_escapes_control_characters():
    text = cli.to_json({"message": "a\tb\n\x01"})
    assert json.loads(text) == {"message": "a\tb\n\x01"}
    assert json.loads(cli.to_json("a\tb\n\x01")) == "a\tb\n\x01"


def test_config_error_report_parses_with_tab_in_path(tmp_path, capsys):
    cfg = tmp_path / "tab\tname.cfg"
    cfg.write_text("geometry = circle\nnot a pair\n")
    code = cli.main(["fekete", "--config", str(cfg)])
    assert code == cli.EXIT_CONFIG
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"error": "config", "message": f"{cfg}:2: expected key = value"}


def test_cheb_homogeneous_class_on_torus(tmp_path):
    # Monomials are orthonormal on the torus: every Y is 1.
    code, out = run_cli(tmp_path, "hom", "geometry = torus\nd = 2\nm = 12\n"
                        "n_max = 3\nclass = homogeneous\n", "cheb")
    assert code == cli.EXIT_OK
    res = json.loads(out.read_text())["results"]
    assert res["class"] == "homogeneous"
    alphas = [tuple(r["alpha"]) for r in res["records"]]
    assert alphas == [(k - j, j) for k in (1, 2, 3) for j in range(k + 1)]
    assert all(abs(r["Y"] - 1.0) <= 1e-12 for r in res["records"])
    assert res["violations"] == []


def test_cheb_weighted_class_on_circle(tmp_path):
    # |z| = r and Q = r^2 everywhere: Y(k) = r^k e^{-k r^2}.
    r = 0.8
    code, out = run_cli(tmp_path, "wtd", f"geometry = circle\nradius = {r}\nm = 64\n"
                        "n_max = 4\nclass = weighted\nweight = quadratic\n", "cheb")
    assert code == cli.EXIT_OK
    res = json.loads(out.read_text())["results"]
    assert [rec["alpha"] for rec in res["records"]] == [[1], [2], [3], [4]]
    for rec in res["records"]:
        (k,) = rec["alpha"]
        exact = r**k * math.exp(-k * r * r)
        assert abs(rec["Y"] - exact) <= 1e-12 * exact, rec


def test_cheb_unknown_class_is_a_compute_error(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "pretzel", "geometry = circle\nm = 16\n"
                      "n_max = 2\nclass = pretzel\n", "cheb")
    assert code == cli.EXIT_COMPUTE
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"error": "computation", "message": "unknown class 'pretzel'"}


@pytest.mark.parametrize(
    "sub, text, message",
    [
        ("fekete", "n_max = 0\n", "key 'n_max' must be >= 1, got 0"),
        ("tfd", "n_max = 0\n", "key 'n_max' must be >= 1, got 0"),
        ("diag", "n = 0\n", "key 'n' must be >= 1, got 0"),
        ("fekete", "n_max = two\n", "key 'n_max' must be an integer, got 'two'"),
        ("fekete", "n_max = 2.5\n", "key 'n_max' must be an integer, got 2.5"),
        ("tfd", "n_max = 3\nlift_n_max = 1.5\n",
         "key 'lift_n_max' must be an integer, got 1.5"),
        ("fekete", "m = ten\n", "key 'm' must be an integer, got 'ten'"),
        ("cheb", "radius = big\n", "key 'radius' must be a number, got 'big'"),
    ],
    ids=["fekete-n_max-0", "tfd-n_max-0", "diag-n-0", "non-numeric", "fractional",
         "fractional-cap", "non-numeric-m", "non-numeric-radius"],
)
def test_bad_numeric_key_is_a_config_error(tmp_path, capsys, sub, text, message):
    # A later line overrides an earlier line of the same key.
    code, out = run_cli(tmp_path, "badkey",
                        "geometry = circle\nradius = 1.0\nm = 16\nn_max = 2\n" + text,
                        sub)
    assert code == cli.EXIT_CONFIG
    assert not out.exists()
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"error": "config", "message": message}


def test_missing_geometry_key_is_a_config_error(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "nokey", "geometry = disk\nm_r = 3\nn_max = 2\n",
                      "fekete")
    assert code == cli.EXIT_CONFIG
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"error": "config", "message": "geometry 'disk' needs key 'm_theta'"}


def test_integral_float_reads_as_int(tmp_path):
    code, out = run_cli(tmp_path, "intfloat",
                        "geometry = circle\nradius = 1.0\nm = 16.0\nn_max = 2.0\n",
                        "fekete")
    assert code == cli.EXIT_OK
    seq = json.loads(out.read_text())["results"]["sequence"]
    assert [s["n"] for s in seq] == [1, 2]
