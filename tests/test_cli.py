"""CLI surface: config parsing, JSON determinism, exit codes."""

import json
import math
import os
import pathlib
import re
import subprocess
import sys

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
        _, out = run_cli(tmp_path, f"det_{tag}", text, "tfd", "--seed", "7")
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_exit_code_config_error(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    code = cli.main(["fekete", "--config", str(missing)])
    assert code == cli.EXIT_CONFIG
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "config"


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


def test_import_loads_no_sparse_optimize_or_spatial():
    # scipy.optimize (for the Chebyshev LP) loads on the first LP solve.
    script = (
        "import sys\n"
        "import pluripot.cli\n"
        "from pluripot import cheb, domains\n"
        "heavy = [m for m in ('scipy.optimize', 'scipy.spatial', 'scipy.sparse')\n"
        "         if m in sys.modules]\n"
        "assert not heavy, heavy\n"
        "rec = cheb.chebyshev_constant(domains.circle(1.0, 32), (2,))\n"
        "assert abs(rec.value - 1.0) < 1e-9 and rec.converged, rec\n"
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
