"""Model verification and the command-line surface."""

import json
import re
import shlex
from pathlib import Path

import pytest

from orthantwalks.cli import build_parser, main, verify_model
from orthantwalks.critical import MIN_PREC_BITS
from orthantwalks.stepset import build_stepset


# ------------------------------------------------------------ verify_model

def test_verify_negative_drift_passes():
    s = build_stepset(2, ["N", "SE", "S", "SW"])
    rep = verify_model(s, n_max=512)
    assert rep.status == "pass"
    assert rep.exact_checks["diagonal_vs_oracle"]["pass"]
    assert rep.exact_checks["positive_part"]["pass"]
    comp = rep.comparisons["engine_vs_empirical"]
    assert comp["log_rho_err"] < 1e-2
    assert all(v < 0.05 for v in comp["constant_rel_errs"].values())


def test_verify_no_symmetry_model_is_partial():
    s = build_stepset(2, ["N", "W", "SE"])
    rep = verify_model(s, n_max=512)
    assert rep.status == "partial"
    assert abs(rep.empirical["alpha"] + 1.5) < 0.05
    assert "catalog_vs_empirical" in rep.comparisons


def test_verify_zero_drift_non_symmetric_conjectural():
    steps = [((1, 0), 1), ((-1, 0), 1),
             ((1, 1), 2), ((-1, 1), 2), ((0, 1), 1),
             ((1, -1), 1), ((-1, -1), 1), ((0, -1), 3)]
    s = build_stepset(2, steps)
    rep = verify_model(s, n_max=256)
    assert rep.status == "partial"
    assert any("conjectural" in n for n in rep.notes)
    assert rep.empirical["rho"] > 0


# -------------------------------------------------------------------- CLI

def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_count_json(capsys):
    code, out = run_cli(capsys, "count", "--model", "N,S,E,W", "--n", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert [r["count"] for r in doc["rows"]] == ["1", "2", "6", "18", "60", "200"]


def test_cli_count_origin_filter(capsys):
    code, out = run_cli(capsys, "count", "--model", "N,S,E,W", "--n", "4",
                        "--endpoint", "origin")
    doc = json.loads(out)
    assert [r["count"] for r in doc["rows"]] == ["1", "0", "2", "0", "10"]


def test_cli_diagonal_and_orbitsum(capsys):
    code, out = run_cli(capsys, "diagonal", "--model", "NE,NW,S", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert [r["coefficient"] for r in doc["rows"]] == ["1", "1", "3", "7"]
    code, out = run_cli(capsys, "orbitsum", "--model", "NE,NW,S")
    assert code == 0
    assert "numerator" in json.loads(out)


def test_cli_critical_and_asympt(capsys):
    code, out = run_cli(capsys, "critical", "--model", "N,SE,S,SW")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 2 and all(r["critical_ok"] for r in rows)
    code, out = run_cli(capsys, "asympt", "--model", "N,SE,S,SW")
    assert code == 0
    doc = json.loads(out)
    assert doc["period"] == 2 and doc["rate_modulus_exact"] == "2*sqrt(3)"


def test_cli_precision_floor(capsys):
    # the working precision must clear critical.RESIDUAL_TOL_EXP, or every
    # point fails its residual check and the table comes out silently empty
    for bits in ("8", "96"):
        assert main(["critical", "--model", "N,SE,S,SW", "--precision-bits", bits]) == 3
        assert "usage error: --precision-bits" in capsys.readouterr().err
    code, default = run_cli(capsys, "critical", "--model", "N,SE,S,SW")
    assert code == 0
    code, out = run_cli(capsys, "critical", "--model", "N,SE,S,SW", "--precision-bits", "192")
    assert code == 0 and out == default
    code, out = run_cli(capsys, "critical", "--model", "N,SE,S,SW",
                        "--precision-bits", str(MIN_PREC_BITS))
    rows = json.loads(out)["rows"]
    assert code == 0 and len(rows) == 2 and all(r["critical_ok"] for r in rows)


def test_cli_capacity_error(capsys):
    assert main(["count", "--model", "N,S,E,W", "--n", "9000", "--mode", "float"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: float DP box")


def test_cli_asympt_partial_exit(capsys):
    code, out = run_cli(capsys, "asympt", "--model", "NE,NW,S",
                        "--endpoint", "axes=1")
    assert code == 2
    assert json.loads(out)["partial"] is True


def test_cli_model_file_and_formats(tmp_path, capsys):
    doc = {"dimension": 2,
           "steps": [{"vector": [0, 1], "weight": "1"}, "SE", "S", "SW"]}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "count", "--model", str(path), "--n", "3",
                        "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,count"
    code, out = run_cli(capsys, "count", "--model", str(path), "--n", "3",
                        "--format", "md")
    assert out.startswith("| n | count |")


def test_cli_out_file_and_determinism(tmp_path, capsys):
    target = tmp_path / "report.json"
    argv = ["asympt", "--model", "N,SE,SW", "--out", str(target)]
    assert main(list(argv)) == 0
    first = target.read_bytes()
    assert main(list(argv)) == 0
    assert target.read_bytes() == first
    capsys.readouterr()


def test_cli_usage_errors(capsys):
    assert main(["count", "--model", "NOT,A,MODEL"]) == 3
    assert main(["count"]) == 3
    capsys.readouterr()


def test_cli_catalog_listing(capsys):
    code, out = run_cli(capsys, "catalog")
    assert code == 0
    assert len(json.loads(out)["rows"]) == 23


@pytest.mark.parametrize("argv", [
    ["orbitsum", "--model", "N,S,E,W", "--n", "5"],
    ["catalog", "--mode", "float"],
    ["count", "--model", "N,S,E,W", "--threads", "4"],
])
def test_cli_rejects_flags_a_subcommand_ignores(argv, capsys):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error: unrecognized arguments" in captured.err


def test_cli_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = re.findall(r"^orthantwalks +(.+)$", readme, flags=re.M)
    assert len(lines) == 7
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line))
