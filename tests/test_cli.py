"""Growth fitting, model verification, and the command-line surface."""

import json
import math

import numpy as np
import pytest

from orthantwalks.cli import (
    GrowthFit,
    estimate_growth,
    main,
    verify_model,
)
from orthantwalks.critical import MIN_PREC_BITS
from orthantwalks.enumeration import CountSeries, count_walks
from orthantwalks.stepset import build_stepset


def synth(values, log_scale=0.0, flt="anywhere"):
    return CountSeries("float", flt, np.asarray(values, dtype=float), log_scale)


def test_fit_pure_geometric():
    u = [1.0] * 513  # s_n = 2^n stored as u_n = s_n / 2^n
    fit = estimate_growth(synth(u, math.log(2)))
    assert fit.period == 1
    assert abs(fit.rho - 2) < 1e-9
    assert abs(fit.alpha) < 1e-6
    assert abs(fit.constants[0] - 1) < 1e-6


def test_fit_polynomial_factor():
    # s_n = 5 * 3^n * n^{-3/2}
    u = [0.0] + [5 * n ** -1.5 for n in range(1, 513)]
    fit = estimate_growth(synth(u, math.log(3)))
    assert abs(fit.rho - 3) < 1e-6
    assert abs(fit.alpha + 1.5) < 0.01
    assert abs(fit.constants[0] / 5 - 1) < 0.01


def test_fit_periodic_with_structural_zeros():
    # even-only support with constant 7, rate 2
    u = [7.0 if n % 2 == 0 else 0.0 for n in range(513)]
    fit = estimate_growth(synth(u, math.log(2)))
    assert fit.period == 2
    assert fit.structural_zeros == (1,)
    assert abs(fit.constants[0] - 7) < 1e-4
    assert 1 not in fit.constants


def test_fit_known_rate_shortcut():
    u = [0.0] + [2.5 * n ** -2.0 for n in range(1, 513)]
    fit = estimate_growth(synth(u, math.log(4)), known_rate=4.0)
    assert abs(fit.rho - 4) < 1e-12
    assert abs(fit.alpha + 2) < 0.01
    assert abs(fit.constants[0] / 2.5 - 1) < 0.01


def test_fit_requires_length():
    with pytest.raises(ValueError):
        estimate_growth(synth([1.0] * 32))


def test_fit_alternating_constants():
    # period-2 constants 3 and 1 at rate 2
    u = [(3.0 if n % 2 == 0 else 1.0) * (1 + 0.5 / max(n, 1)) for n in range(513)]
    fit = estimate_growth(synth(u, math.log(2)))
    assert fit.period == 2
    assert abs(fit.constants[0] / 3 - 1) < 0.01
    assert abs(fit.constants[1] / 1 - 1) < 0.01


def test_fit_tolerance_monotonicity():
    # the fitted constant error shrinks as the series grows
    s = build_stepset(2, ["N", "SE", "S", "SW"])
    import mpmath

    want_even = float(12 * mpmath.sqrt(3) / mpmath.pi)
    errs = []
    for n_max in (128, 512):
        fit = estimate_growth(count_walks(s, n_max, mode="float"))
        errs.append(abs(fit.constants[0] / want_even - 1))
    assert errs[1] < errs[0]


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
